"""The oracle boundary of a solver run.

A run checks its start point once and every point it makes; in between,
the oracles skip their per-call point check.  These tests pin down what
that must not change: drivers call the public ``evaluate``/``jacobian``
names (a tracer patches them), public calls after any kind of run keep
every check, and no start point in the float range lets an error escape.
"""

import warnings
from collections import Counter

import numpy as np
import pytest

from contract import _bigg
from mograd import (
    AdagradConfig,
    DescentConfig,
    InputError,
    MultiObjectiveProblem,
    NoiseSpec,
    RunStatus,
    quadratic_pair,
    run_adagrad,
    run_descent,
    wrap_noisy,
)
from mograd import harness
from mograd.problems import NoisyProblem

DRIVERS = [run_adagrad, run_descent]


def _count(monkeypatch, cls, name, calls):
    original = getattr(cls, name)

    def counted(self, x):
        calls[(cls.__name__, name)] += 1
        return original(self, x)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("solver", ["adagrad", "descent"])
@pytest.mark.parametrize("rho", [0.0, 0.05])
@pytest.mark.parametrize("name", ["MOP1", "ZANGWIL2-ROSENBR"])
def test_drivers_call_the_public_oracles(monkeypatch, name, solver, rho):
    calls = Counter()
    for cls in (MultiObjectiveProblem, NoisyProblem):
        for oracle in ("evaluate", "jacobian"):
            _count(monkeypatch, cls, oracle, calls)
    rec = harness.run_cell(name, solver, seed=1, rho=rho, budget=300)
    assert rec.gradient_evals > 1
    assert (rec.objective_evals > 0) == (solver == "descent")
    assert calls[("MultiObjectiveProblem", "evaluate")] == rec.objective_evals
    assert calls[("MultiObjectiveProblem", "jacobian")] == rec.gradient_evals
    # rho = 0 runs on the bare problem, with no wrapper in between.
    wrapped = (rec.objective_evals, rec.gradient_evals) if rho else (0, 0)
    assert (
        calls[("NoisyProblem", "evaluate")],
        calls[("NoisyProblem", "jacobian")],
    ) == wrapped


def _assert_public_checks(problem):
    nan = np.full(problem.n, np.nan)
    wrong = np.zeros(problem.n + 1)
    for oracle in (problem.evaluate, problem.jacobian):
        with pytest.raises(InputError, match="non-finite"):
            oracle(nan)
        with pytest.raises(InputError, match="shape"):
            oracle(wrong)


def _raising_oracle(calls_before_raise):
    # Bowls around (1, 0) and (-1, 0) whose oracle raises on a late call.
    calls = []

    def broke():
        calls.append(1)
        if len(calls) > calls_before_raise:
            raise ValueError("oracle broke")

    def objectives(x):
        broke()
        return np.array([(x[0] - 1) ** 2 + x[1] ** 2, (x[0] + 1) ** 2 + x[1] ** 2])

    def jac(x):
        broke()
        return 2 * np.array([[x[0] - 1, x[1]], [x[0] + 1, x[1]]])

    return MultiObjectiveProblem("BREAKS", 2, 2, [0.3, 2.0], objectives, jac)


@pytest.mark.parametrize("run", DRIVERS)
class TestPublicChecksAfterARun:
    def test_after_critical(self, run):
        p = quadratic_pair()
        rec = run(p, x0=np.array([0.5, 0.0]))
        assert rec.status == RunStatus.CRITICAL
        _assert_public_checks(p)

    def test_after_omega_overflow(self, run):
        p = _bigg()
        rec = run(p)
        assert rec.status == RunStatus.FAILED
        assert "omega is non-finite" in rec.failure_reason
        _assert_public_checks(p)

    def test_after_an_escaping_oracle_error(self, run):
        p = _raising_oracle(calls_before_raise=3)
        with pytest.raises(ValueError, match="oracle broke"):
            run(p)
        _assert_public_checks(p)

    @pytest.mark.parametrize("wrappers", [1, 2])
    def test_after_a_noisy_run(self, run, wrappers):
        p = noisy = quadratic_pair()
        for seed in range(wrappers):
            noisy = wrap_noisy(noisy, NoiseSpec(rho=0.05, seed=seed))
        rec = run(noisy, x0=np.array([0.0, 1.0]))
        assert rec.gradient_evals > 1
        _assert_public_checks(noisy)
        _assert_public_checks(p)

    def test_bad_start_raises(self, run):
        p = quadratic_pair()
        with pytest.raises(InputError, match="non-finite"):
            run(p, x0=np.array([np.inf, 0.0]))
        with pytest.raises(InputError, match="shape"):
            run(p, x0=np.zeros(3))
        assert p.counters.gradient_evals == 0


def _linear(G):
    # An elementwise product, not G @ x, so that an overflow sets the
    # floating-point flags numpy turns into warnings.
    m, n = G.shape
    return MultiObjectiveProblem(
        "LINEAR", n, m, np.zeros(n), lambda x: (G * x).sum(axis=1), lambda x: G
    )


def _scaled(st, top):
    # Sign, mantissa and decimal exponent drawn apart, so that every
    # magnitude from 1e-300 up to about 1.7 * 10**top turns up.
    return st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 1.7),
        st.integers(-300, top),
    )


def test_extreme_scales_end_in_a_typed_state():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    cases = st.tuples(st.integers(2, 3), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(
            hnp.arrays(float, shape, elements=_scaled(st, 149)),
            hnp.arrays(float, shape[1], elements=_scaled(st, 307)),
        )
    )
    drivers = [(run_adagrad, AdagradConfig), (run_descent, DescentConfig)]
    # The top of both ranges, where the objectives overflow at x0.
    top = (np.array([[1.7e149, -1.7e149], [1e149, 1e149]]), np.full(2, 1.7e308))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(case=cases, driver=st.sampled_from(drivers))
    @hypothesis.example(case=top, driver=drivers[0])
    @hypothesis.example(case=top, driver=drivers[1])
    def check(case, driver):
        G, x0 = case
        run, config = driver
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = run(_linear(G), x0=x0, config=config(gradient_budget=20))
        assert np.isfinite(rec.final_x).all()
        if rec.status == RunStatus.FAILED:
            assert rec.failure_reason

    check()


def _quadratic(A, C):
    # f_j = 0.5 * sum_i A_ji (x_i - C_ji)^2, gradient rows A_j * (x - C_j).
    # Elementwise products, so that an overflow sets the flags numpy turns
    # into warnings.
    m, n = A.shape
    return MultiObjectiveProblem(
        "QUADRATIC",
        n,
        m,
        np.zeros(n),
        lambda x: 0.5 * (A * (x - C) ** 2).sum(axis=1),
        lambda x: A * (x - C),
    )


def test_quadratic_oracles_at_extreme_scales_end_in_a_typed_state():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    hnp = pytest.importorskip("hypothesis.extra.numpy")

    # Curvatures up to 1.7e200, centres and starts up to 1.7e150: gradient
    # entries reach past 1e308, and an entry past about 1.3e154 is finite
    # but overflows omega.
    cases = st.tuples(st.integers(2, 3), st.integers(1, 4)).flatmap(
        lambda shape: st.tuples(
            hnp.arrays(float, shape, elements=_scaled(st, 200)),
            hnp.arrays(float, shape, elements=_scaled(st, 150)),
            hnp.arrays(float, shape[1], elements=_scaled(st, 150)),
        )
    )
    drivers = [(run_adagrad, AdagradConfig), (run_descent, DescentConfig)]
    # Gradients of 1e200 at x0: finite, but omega is not.
    big = (np.full((2, 2), 1e200), np.zeros((2, 2)), np.ones(2))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(case=cases, driver=st.sampled_from(drivers))
    @hypothesis.example(case=big, driver=drivers[0])
    @hypothesis.example(case=big, driver=drivers[1])
    def check(case, driver):
        A, C, x0 = case
        run, config = driver
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rec = run(_quadratic(A, C), x0=x0, config=config(gradient_budget=20))
        assert np.isfinite(rec.final_x).all()
        # Every recorded iteration was paid for at a finite omega.
        assert np.isfinite(rec.trajectory.omega).all()
        if rec.status == RunStatus.FAILED:
            assert rec.failure_reason

    check()
