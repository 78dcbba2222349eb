"""The oracle boundary of a solver run.

A run checks its start point once and every point it makes; in between,
the oracles skip their per-call point check.  These tests pin down what
that must not change: drivers call the public ``evaluate``/``jacobian``
names (a tracer patches them), public calls after any kind of run keep
every check, and no start point in the float range lets an error escape.
The run scope's objective memo, and the forward pass the multitask
oracles share through it, must change no record and no count; nor may a
row oracle, through which a line search tests its candidates a block at a
time without calling ``evaluate``.
"""

import math
import threading
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import ROW_NAMES
from contract import _bigg
from mograd import (
    AdagradConfig,
    DescentConfig,
    EvaluationOverflowError,
    InputError,
    LineSearchError,
    MultiObjectiveProblem,
    NoiseSpec,
    RunStatus,
    as_problem,
    generate_dataset,
    get_problem,
    quadratic_pair,
    random_start,
    run_adagrad,
    run_descent,
    solve_direction,
    wrap_noisy,
)
from mograd import descent, harness, multitask
from mograd.problems import NoisyProblem, _in_run, run_scope

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


class TestRunScope:
    @pytest.mark.parametrize(
        "run, config", [(run_adagrad, AdagradConfig), (run_descent, DescentConfig)]
    )
    def test_another_thread_keeps_its_point_check(self, run, config):
        # A public call from another thread while a run is in its scope is
        # checked: InputError, not an overflow error from an unchecked NaN.
        errors = []

        def call_from_another_thread():
            try:
                p.evaluate(np.array([np.nan, 0.0]))
            except Exception as exc:
                errors.append(exc)

        def jacobian(x):
            if not errors:
                thread = threading.Thread(target=call_from_another_thread)
                thread.start()
                thread.join()
            return np.diag(x)

        p = MultiObjectiveProblem("DIAG", 2, 2, [1.0, 1.0], lambda x: 0.5 * x * x, jacobian)
        rec = run(p, config=config(gradient_budget=3))
        assert rec.gradient_evals == 3
        assert [type(e) for e in errors] == [InputError]
        assert "non-finite" in str(errors[0])

    def test_nests_and_resets_after_an_exception(self):
        before = np.geterr()
        with pytest.raises(ZeroDivisionError):
            with run_scope():
                with run_scope():
                    assert _in_run()
                assert _in_run()
                assert np.geterr()["over"] == "ignore"
                1 / 0
        assert not _in_run()
        assert np.geterr() == before
        _assert_public_checks(quadratic_pair())


def _counting(problem, calls):
    """``problem`` rebuilt with an objective that appends to ``calls`` per call."""
    def objectives(x):
        calls.append(1)
        return problem._objectives(x)

    return MultiObjectiveProblem(
        problem.name, problem.n, problem.m, problem.standard_start, objectives, problem._jacobian
    )


class _FreshPoints:
    """A view that hands its base a copy of every point, so no call finds the memo."""

    def __init__(self, base):
        self.base = base
        self.name, self.n, self.m = base.name, base.n, base.m
        self.standard_start = base.standard_start
        self.noise_rho = base.noise_rho
        self.counters = base.counters

    def evaluate(self, x):
        return self.base.evaluate(x.copy())

    def jacobian(self, x):
        return self.base.jacobian(x.copy())


def _fingerprint(rec):
    return (
        rec.status, rec.gradient_evals, rec.objective_evals, rec.failure_reason,
        rec.final_x.tobytes(), rec.trajectory.omega.tobytes(), rec.trajectory.scale.tobytes(),
    )


@pytest.mark.parametrize("rho", [0.0, 0.05])
@pytest.mark.parametrize("name", ["ROSENBR-CUBE", "ZANGWIL2-ROSENBR"])
class TestObjectiveMemo:
    """A run's scope remembers the last objective value; the counts do not change."""

    config = DescentConfig(gradient_budget=300)

    def test_user_objective_skips_each_known_reference_value(self, monkeypatch, name, rho):
        # Each line search after the first starts at the point the one
        # before it accepted, whose value the scope holds.
        searches = []
        search = descent.armijo_backtrack

        def counted(*args):
            searches.append(1)
            return search(*args)

        monkeypatch.setattr(descent, "armijo_backtrack", counted)
        calls = []
        p = wrap_noisy(_counting(get_problem(name), calls), NoiseSpec(rho, seed=1))
        rec = run_descent(p, x0=random_start(p, 1), config=self.config)
        assert len(searches) > 1
        assert len(calls) == rec.objective_evals - (len(searches) - 1)

    def test_run_matches_a_base_that_never_finds_its_point(self, name, rho):
        def run(view):
            calls = []
            p = wrap_noisy(view(_counting(get_problem(name), calls)), NoiseSpec(rho, seed=1))
            return run_descent(p, x0=random_start(p, 1), config=self.config), len(calls)

        memo, memo_calls = run(lambda p: p)
        fresh, fresh_calls = run(_FreshPoints)
        assert fresh_calls == fresh.objective_evals > memo_calls
        assert _fingerprint(memo) == _fingerprint(fresh)


def _row_calls(problem, calls):
    """``problem`` counting its row-oracle and objective calls in the Counter ``calls``."""
    rows, objectives = problem._rows, problem._objectives

    def counted_rows(X):
        calls["rows"] += 1
        return rows(X)

    def counted_objectives(x):
        calls["objectives"] += 1
        return objectives(x)

    problem._rows, problem._objectives = counted_rows, counted_objectives
    return problem


def _search(problem, x, g_s, grads, beta):
    """A public line search's outcome and the objective evaluations it counted."""
    before = problem.counters.objective_evals
    try:
        t, used, point = descent.armijo_backtrack(problem, x, g_s, grads, beta)
        out = (t, used, point.tobytes())
    except (LineSearchError, EvaluationOverflowError) as exc:
        out = (type(exc), str(exc), getattr(exc, "index", None))
    return out, problem.counters.objective_evals - before


class TestRowOracle:
    """Candidates tested a block at a time through a row oracle: every record as one at a time."""

    @pytest.mark.parametrize("name", ROW_NAMES)
    def test_runs_match_a_view_without_row_oracle(self, name):
        # _FreshPoints has no row oracle, so its line searches run the
        # per-candidate loop.
        config = DescentConfig(gradient_budget=100)
        assert not hasattr(_FreshPoints(get_problem(name)), "_rows")
        for seed in range(4):
            calls = Counter()
            p = _row_calls(get_problem(name), calls)
            x0 = random_start(p, seed)
            rows = run_descent(p, x0, config, seed=seed)
            # Only the first line search calls the objectives: each later
            # one finds f(x) where the one before it stored its accepted row.
            assert calls["rows"] and calls["objectives"] == 1
            fresh = run_descent(_FreshPoints(get_problem(name)), x0, config, seed=seed)
            assert _fingerprint(rows) == _fingerprint(fresh)

    @pytest.mark.parametrize(
        "values, outcome",
        [
            # Every candidate rises: a stall after the last step, MIN_STEP.
            (lambda x: [x.sum() + 1.0 if x.any() else 0.0, 0.0], LineSearchError),
            # A NaN at t = 1/2, after a rejected t = 1.
            (lambda x: [1.0 if x[0] > 0.6 else math.nan if x[0] > 0.3 else 0.0, 0.0], 3),
            # A -inf passes the test, but it is non-finite: an error all the same.
            (lambda x: [1.0 if x[0] > 0.6 else -math.inf if x[0] > 0.3 else 0.0, 0.0], 3),
            # NaN in every row after the accepted t = 1: none is counted.
            (lambda x: [-1.0 if x[0] > 0.6 else math.nan if x.any() else 0.0, 0.0], 2),
            # Accepted at t = 2**-20, in the second block.
            (lambda x: [1.0 if x[0] > 2.0**-20 else 0.0, 0.0], 22),
            # Rejected down to 2**-10, then an inf row at 2**-11.
            (lambda x: [1.0 if x[0] > 2.0**-11 else math.inf if x.any() else 0.0, 0.0], 13),
        ],
    )
    def test_search_edges_match_the_per_candidate_loop(self, values, outcome):
        def problem():
            def objectives(x):
                return np.array(values(x))

            return MultiObjectiveProblem(
                "EDGE", 2, 2, [0.0, 0.0], objectives, None,
                lambda X: np.array([objectives(x) for x in X]),
            )

        calls = Counter()
        args = (np.zeros(2), np.array([-1.0, -1.0]), np.zeros((2, 2)), 0.1)
        got = _search(_row_calls(problem(), calls), *args)
        assert calls["rows"]
        assert got == _search(_FreshPoints(problem()), *args)
        (out, evals) = got
        if outcome is LineSearchError:
            assert out[0] is LineSearchError
            assert evals == 52  # f(x), then t = 1, 1/2, ..., 2**-50
        else:
            assert evals == outcome

    def test_random_searches_match_the_per_candidate_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        def scaled(shape):
            # Entries of one magnitude, 1 or anything from 1e-300 to 1e150.
            return st.builds(
                lambda a, exponent: a * 10.0**exponent,
                hnp.arrays(float, shape, elements=st.floats(-3.0, 3.0)),
                st.one_of(st.just(0), st.integers(-300, 150)),
            )

        outcomes, calls = Counter(), Counter()

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(
            name=st.sampled_from(ROW_NAMES),
            x=scaled(10),
            g_s=scaled(10),
            grads=scaled((2, 10)),
            beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            stretch=st.one_of(st.none(), st.integers(0, 40)),
        )
        def check(name, x, g_s, grads, beta, stretch):
            if stretch is not None:
                # A run's search: the min-norm direction at x, stretched by
                # 2**stretch so that it backtracks about that many times.
                try:
                    grads = get_problem(name).jacobian(x)
                except EvaluationOverflowError:
                    hypothesis.reject()
                g_s = np.ldexp(solve_direction(grads).gradient, stretch)
            hypothesis.assume(np.isfinite(g_s).all() and g_s.any())
            got = _search(_row_calls(get_problem(name), calls), x, g_s, grads, beta)
            assert got == _search(_FreshPoints(get_problem(name)), x, g_s, grads, beta)
            (t, *_), _ = got
            if not isinstance(t, type):
                t = "first block" if t >= 2.0**-7 else "second block"
            outcomes[t] += 1

        check()
        assert calls["rows"]
        assert set(outcomes) == {
            "first block", "second block", LineSearchError, EvaluationOverflowError
        }


def test_public_call_sees_an_in_place_change():
    calls = []
    p = _counting(quadratic_pair(), calls)
    x = np.array([0.5, 0.0])
    before = p.evaluate(x)
    x[0] = 2.0
    after = p.evaluate(x)
    assert len(calls) == 2
    assert not np.array_equal(after, before)
    assert np.array_equal(after, p.evaluate(np.array([2.0, 0.0])))


def test_another_problem_at_the_same_point_gets_its_own_value():
    # Both outer oracles ask a second problem for its value at the very
    # array the run evaluates.  The jacobian's call comes while the scope
    # holds the outer value at that array, and the line search's f(x)
    # then comes while it holds the inner one.
    def run(view):
        inner = MultiObjectiveProblem("NEG", 2, 2, [0.0, 0.0], lambda x: -x, lambda x: -np.eye(2))
        wrong = []

        def ask_inner(x):
            if not np.array_equal(inner.evaluate(x), -x):
                wrong.append(x.copy())

        def objectives(x):
            ask_inner(x)
            return 0.5 * x * x

        def jacobian(x):
            ask_inner(x)
            return np.diag(x)

        outer = MultiObjectiveProblem("DIAG", 2, 2, [1.0, 2.0], objectives, jacobian)
        rec = run_descent(view(outer), config=DescentConfig(gradient_budget=20))
        assert rec.objective_evals > 2
        assert wrong == []
        return _fingerprint(rec)

    assert run(lambda p: p) == run(_FreshPoints)


def test_run_memo_keeps_values_by_point_object_and_owner():
    p_calls, q_calls, outer_calls = [], [], []
    p = _counting(quadratic_pair(), p_calls)
    q = _counting(quadratic_pair(), q_calls)
    x = np.array([0.5, 1.0])
    with run_scope():
        # The same object hits; an equal copy misses.
        y = p.evaluate(x)
        assert p.evaluate(x) is y
        assert np.array_equal(p.evaluate(x.copy()), y)
        assert len(p_calls) == 2
        # Two owners at one point both keep their values.
        y, z = p.evaluate(x), q.evaluate(x)
        assert p.evaluate(x) is y and q.evaluate(x) is z
        assert (len(p_calls), len(q_calls)) == (3, 1)

        # The outer objective moves the memo to another point by evaluating
        # p there.  The outer value, computed at x, must not be found at
        # that other point.
        elsewhere = np.array([3.0, -1.0])

        def objectives(x):
            outer_calls.append(1)
            p.evaluate(elsewhere)
            return -x

        outer = MultiObjectiveProblem("NEG", 2, 2, [0.0, 0.0], objectives, lambda x: -np.eye(2))
        assert np.array_equal(outer.evaluate(x), -x)
        assert np.array_equal(outer.evaluate(elsewhere), -elsewhere)
        assert np.array_equal(outer.evaluate(x), -x)
    assert len(outer_calls) == outer.counters.objective_evals == 3
    assert len(p_calls) == 5
    assert p.counters.objective_evals == 8
    assert q.counters.objective_evals == 2


def test_a_new_points_values_replace_the_last_once_computed():
    # The last point's values stay alive while the new point's first value
    # is computed, so that their arrays are freed after the new ones exist.
    class Value:
        pass

    old = Value()
    last = weakref.ref(old)
    alive = []

    def compute(x):
        alive.append(last() is not None)
        return Value()

    with run_scope() as scope:
        scope.value("owner", np.zeros(2), lambda x: old)
        del old
        scope.value("owner", np.ones(2), compute)
        assert alive == [True]
        assert last() is None


class TestMultitaskForwardPass:
    """A multitask run computes each point's forward pass once, inside an oracle."""

    def _spy(self, monkeypatch):
        # Counts forward passes and objective calls, and checks that every
        # forward pass runs inside multitask.losses or multitask.loss_gradients,
        # the names a tracer times.
        calls = Counter()
        depth = []

        def enter(name):
            original = getattr(multitask, name)

            def traced(*args):
                calls[name] += 1
                depth.append(name)
                try:
                    return original(*args)
                finally:
                    depth.pop()

            monkeypatch.setattr(multitask, name, traced)

        enter("losses")
        enter("loss_gradients")
        forward = multitask._forward

        def counted(*args):
            assert depth
            calls["forward"] += 1
            return forward(*args)

        monkeypatch.setattr(multitask, "_forward", counted)
        return calls

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    def test_descent_computes_one_per_objective_call(self, monkeypatch, kind):
        calls = self._spy(monkeypatch)
        problem = as_problem(generate_dataset(kind, N=400, seed=2))
        rec = run_descent(problem, config=DescentConfig(gradient_budget=30))
        assert rec.gradient_evals == 30
        assert calls["loss_gradients"] == rec.gradient_evals
        # The memo answers each line search's f(x_k) after the first.
        assert calls["losses"] < rec.objective_evals
        assert calls["forward"] == calls["losses"]

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    def test_adagrad_computes_one_per_gradient(self, monkeypatch, kind):
        calls = self._spy(monkeypatch)
        problem = as_problem(generate_dataset(kind, N=400, seed=2))
        rec = run_adagrad(problem, config=AdagradConfig(gradient_budget=30))
        assert calls["forward"] == calls["loss_gradients"] == rec.gradient_evals == 30
        assert calls["losses"] == 0

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    def test_noiseless_wrapper_changes_nothing(self, kind):
        def run(wrap):
            problem = wrap(as_problem(generate_dataset(kind, N=400, seed=2)))
            return _fingerprint(run_descent(problem, config=DescentConfig(gradient_budget=30)))

        assert run(lambda p: wrap_noisy(p, NoiseSpec(0.0))) == run(lambda p: p)


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
