"""Tests for the problem catalog: formulas, gradients, and construction."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import fd_jacobian, fd_relative_error
from mograd import (
    CATALOG,
    EvaluationOverflowError,
    InputError,
    RunStatus,
    SCALAR_PROBLEMS,
    get_benchmark,
    get_problem,
    list_problems,
    make_pair,
    make_regularized,
    quadratic_pair,
    random_start,
    run_adagrad,
    run_descent,
    solve_direction,
)

ALL_NAMES = sorted(CATALOG)


class TestScalarValues:
    @pytest.mark.parametrize(
        "name, point, expected",
        [
            ("ROSENBR", (1.0, 1.0), 0.0),
            ("ROSENBR", (-1.2, 1.0), 24.2),
            ("CUBE", (1.0, 1.0), 0.0),
            ("WAYSEA1", (1.0, 2.0), 0.0),
            ("ZANGWIL2", (4.0, 9.0), -18.2),
            ("ARWHEAD", (1.0,) * 9 + (0.0,), 0.0),
            ("ARWHEAD", (1.0,) * 10, 27.0),
            ("VARDIM", (1.0,) * 10, 0.0),
            ("BROWNAL", (1.0,) * 10, 0.0),
        ],
    )
    def test_known_values(self, name, point, expected):
        p = SCALAR_PROBLEMS[name]
        assert p.value(np.asarray(point)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "name, point",
        [("ZANGWIL2", (4.0, 9.0)), ("ROSENBR", (1.0, 1.0)), ("VARDIM", (1.0,) * 10)],
    )
    def test_gradient_vanishes_at_minimizer(self, name, point):
        p = SCALAR_PROBLEMS[name]
        assert_allclose(p.gradient(np.asarray(point)), 0.0, atol=1e-12)

    def test_standard_starts(self):
        assert SCALAR_PROBLEMS["ROSENBR"].standard_start == (-1.2, 1.0)
        assert SCALAR_PROBLEMS["ARWHEAD"].n == 10


class TestGradients:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_jacobian_matches_finite_differences(self, name, rng):
        p = get_problem(name)
        lo, hi = getattr(p, "start_box", (-2.0, 2.0))
        for _ in range(20):
            x = rng.uniform(lo, hi, size=p.n)
            analytic = p.jacobian(x)
            numeric = fd_jacobian(p.evaluate, x)
            assert fd_relative_error(analytic, numeric) < 1e-5

    def test_brownal_gradient_exact_at_zero_entries(self):
        p = SCALAR_PROBLEMS["BROWNAL"]
        x = np.ones(10)
        x[3] = 0.0
        numeric = fd_jacobian(lambda y: np.array([p.value(y)]), x)[0]
        assert fd_relative_error(p.gradient(x), numeric) < 1e-6


# The ARWHEAD, VARDIM and BROWNAL formulas as first written (np.sum, a
# fresh np.arange, and one np.prod(np.delete(x, k)) per partial): the
# catalog's faster forms must reproduce them bit for bit, since a last-bit
# change moves the iterates and, through the line search, the pinned
# evaluation counts.


def _arwhead_reference(x):
    head = x[:-1] ** 2 + x[-1] ** 2
    return float(np.sum(head**2 - 4.0 * x[:-1] + 3.0))


def _arwhead_grad_reference(x):
    head = x[:-1] ** 2 + x[-1] ** 2
    g = np.empty_like(x)
    g[:-1] = 4.0 * x[:-1] * head - 4.0
    g[-1] = 4.0 * x[-1] * np.sum(head)
    return g


def _vardim_reference(x):
    n = x.size
    lin = float(np.arange(1, n + 1) @ x) - n * (n + 1) / 2.0
    return float(np.sum((x - 1.0) ** 2)) + lin**2 + lin**4


def _vardim_grad_reference(x):
    n = x.size
    idx = np.arange(1, n + 1, dtype=float)
    lin = float(idx @ x) - n * (n + 1) / 2.0
    return 2.0 * (x - 1.0) + (2.0 * lin + 4.0 * lin**3) * idx


def _brownal_reference(x):
    n = x.size
    lin = x + x.sum() - (n + 1.0)
    prod = float(np.prod(x))
    return float(np.sum(lin[:-1] ** 2)) + (prod - 1.0) ** 2


def _brownal_grad_reference(x):
    n = x.size
    lin = x + x.sum() - (n + 1.0)
    g = 2.0 * (lin[:-1].sum() + lin[:-1])
    g = np.concatenate([g, [2.0 * lin[:-1].sum()]])
    prod = float(np.prod(x))
    partials = np.array([np.prod(np.delete(x, k)) for k in range(n)])
    return g + 2.0 * (prod - 1.0) * partials


def _hard_points(rng, count, log_scale):
    """Points of R^10 with exact zeros and magnitudes e^-s .. e^s, mixed signs."""
    for _ in range(count):
        x = rng.normal(size=10) * np.exp(rng.uniform(-log_scale, log_scale, size=10))
        x[rng.random(10) < 0.15] = 0.0
        yield x


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


# The oracles that took `@` on their point, as first written; `dot` must
# give the same bits.


def _l2_reference(p, x):
    return np.array([p.value(x), float(x @ x)])


def _mop1_reference(x):
    return 0.5 * np.array([x @ x, (x[0] - 2.0) ** 2 + (x[1] - 2.0) ** 2])


def _t1_reference(x):
    return np.array([(x[0] - 2.0) ** 4 + (x[0] - 2.0 * x[1]) ** 2, 0.5 * float(x @ x)])


def _bump_reference(x, c):
    d = x - c
    return np.exp(-float(d @ d))


def _lovison4_reference(x):
    c1, c2 = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    bumps = 4.0 * (_bump_reference(x, c1) + _bump_reference(x, c2))
    db = -8.0 * (_bump_reference(x, c1) * (x - c1) + _bump_reference(x, c2) * (x - c2))
    values = np.array(
        [x[0] ** 2 + x[1] ** 2 + bumps, (x[0] - 6.0) ** 2 + (x[1] + 0.5) ** 2]
    )
    jac = np.array(
        [
            [2.0 * x[0] + db[0], 2.0 * x[1] + db[1]],
            [2.0 * (x[0] - 6.0), 2.0 * (x[1] + 0.5)],
        ]
    )
    return values, jac


class TestBitExactFormulas:
    @pytest.mark.parametrize(
        "name, value, gradient",
        [
            ("ARWHEAD", _arwhead_reference, _arwhead_grad_reference),
            ("VARDIM", _vardim_reference, _vardim_grad_reference),
            ("BROWNAL", _brownal_reference, _brownal_grad_reference),
        ],
    )
    def test_values_and_gradients_match_first_formulas(self, name, value, gradient, rng):
        p = SCALAR_PROBLEMS[name]
        # Scales up to e^3 keep every value finite (the first formulas take
        # lin**4 and the squared product of Python floats, which raise
        # rather than overflow).
        for x in _hard_points(rng, 2000, 3.0):
            assert _bits(p.value(x)) == _bits(value(x))
            assert _bits(p.gradient(x)) == _bits(gradient(x))

    def test_brownal_partials_match_deleted_products(self, rng):
        # The gradient is finite over a far wider range than the value; its
        # partial products are where the masked product replaced np.delete.
        p = SCALAR_PROBLEMS["BROWNAL"]
        for x in _hard_points(rng, 5000, 20.0):
            assert _bits(p.gradient(x)) == _bits(_brownal_grad_reference(x))

    @pytest.mark.parametrize("name", sorted(SCALAR_PROBLEMS))
    def test_regularized_values_match_matmul(self, name, rng):
        p = SCALAR_PROBLEMS[name]
        reg = make_regularized(p)
        for x in _hard_points(rng, 500, 3.0):
            x = x[: p.n]
            assert _bits(reg.evaluate(x)) == _bits(_l2_reference(p, x))

    def test_benchmarks_match_matmul(self, rng):
        mop1, t1, lovison4 = (get_benchmark(n) for n in ("MOP1", "T1", "Lovison4"))
        for _ in range(3000):
            # Magnitudes e^-6 .. e^6: the bumps range from 1 down to 0.
            x = rng.normal(size=2) * np.exp(rng.uniform(-6.0, 6.0, size=2))
            assert _bits(mop1.evaluate(x)) == _bits(_mop1_reference(x))
            assert _bits(t1.evaluate(x)) == _bits(_t1_reference(x))
            values, jac = _lovison4_reference(x)
            assert _bits(lovison4.evaluate(x)) == _bits(values)
            assert _bits(lovison4.jacobian(x)) == _bits(jac)

    def test_stacked_jacobians_match_vstack(self, rng):
        brownal, vardim = SCALAR_PROBLEMS["BROWNAL"], SCALAR_PROBLEMS["VARDIM"]
        pair, reg = make_pair(brownal, vardim), make_regularized(vardim)
        for x in _hard_points(rng, 200, 3.0):
            want = np.vstack([brownal.gradient(x), vardim.gradient(x)])
            assert _bits(pair.jacobian(x)) == _bits(want)
            want = np.vstack([vardim.gradient(x), 2.0 * x])
            assert _bits(reg.jacobian(x)) == _bits(want)


class TestOverflow:
    # Finite points where lin**4 (VARDIM) or the squared product (BROWNAL)
    # leaves the float range: the oracle must report it, not raise
    # OverflowError.
    @pytest.mark.parametrize(
        "name, scale",
        [("ARWHEAD-VARDIM", 1e110), ("BROWNAL-VARDIM", 1e110), ("BROWNAL-L2", 1e20)],
    )
    @pytest.mark.parametrize("oracle", ["evaluate", "jacobian"])
    def test_oracles_raise_typed(self, name, scale, oracle):
        p = get_problem(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationOverflowError):
                getattr(p, oracle)(np.full(10, scale))

    @pytest.mark.parametrize("run", [run_adagrad, run_descent])
    def test_drivers_end_failed(self, run):
        p = get_problem("ARWHEAD-VARDIM")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = run(p, x0=np.full(10, 1e110))
        assert rec.status == RunStatus.FAILED
        assert "gradient entry (0, 0) is non-finite" in rec.failure_reason


class TestConstruction:
    def test_regularized_name_and_shape(self):
        p = make_regularized(SCALAR_PROBLEMS["ROSENBR"])
        assert p.name == "ROSENBR-L2"
        assert (p.n, p.m) == (2, 2)
        f = p.evaluate(np.array([-1.2, 1.0]))
        assert f[0] == pytest.approx(24.2)
        assert f[1] == pytest.approx(1.44 + 1.0)

    def test_pair_start_is_average(self):
        p = get_problem("ZANGWIL2-ROSENBR")
        assert_allclose(p.standard_start, [0.9, 4.5])

    def test_pair_dimension_mismatch(self):
        with pytest.raises(InputError):
            make_pair(SCALAR_PROBLEMS["ROSENBR"], SCALAR_PROBLEMS["ARWHEAD"])

    def test_pair_order_does_not_change_direction_norm(self, rng):
        ab = make_pair(SCALAR_PROBLEMS["ROSENBR"], SCALAR_PROBLEMS["CUBE"])
        ba = make_pair(SCALAR_PROBLEMS["CUBE"], SCALAR_PROBLEMS["ROSENBR"])
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, size=2)
            s1 = solve_direction(ab.jacobian(x))
            s2 = solve_direction(ba.jacobian(x))
            assert s1.omega == pytest.approx(s2.omega, rel=1e-9, abs=1e-12)
            assert s1.weights[0] == pytest.approx(s2.weights[1], abs=1e-9)

    def test_quadratic_pair_metadata(self):
        p = quadratic_pair(a=(1.0, 0.0), b=(-1.0, 0.0))
        assert p.l_max == 1.0
        assert p.phi_low == pytest.approx(0.5)
        assert_allclose(p.evaluate(np.array([1.0, 0.0])), [0.0, 2.0])
        a, b = p.segment
        assert_allclose(p.jacobian(a)[0], 0.0)
        assert_allclose(p.jacobian(b)[1], 0.0)


class TestCatalog:
    def test_size_and_membership(self):
        assert len(CATALOG) == 21
        for name in ("MOP1", "ROSENBR-CUBE", "BROWNAL-L2", "Lovison4"):
            assert name in CATALOG

    def test_listing_sorted_and_typed(self):
        rows = list_problems()
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert all(r[2] == 2 for r in rows)
        origins = {r[3] for r in rows}
        assert origins == {"benchmark", "regularized", "paired"}

    def test_every_entry_constructs_and_evaluates(self):
        for name, n, m, _ in list_problems():
            p = get_problem(name)
            assert (p.n, p.m) == (n, m)
            f = p.evaluate(np.asarray(p.standard_start, dtype=float))
            assert f.shape == (m,)
            assert np.all(np.isfinite(f))

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            get_problem("NOPE")
        with pytest.raises(KeyError):
            get_benchmark("Lovison5")


class TestStarts:
    def test_random_start_deterministic_and_in_box(self):
        p = get_benchmark("Lovison3")
        x1 = random_start(p, seed=7)
        x2 = random_start(p, seed=7)
        assert np.array_equal(x1, x2)
        assert np.all((x1 >= -2.0) & (x1 <= 2.0))
        assert not np.array_equal(x1, random_start(p, seed=8))

    @pytest.mark.parametrize("name", ["Lovison3", "Lovison4", "MOP1", "T1", "T2"])
    def test_benchmarks_solvable_from_seeded_start(self, name):
        p = get_benchmark(name)
        rec = run_descent(p, x0=random_start(p, seed=0))
        assert rec.status == RunStatus.CRITICAL
