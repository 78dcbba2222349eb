"""Tests for the problem catalog: formulas, gradients, and construction."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import ROW_NAMES, fd_jacobian, fd_relative_error
from mograd import (
    CATALOG,
    EvaluationOverflowError,
    InputError,
    RunStatus,
    SCALAR_PROBLEMS,
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
from mograd.suite import _powers

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


def _lovison3_reference(x):
    values = np.array([x[0] ** 2 + x[1] ** 2, (x[0] - 6.0) ** 2 + (x[1] + 0.3) ** 2])
    jac = np.array([[2.0 * x[0], 2.0 * x[1]], [2.0 * (x[0] - 6.0), 2.0 * (x[1] + 0.3)]])
    return values, jac


def _t2_reference(x):
    values = 0.5 * np.array([(x[0] - 1.0) ** 2 + x[1] ** 2, (x[0] + 1.0) ** 2 + x[1] ** 2])
    jac = np.array([[x[0] - 1.0, x[1]], [x[0] + 1.0, x[1]]])
    return values, jac


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
        mop1, t1, lovison4 = (get_problem(n) for n in ("MOP1", "T1", "Lovison4"))
        others = [
            (get_problem("Lovison3"), _lovison3_reference),
            (get_problem("T2"), _t2_reference),
        ]
        for _ in range(3000):
            # Magnitudes e^-6 .. e^6: the bumps range from 1 down to 0.
            x = rng.normal(size=2) * np.exp(rng.uniform(-6.0, 6.0, size=2))
            assert _bits(mop1.evaluate(x)) == _bits(_mop1_reference(x))
            assert _bits(t1.evaluate(x)) == _bits(_t1_reference(x))
            values, jac = _lovison4_reference(x)
            assert _bits(lovison4.evaluate(x)) == _bits(values)
            assert _bits(lovison4.jacobian(x)) == _bits(jac)
            for p, formulas in others:
                values, jac = formulas(x)
                assert _bits(p.evaluate(x)) == _bits(values)
                assert _bits(p.jacobian(x)) == _bits(jac)

    def test_stacked_jacobians_match_vstack(self, rng):
        brownal, vardim = SCALAR_PROBLEMS["BROWNAL"], SCALAR_PROBLEMS["VARDIM"]
        pair, reg = make_pair(brownal, vardim), make_regularized(vardim)
        for x in _hard_points(rng, 200, 3.0):
            want = np.vstack([brownal.gradient(x), vardim.gradient(x)])
            assert _bits(pair.jacobian(x)) == _bits(want)
            want = np.vstack([vardim.gradient(x), 2.0 * x])
            assert _bits(reg.jacobian(x)) == _bits(want)


class TestRowForms:
    def test_row_oracles_in_the_catalog(self):
        assert sorted(name for name in CATALOG if get_problem(name)._rows) == ROW_NAMES

    def test_rows_are_the_one_point_oracles_bit_for_bit(self):
        # Blocks whose entries span 1e-200 to 1e200 in magnitude, with
        # zeros: rows overflow to inf as the one-point oracle's numpy
        # scalars do, where Python's float ** raises.
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        entry = st.one_of(
            st.just(0.0),
            st.builds(
                lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
                st.sampled_from([-1.0, 1.0]),
                st.floats(1.0, 9.99),
                st.one_of(st.integers(-2, 1), st.integers(-200, 200)),
            ),
        )
        blocks = st.tuples(st.integers(1, 12), st.sampled_from([2, 10])).flatmap(
            lambda shape: hnp.arrays(float, shape, elements=entry)
        )
        pairs = [get_problem(name) for name in ROW_NAMES]
        scalars = [p for p in SCALAR_PROBLEMS.values() if p.rows is not None]
        assert [p.name for p in scalars] == list(SCALAR_PROBLEMS)
        overflowed = []

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(X=blocks)
        # Rows where libm pow and numpy's array ** round apart: in ARWHEAD's
        # x[-1]**2, BROWNAL's (prod - 1)**2, VARDIM's lin**4 and lin**2.
        @hypothesis.example(X=np.array([
            [0.0] * 9 + [1.749212831820396],
            [1.0] * 9 + [1.5500864143512556],
            [
                1.9504106163140822, 0.4623879469064449, 0.9714216230922779,
                1.6504684016313387, 0.4816273114248806, 1.3456436141343375,
                1.4588602292410167, 0.3572932136581122, 1.448188964799058,
                1.4386319466008903,
            ],
            [
                0.18707498536912537, 0.15908433294796964, 0.22885794367652967,
                1.3927527858063777, 0.5711475603094369, 1.980258447189782,
                0.7814864377868103, 0.6478702819437276, 1.632602007345565,
                0.23024467559546502,
            ],
        ]))
        @hypothesis.example(X=np.full((2, 10), 1e200))
        @hypothesis.example(X=np.array([[1e-200] * 10, [-3e77] + [1.0] * 9]))
        # The same for WAYSEA1, CUBE, ROSENBR and ZANGWIL2, one row each.
        @hypothesis.example(X=np.array([
            [0.5257444245291603, 1.7398443767466012],
            [1.156361389125296, -0.7776467826913],
            [0.27036932878824915, 1.698836726555757],
            [2.7635754200057825, 13.397840336729423],
        ]))
        # CUBE's x0**3 overflows to -inf, and to inf.
        @hypothesis.example(X=np.array([[-1e103, 1.0], [1e103, 1.0], [0.0, 0.0]]))
        def check(X):
            with np.errstate(all="ignore"):
                for p in scalars:
                    if p.n != X.shape[1]:
                        continue
                    Y = p.rows(X)
                    assert Y.shape == (len(X),)
                    for x, y in zip(X, Y):
                        assert _bits(y) == _bits(p.value(x.copy()))
                        overflowed.append(np.isinf(y))
                for p in pairs:
                    if p.n != X.shape[1]:
                        continue
                    Y = p._rows(X)
                    assert Y.shape == (len(X), 2)
                    for x, y in zip(X, Y):
                        assert _bits(y) == _bits(p._objectives(x.copy()))

        check()
        assert any(overflowed) and not all(overflowed)

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_powers_are_numpy_scalar_powers(self, p):
        # libm pow entry by entry, with a numpy scalar's overflow: inf, or
        # -inf for an odd power of a negative entry.
        a = np.array([-1e103, 1e103, -1e200, 3.0, -0.1, 0.0, 1.7398443767466012])
        with np.errstate(over="ignore"):
            want = [np.float64(v) ** p for v in a]
        assert _bits(_powers(a, p)) == _bits(want)
        assert math.isinf(want[2]) and (want[2] < 0) == (p % 2 == 1)

    @pytest.mark.parametrize("n", [1, 2, 10, 16, 17, 33])
    def test_vecdot_is_one_dot_a_row(self, n):
        # The row forms' dot rule: np.vecdot of a block with a vector, or
        # with itself, is the 1-d dot of each row, bit for bit.  A matrix
        # product is not (gemv sums in another order).
        rng = np.random.default_rng(n)
        for exponent in range(-150, 151, 10):
            X = rng.normal(size=(40, n)) * 10.0 ** rng.uniform(exponent - 3, exponent + 3, (40, n))
            for v in (rng.normal(size=n) * 10.0**-exponent, np.arange(1.0, n + 1)):
                assert _bits(np.vecdot(X, v)) == _bits([x.dot(v) for x in X])
            assert _bits(np.vecdot(X, X)) == _bits([x.dot(x) for x in X])


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
            # Each entry builds a fresh problem named after itself.
            assert (p.name, p.n, p.m) == (name, n, m)
            assert get_problem(name) is not p
            f = p.evaluate(np.asarray(p.standard_start, dtype=float))
            assert f.shape == (m,)
            assert np.all(np.isfinite(f))

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            get_problem("NOPE")


class TestStarts:
    def test_random_start_deterministic_and_in_box(self):
        p = get_problem("Lovison3")
        x1 = random_start(p, seed=7)
        x2 = random_start(p, seed=7)
        assert np.array_equal(x1, x2)
        assert np.all((x1 >= -2.0) & (x1 <= 2.0))
        assert not np.array_equal(x1, random_start(p, seed=8))

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "0", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be an int >= 0"):
            random_start(get_problem("Lovison3"), seed)

    @pytest.mark.parametrize("name", ["Lovison3", "Lovison4", "MOP1", "T1", "T2"])
    def test_benchmarks_solvable_from_seeded_start(self, name):
        p = get_problem(name)
        rec = run_descent(p, x0=random_start(p, seed=0))
        assert rec.status == RunStatus.CRITICAL
