"""Tests for the two-task classification instances."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import fd_jacobian, fd_relative_error
from mograd import (
    Dataset,
    InputError,
    accuracy,
    as_problem,
    circle_label,
    from_csv,
    generate_dataset,
    loss_gradients,
    losses,
    quadrant_label,
    solve_direction,
    split_params,
    to_csv,
)
from mograd import multitask
from mograd.multitask import _CLIP, _features, _sigmoid
from mograd.problems import run_scope


def _toy(kind="quadrants", points=None):
    if points is None:
        points = [[0.0, 0.0], [1.5, 0.0], [0.0, 1.5], [0.5, 0.5]]
    points = np.array(points)
    labels1 = (
        quadrant_label(points)
        if kind == "quadrants"
        else (points[:, 0] * points[:, 1] >= 0).astype(int)
    )
    return Dataset(
        kind=kind,
        seed=0,
        points=points,
        features=_features(kind, points),
        labels_task1=labels1,
        labels_task2=circle_label(points),
        train_idx=np.arange(len(points)),
        test_idx=np.arange(len(points)),
    )


def _masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _row_major_oracle(ds, split, params):
    """Losses and gradients with one row per sample and labels indexed per call.

    The reference the class-major oracle must match up to rounding.
    """
    idx = ds.train_idx if split == "train" else ds.test_idx
    X = ds.features[idx]
    N, d = X.shape
    w1, w2 = split_params(ds, params)
    labels1, labels2 = ds.labels_task1[idx], ds.labels_task2[idx]

    def binary_ce(p, y):
        p = np.clip(p, _CLIP, 1.0 - _CLIP)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    grads = np.zeros((2, ds.n_params))
    if ds.kind == "quadrants":
        z = X @ w1
        e = np.exp(z - z.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        picked = probs[np.arange(N), labels1 - 1]
        j1 = float(-np.mean(np.log(np.clip(picked, _CLIP, 1.0 - _CLIP))))
        onehot = np.zeros_like(probs)
        onehot[np.arange(N), labels1 - 1] = 1.0
        grads[0, : d * 4] = (X.T @ (probs - onehot)).ravel() / N
    else:
        p1 = _masked_sigmoid(X @ w1)
        j1 = binary_ce(p1, labels1)
        grads[0, :d] = X.T @ (p1 - labels1) / N
    p2 = _masked_sigmoid(X @ w2)
    grads[1, ds.n_params - d :] = X.T @ (p2 - labels2) / N
    return (j1, binary_ce(p2, labels2)), grads


class TestGeometry:
    @pytest.mark.parametrize(
        "point, label",
        [
            ((1.0, 1.0), 1),
            ((-0.5, 0.3), 2),
            ((-1.0, -1.0), 3),
            ((0.5, -2.0), 4),
            ((0.0, 0.0), 1),   # axes count toward the positive side
            ((0.0, -1.0), 4),
            ((-0.1, 0.0), 2),
        ],
    )
    def test_quadrant_label(self, point, label):
        assert quadrant_label(np.array([point]))[0] == label

    @pytest.mark.parametrize(
        "point, label",
        [((0.0, 0.0), 1), ((1.0, 0.0), 0), ((0.5, 0.5), 1), ((0.8, 0.8), 0)],
    )
    def test_circle_label_is_strict(self, point, label):
        assert circle_label(np.array([point]))[0] == label

    def test_circle_fraction_matches_area(self):
        ds = generate_dataset("quadrants", N=100_000, seed=3)
        assert ds.labels_task2.mean() == pytest.approx(math.pi / 16.0, abs=0.01)

    def test_diagonal_labels(self):
        ds = generate_dataset("diagonals", N=1000, seed=0)
        expected = (ds.points[:, 0] * ds.points[:, 1] >= 0).astype(int)
        assert np.array_equal(ds.labels_task1, expected)


class TestDataset:
    def test_split_sizes_and_disjointness(self):
        ds = generate_dataset("quadrants", N=10_000, seed=0)
        assert ds.train_idx.size == 8000
        assert ds.test_idx.size == 2000
        assert np.intersect1d(ds.train_idx, ds.test_idx).size == 0
        union = np.union1d(ds.train_idx, ds.test_idx)
        assert np.array_equal(union, np.arange(10_000))

    def test_deterministic_per_seed(self):
        a = generate_dataset("diagonals", N=100, seed=5)
        b = generate_dataset("diagonals", N=100, seed=5)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.train_idx, b.train_idx)
        c = generate_dataset("diagonals", N=100, seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_shapes(self):
        q = generate_dataset("quadrants", N=100, seed=0)
        assert (q.n_features, q.n_classes, q.n_params) == (5, 4, 25)
        d = generate_dataset("diagonals", N=100, seed=0)
        assert (d.n_features, d.n_classes, d.n_params) == (6, 2, 12)

    def test_compares_and_hashes_by_identity(self):
        a = generate_dataset("quadrants", N=20)
        b = generate_dataset("quadrants", N=20)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2

    def test_bad_inputs(self, tmp_path):
        with pytest.raises(InputError):
            generate_dataset("spiral")
        with pytest.raises(InputError, match="kind must be one of"):
            from_csv(tmp_path / "absent.csv", "hexagons")
        with pytest.raises(InputError):
            generate_dataset("quadrants", N=5)
        with pytest.raises(InputError, match="N must be an int"):
            generate_dataset("quadrants", N=10.5)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be an int >= 0"):
            generate_dataset("quadrants", N=20, seed=seed)

    def test_split_params_shapes(self):
        ds = generate_dataset("quadrants", N=100, seed=0)
        w1, w2 = split_params(ds, np.arange(25, dtype=float))
        assert w1.shape == (5, 4)
        assert w2.shape == (5,)
        assert_allclose(w2, np.arange(20, 25))
        with pytest.raises(InputError):
            split_params(ds, np.zeros(24))


class TestLosses:
    def test_zero_params_give_log_class_counts(self):
        q = generate_dataset("quadrants", N=1000, seed=1)
        j1, j2 = losses(q, "train", np.zeros(25))
        assert j1 == pytest.approx(math.log(4.0), rel=1e-12)
        assert j2 == pytest.approx(math.log(2.0), rel=1e-12)
        d = generate_dataset("diagonals", N=1000, seed=1)
        assert_allclose(losses(d, "train", np.zeros(12)), math.log(2.0), rtol=1e-12)

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    def test_gradients_match_finite_differences(self, kind, rng):
        ds = generate_dataset(kind, N=200, seed=2)
        for _ in range(3):
            theta = rng.normal(scale=0.5, size=ds.n_params)
            analytic = loss_gradients(ds, "train", theta)
            numeric = fd_jacobian(
                lambda t: np.array(losses(ds, "train", t)), theta
            )
            assert fd_relative_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    def test_cross_task_blocks_exactly_zero(self, kind, rng):
        ds = generate_dataset(kind, N=100, seed=0)
        g = loss_gradients(ds, "train", rng.normal(size=ds.n_params))
        d = ds.n_features
        cut = ds.n_params - d
        assert np.array_equal(g[0, cut:], np.zeros(d))
        assert np.array_equal(g[1, :cut], np.zeros(cut))

    def test_direction_norm_bounded_by_single_task_gradients(self, rng):
        ds = generate_dataset("quadrants", N=500, seed=4)
        for _ in range(5):
            g = loss_gradients(ds, "train", rng.normal(size=25))
            sol = solve_direction(g)
            norms = np.sum(g * g, axis=1)
            assert sol.omega <= norms.min() + 1e-12

    def test_unknown_split_rejected(self):
        ds = generate_dataset("quadrants", N=100, seed=0)
        with pytest.raises(InputError):
            losses(ds, "validation", np.zeros(25))

    def test_empty_split_rejected(self):
        ds = dataclasses.replace(_toy(), test_idx=np.array([], dtype=int))
        with pytest.raises(InputError):
            losses(ds, "test", np.zeros(25))


class TestClassMajorOracle:
    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_matches_row_major_formulas(self, kind, split, rng):
        ds = generate_dataset(kind, N=2000, seed=7)
        clamped = False
        for scale in (1e-2, 0.3, 1.0, 5.0, 30.0):
            for _ in range(3):
                theta = rng.normal(scale=scale, size=ds.n_params)
                (r1, r2), rg = _row_major_oracle(ds, split, theta)
                j1, j2 = losses(ds, split, theta)
                assert j1 == pytest.approx(r1, rel=1e-12)
                assert j2 == pytest.approx(r2, rel=1e-12)
                g = loss_gradients(ds, split, theta)
                assert_allclose(g, rg, rtol=1e-12, atol=1e-12 * np.abs(rg).max())
                # A task-2 logit beyond -log(_CLIP) puts its probability
                # in the clamp.
                z = ds.features @ split_params(ds, theta)[1]
                clamped |= np.abs(z).max() > -math.log(_CLIP)
        assert clamped

    def test_sigmoid_bit_identical_to_masked_formula(self, rng):
        z = np.concatenate([
            rng.normal(scale=s, size=1000) for s in (1e-3, 1.0, 30.0, 800.0)
        ] + [np.array([0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 1e308,
                       -1e308, np.inf, -np.inf])])
        assert _sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()

    def test_fields_are_frozen_and_replace_builds_a_fresh_block(self, rng):
        ds = generate_dataset("quadrants", N=500, seed=3)
        theta = rng.normal(size=25)
        before = losses(ds, "train", theta)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.train_idx = ds.train_idx[::3]
        assert losses(ds, "train", theta) == before
        # A replaced dataset starts with no blocks: its split, built fresh.
        thinned = dataclasses.replace(ds, train_idx=ds.train_idx[::3])
        after = losses(thinned, "train", theta)
        assert after != before
        expected = _row_major_oracle(thinned, "train", theta)[0]
        assert after == pytest.approx(expected, rel=1e-12)
        assert losses(ds, "train", theta) == before

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    def test_calls_leave_cached_block_intact(self, kind, rng):
        ds = generate_dataset(kind, N=300, seed=2)
        theta = rng.normal(size=ds.n_params)
        first = (losses(ds, "test", theta), loss_gradients(ds, "test", theta))
        accuracy(ds, "test", theta)
        assert losses(ds, "test", theta) == first[0]
        assert np.array_equal(loss_gradients(ds, "test", theta), first[1])


def _count_forward(monkeypatch):
    """Patch ``multitask._forward`` to append to the returned list per call."""
    calls = []
    forward = multitask._forward

    def counted(*args):
        calls.append(1)
        return forward(*args)

    monkeypatch.setattr(multitask, "_forward", counted)
    return calls


class TestSharedForwardPass:
    """In a run scope, losses and loss_gradients at one point share a forward pass."""

    @pytest.mark.parametrize("kind", ["quadrants", "diagonals"])
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("first", [losses, loss_gradients], ids=["losses", "gradients"])
    def test_in_run_results_equal_public_calls(self, kind, split, first, rng):
        ds = generate_dataset(kind, N=500, seed=4)
        theta = rng.normal(scale=3.0, size=ds.n_params)
        want = {losses: losses(ds, split, theta), loss_gradients: loss_gradients(ds, split, theta)}
        second = loss_gradients if first is losses else losses
        block = multitask._split_block(ds, split)
        with run_scope() as scope:
            got = {first: first(ds, split, theta)}
            shared = scope.value(block, theta, None)
            before = [p.copy() for p in shared]
            got[second] = second(ds, split, theta)
            assert scope.value(block, theta, None) is shared
        assert got[losses] == want[losses]
        assert got[loss_gradients].tobytes() == want[loss_gradients].tobytes()
        for p, copy in zip(shared, before):
            assert p.tobytes() == copy.tobytes()

    def test_quadrant_loss_sums_the_classes_as_the_product_sum(self, rng):
        # losses sums the picked probability row by row; the reference sums
        # the whole (4, N) product along axis 0.  Both must give one float.
        ds = generate_dataset("quadrants", N=2000, seed=5)
        block = ds._train_block
        for scale in (0.1, 1.0, 30.0):
            theta = rng.normal(scale=scale, size=ds.n_params)
            p1, _ = multitask._forward(ds.kind, block.XT, *split_params(ds, theta))
            picked = (p1 * block.target1).sum(axis=0)
            j1 = -np.mean(np.log(np.clip(picked, _CLIP, 1.0 - _CLIP)))
            assert losses(ds, "train", theta)[0] == float(j1)

    def test_another_point_or_split_recomputes(self, monkeypatch, rng):
        ds = generate_dataset("quadrants", N=500, seed=4)
        theta = rng.normal(size=ds.n_params)
        calls = _count_forward(monkeypatch)
        with run_scope():
            losses(ds, "train", theta)
            loss_gradients(ds, "train", theta)
            assert len(calls) == 1
            g = loss_gradients(ds, "train", theta.copy())
            assert len(calls) == 2
            assert g.tobytes() == loss_gradients(ds, "train", theta).tobytes()
            assert len(calls) == 3
            losses(ds, "test", theta)
            assert len(calls) == 4

    def test_public_calls_compute_their_own(self, monkeypatch, rng):
        ds = generate_dataset("diagonals", N=500, seed=4)
        theta = rng.normal(size=ds.n_params)
        calls = _count_forward(monkeypatch)
        before = losses(ds, "train", theta)
        loss_gradients(ds, "train", theta)
        assert len(calls) == 2
        theta[0] += 1.0
        after = losses(ds, "train", theta)
        assert len(calls) == 3
        assert after != before
        assert after == losses(ds, "train", theta.copy())


class TestAccuracy:
    def test_zero_params_predict_first_class(self):
        ds = generate_dataset("quadrants", N=2000, seed=0)
        acc1, acc2, lo = accuracy(ds, "test", np.zeros(25))
        idx = ds.test_idx
        assert acc1 == pytest.approx(np.mean(ds.labels_task1[idx] == 1))
        assert acc2 == pytest.approx(np.mean(ds.labels_task2[idx] == 0))
        assert lo == min(acc1, acc2)

    def test_separable_toy_reaches_perfect_accuracy(self):
        ds = _toy("quadrants")
        params = np.zeros(25)
        w1 = np.zeros((5, 4))
        w1[0, 0] = 1.0  # constant logit favors class 1, the label of all 4 points
        params[:20] = w1.ravel()
        params[20:] = [1.0, 0.0, 0.0, -1.0, -1.0]  # logit 1 - x1^2 - x2^2
        acc1, acc2, lo = accuracy(ds, "train", params)
        assert (acc1, acc2, lo) == (1.0, 1.0, 1.0)

    def test_quadrant_ties_go_to_lowest_class(self):
        # Every point lies in quadrant 2.
        ds = _toy("quadrants", points=((-1.0, 1.0), (-0.5, 0.2), (-1.5, 0.0)))
        assert np.array_equal(ds.labels_task1, [2, 2, 2])
        w1 = np.zeros((5, 4))
        w1[0, 1:] = 1.0  # classes 2, 3 and 4 tie above class 1
        params = np.concatenate([w1.ravel(), np.zeros(5)])
        assert accuracy(ds, "train", params)[0] == 1.0
        w1[0, 0] = 1.0  # now class 1 joins the tie and wins it
        params = np.concatenate([w1.ravel(), np.zeros(5)])
        assert accuracy(ds, "train", params)[0] == 0.0


class TestProblemView:
    def test_as_problem_shapes_and_counters(self):
        ds = generate_dataset("quadrants", N=100, seed=0)
        p = as_problem(ds)
        assert p.name == "multitask-quadrants"
        assert (p.n, p.m) == (25, 2)
        theta = np.zeros(25)
        f = p.evaluate(theta)
        assert_allclose(f, [math.log(4.0), math.log(2.0)], rtol=1e-12)
        g = p.jacobian(theta)
        assert g.shape == (2, 25)
        assert p.counters.objective_evals == 1
        assert p.counters.gradient_evals == 1

    def test_problem_uses_train_split(self):
        ds = generate_dataset("diagonals", N=100, seed=1)
        p = as_problem(ds)
        theta = np.full(12, 0.1)
        assert_allclose(p.evaluate(theta), losses(ds, "train", theta), rtol=1e-15)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset("diagonals", N=50, seed=9)
        path = tmp_path / "points.csv"
        to_csv(ds, path)
        back = from_csv(path, "diagonals", seed=9)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels_task1, ds.labels_task1)
        assert np.array_equal(back.labels_task2, ds.labels_task2)
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.test_idx, ds.test_idx)
        assert np.array_equal(back.features, ds.features)

    @pytest.mark.parametrize(
        "kind, column, value, message",
        [
            ("quadrants", "split", "valid", "unknown split 'valid'"),
            ("quadrants", "label1", "7", "label1 7 outside quadrants classes"),
            ("diagonals", "label1", "2", "label1 2 outside diagonals classes"),
            ("quadrants", "label2", "-1", "label2 -1 is not 0 or 1"),
        ],
    )
    def test_bad_row_rejected(self, tmp_path, kind, column, value, message):
        path = tmp_path / "points.csv"
        to_csv(generate_dataset(kind, N=20, seed=0), path)
        lines = path.read_text().splitlines()
        row = lines[5].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[5] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"line 6: {message}"):
            from_csv(path, kind)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("label1", "1.5", "label1 '1.5' is not an integer"),
            ("label2", "", "label2 '' is not an integer"),
            ("x2", "north", "x2 'north' is not a number"),
        ],
    )
    def test_unparsable_field_rejected(self, tmp_path, column, value, message):
        path = tmp_path / "points.csv"
        to_csv(generate_dataset("quadrants", N=20, seed=0), path)
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"points.csv line 4: {message}"):
            from_csv(path, "quadrants")

    @pytest.mark.parametrize("column", ["x1", "x2", "label1", "label2", "split"])
    def test_missing_column_rejected(self, tmp_path, column):
        path = tmp_path / "points.csv"
        to_csv(generate_dataset("diagonals", N=20, seed=0), path)
        header, *rows = path.read_text().splitlines()
        drop = header.split(",").index(column)
        lines = [
            ",".join(v for j, v in enumerate(line.split(",")) if j != drop)
            for line in [header, *rows]
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=f"points.csv: no '{column}' column"):
            from_csv(path, "diagonals")

    @pytest.mark.parametrize("seed", [True, -3, 1.5])
    def test_bad_seed_rejected_before_the_file_is_read(self, tmp_path, seed):
        with pytest.raises(InputError, match="seed must be an int >= 0"):
            from_csv(tmp_path / "absent.csv", "quadrants", seed=seed)

    def test_header(self, tmp_path):
        ds = generate_dataset("quadrants", N=20, seed=0)
        path = tmp_path / "points.csv"
        to_csv(ds, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,label1,label2,split"
