"""Synthetic two-task classification instances.

Points are drawn uniformly in the square [-2, 2]^2.  Two example kinds
are provided, each defining two tasks over a shared feature vector:

* ``quadrants``: Task 1 assigns the quadrant (classes 1..4, softmax with
  categorical cross-entropy), Task 2 flags membership in the unit circle
  (logistic with binary cross-entropy).  Features [1, x1, x2, x1^2, x2^2].
* ``diagonals``: Task 1 flags the main-diagonal quadrant pair
  (x1*x2 >= 0), Task 2 the unit circle; both binary cross-entropy.
  Features [1, x1, x2, x1*x2, x1^2, x2^2].

The two losses share a parameter vector but touch disjoint blocks, so
the training problem is a clean bi-objective instance with block-sparse
gradients.  Parameters flatten as the Task 1 block (row-major) followed
by the Task 2 weight vector; the all-zero vector is the standard start.

The oracles (:func:`losses`, :func:`loss_gradients`, :func:`accuracy`)
work on a per-split block built on first use and cached on the
:class:`Dataset`: the split's features stored class-major as a contiguous
d x N array, with float targets (a 4 x N one-hot for the quadrant classes,
0/1 vectors for binary tasks).  Logits are then class-major too, so every
reduction (softmax max and sum, picking the labelled class) runs along
the long sample axis, and no call copies the split out of the features.
A cached block is checked by identity against the split's index array,
the features and the labels, so rebinding any of them rebuilds it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .problems import InputError, MultiObjectiveProblem

KINDS = ("quadrants", "diagonals")

# Cross-entropy probability clamp.
_CLIP = 1e-12


@dataclass
class Dataset:
    kind: str
    seed: int
    points: np.ndarray        # N x 2
    features: np.ndarray      # N x d
    labels_task1: np.ndarray  # quadrant class 1..4, or binary 0/1
    labels_task2: np.ndarray  # binary 0/1
    train_idx: np.ndarray
    test_idx: np.ndarray
    # split -> cached _Block; see _split_block.
    _blocks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_classes(self):
        return 4 if self.kind == "quadrants" else 2

    @property
    def n_params(self):
        d = self.n_features
        return d * 4 + d if self.kind == "quadrants" else 2 * d


def quadrant_label(points):
    """Quadrants 1..4 counterclockwise from (+,+); x>=0 counts as positive."""
    right = points[:, 0] >= 0
    top = points[:, 1] >= 0
    labels = np.empty(len(points), dtype=int)
    labels[right & top] = 1
    labels[~right & top] = 2
    labels[~right & ~top] = 3
    labels[right & ~top] = 4
    return labels


def circle_label(points):
    """1 inside the open unit circle, 0 outside."""
    return (np.einsum("ij,ij->i", points, points) < 1.0).astype(int)


def _features(kind, points):
    x1, x2 = points[:, 0], points[:, 1]
    ones = np.ones(len(points))
    if kind == "quadrants":
        return np.column_stack([ones, x1, x2, x1**2, x2**2])
    return np.column_stack([ones, x1, x2, x1 * x2, x1**2, x2**2])


def generate_dataset(kind, N=10_000, seed=0):
    """Sample points, label them geometrically, and split 80/20.

    Deterministic from the seed: the generator first draws the N points,
    then the permutation defining the split.
    """
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    if N < 10:
        raise InputError(f"N must be at least 10, got {N}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(N, 2))
    perm = rng.permutation(N)
    n_train = int(round(0.8 * N))
    if kind == "quadrants":
        labels1 = quadrant_label(points)
    else:
        labels1 = (points[:, 0] * points[:, 1] >= 0).astype(int)
    return Dataset(
        kind=kind,
        seed=seed,
        points=points,
        features=_features(kind, points),
        labels_task1=labels1,
        labels_task2=circle_label(points),
        train_idx=np.sort(perm[:n_train]),
        test_idx=np.sort(perm[n_train:]),
    )


def split_params(dataset, params):
    """Unflatten the parameter vector into (task-1 weights, task-2 weights)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (dataset.n_params,):
        raise InputError(
            f"params have shape {params.shape}, expected ({dataset.n_params},)"
        )
    d = dataset.n_features
    if dataset.kind == "quadrants":
        return params[: d * 4].reshape(d, 4), params[d * 4 :]
    return params[:d], params[d:]


def _split_indices(dataset, split):
    if split == "train":
        return dataset.train_idx
    if split == "test":
        return dataset.test_idx
    raise InputError(f"split must be 'train' or 'test', got {split!r}")


@dataclass
class _Block:
    """One split, class-major, with the targets of both tasks."""

    source: tuple          # (idx, features, labels_task1, labels_task2)
    XT: np.ndarray         # d x N features, contiguous
    labels1: np.ndarray    # N task-1 labels, as in the dataset
    target1: np.ndarray    # 4 x N one-hot (quadrants) or N floats 0/1
    target2: np.ndarray    # N floats 0/1


def _split_block(dataset, split):
    """The split's :class:`_Block`, built on first use and cached on ``dataset``.

    The cached block is reused only while the split's index array, the
    features and both label arrays are the very objects it was built from,
    so rebinding any of them (``dataset.test_idx = ...``) rebuilds it.
    Writing into those arrays in place is not detected.
    """
    idx = _split_indices(dataset, split)
    source = (idx, dataset.features, dataset.labels_task1, dataset.labels_task2)
    block = dataset._blocks.get(split)
    if block is not None and all(a is b for a, b in zip(block.source, source)):
        return block
    if idx.size == 0:
        raise InputError("empty split")
    labels1 = dataset.labels_task1[idx]
    if dataset.kind == "quadrants":
        target1 = (np.arange(1, 5)[:, None] == labels1).astype(float)
    else:
        target1 = labels1.astype(float)
    block = _Block(
        source,
        np.ascontiguousarray(dataset.features[idx].T),
        labels1,
        target1,
        dataset.labels_task2[idx].astype(float),
    )
    dataset._blocks[split] = block
    return block


def _softmax(L):
    """Softmax over the classes of class-major logits (classes x N), in place."""
    L -= L.max(axis=0)
    np.exp(L, out=L)
    L /= L.sum(axis=0)
    return L


def _sigmoid(z):
    """Logistic function, evaluated without overflow for either sign of z."""
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _mean_nll(q):
    """-mean(log(q)); overwrites q."""
    return float(-np.mean(np.log(q, out=q)))


def _binary_ce(p, y):
    """Mean binary cross-entropy of probabilities p for 0/1 targets y.

    Overwrites p.  For y in {0, 1}, y*log(p) + (1-y)*log(1-p) is exactly
    the log of |p - (1 - y)|, the probability given to the target.
    """
    np.clip(p, _CLIP, 1.0 - _CLIP, out=p)
    p -= 1.0 - y
    return _mean_nll(np.abs(p, out=p))


def losses(dataset, split, params):
    """Mean cross-entropies (J1, J2) of the two tasks on one split."""
    block = _split_block(dataset, split)
    w1, w2 = split_params(dataset, params)
    if dataset.kind == "quadrants":
        probs = _softmax(w1.T @ block.XT)
        probs *= block.target1
        picked = probs.sum(axis=0)
        j1 = _mean_nll(np.clip(picked, _CLIP, 1.0 - _CLIP, out=picked))
    else:
        j1 = _binary_ce(_sigmoid(w1 @ block.XT), block.target1)
    j2 = _binary_ce(_sigmoid(w2 @ block.XT), block.target2)
    return j1, j2


def loss_gradients(dataset, split, params):
    """Analytic gradient rows, shape (2, P); cross-task blocks are zero."""
    block = _split_block(dataset, split)
    XT = block.XT
    d, N = XT.shape
    w1, w2 = split_params(dataset, params)
    out = np.zeros((2, dataset.n_params))
    if dataset.kind == "quadrants":
        r = _softmax(w1.T @ XT)
        r -= block.target1
        out[0, : d * 4] = (XT @ r.T).ravel() / N
    else:
        r = _sigmoid(w1 @ XT)
        r -= block.target1
        out[0, :d] = XT @ r / N
    r = _sigmoid(w2 @ XT)
    r -= block.target2
    out[1, dataset.n_params - d :] = XT @ r / N
    return out


def accuracy(dataset, split, params):
    """(task-1 accuracy, task-2 accuracy, their minimum) on one split.

    Task 1 predicts the argmax class (ties to the lowest class), binary
    tasks predict 1 only on strictly positive logits, matching the
    two-class argmax convention.
    """
    block = _split_block(dataset, split)
    w1, w2 = split_params(dataset, params)
    if dataset.kind == "quadrants":
        # An argmax along the last axis runs in place; along the first it
        # copies, so this one product stays sample-major.
        pred1 = np.argmax(block.XT.T @ w1, axis=1) + 1
    else:
        pred1 = w1 @ block.XT > 0
    acc1 = float(np.mean(pred1 == block.labels1))
    acc2 = float(np.mean((w2 @ block.XT > 0) == block.target2))
    return acc1, acc2, min(acc1, acc2)


def as_problem(dataset):
    """The training task as a bi-objective problem over the flat parameters.

    Objectives and gradients are computed on the train split; evaluation
    counters behave exactly as for any other problem, so the
    objective-function-free property of a solver is observable here too.
    """
    name = f"multitask-{dataset.kind}"

    def objectives(theta):
        return np.array(losses(dataset, "train", theta))

    def jac(theta):
        return loss_gradients(dataset, "train", theta)

    return MultiObjectiveProblem(
        name, dataset.n_params, 2, np.zeros(dataset.n_params), objectives, jac
    )


_CSV_COLUMNS = ("x1", "x2", "label1", "label2", "split")


def to_csv(dataset, path):
    """Write points, labels, and split membership for inspection."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        membership = np.full(len(dataset.points), "test", dtype=object)
        membership[dataset.train_idx] = "train"
        for (x1, x2), l1, l2, s in zip(
            dataset.points, dataset.labels_task1, dataset.labels_task2, membership
        ):
            writer.writerow([repr(float(x1)), repr(float(x2)), l1, l2, s])


def _csv_field(row, column, parse, where):
    """``parse(row[column])``, or :class:`InputError` naming ``where``."""
    try:
        return parse(row[column])
    except (TypeError, ValueError):
        kind = "an integer" if parse is int else "a number"
        raise InputError(f"{where}: {column} {row[column]!r} is not {kind}") from None


def from_csv(path, kind, seed=0):
    """Rebuild a dataset from :func:`to_csv` output; features are recomputed.

    Raises :class:`InputError` naming a missing column, or the line of a
    row whose split is not ``train`` or ``test``, whose label is not an
    integer in its task's classes, or whose coordinate is not a number.
    """
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")
    classes1 = range(1, 5) if kind == "quadrants" else range(2)
    points, labels1, labels2 = [], [], []
    splits = {"train": [], "test": []}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for column in _CSV_COLUMNS:
            if column not in (reader.fieldnames or ()):
                raise InputError(f"{path}: no {column!r} column")
        for i, row in enumerate(reader):
            where = f"{path} line {i + 2}"
            if row["split"] not in splits:
                raise InputError(f"{where}: unknown split {row['split']!r}")
            label1 = _csv_field(row, "label1", int, where)
            label2 = _csv_field(row, "label2", int, where)
            if label1 not in classes1:
                raise InputError(f"{where}: label1 {label1} outside {kind} classes")
            if label2 not in range(2):
                raise InputError(f"{where}: label2 {label2} is not 0 or 1")
            x1 = _csv_field(row, "x1", float, where)
            x2 = _csv_field(row, "x2", float, where)
            points.append((x1, x2))
            labels1.append(label1)
            labels2.append(label2)
            splits[row["split"]].append(i)
    points = np.asarray(points)
    return Dataset(
        kind=kind,
        seed=seed,
        points=points,
        features=_features(kind, points),
        labels_task1=np.asarray(labels1, dtype=int),
        labels_task2=np.asarray(labels2, dtype=int),
        train_idx=np.asarray(splits["train"], dtype=int),
        test_idx=np.asarray(splits["test"], dtype=int),
    )
