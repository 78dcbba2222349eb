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
by the Task 2 weight vector, a layout that only :func:`split_params`
states; the all-zero vector is the standard start.

The oracles (:func:`losses`, :func:`loss_gradients`, :func:`accuracy`)
work on a per-split block built on first use and kept on the frozen
:class:`Dataset`: the split's features stored class-major as a contiguous
d x N array, with float targets (a 4 x N one-hot for the quadrant classes,
0/1 vectors for binary tasks).  Logits are then class-major too, so every
reduction (softmax max and sum, picking the labelled class) runs along
the long sample axis, and no call copies the split out of the features.
A changed dataset is a new one (``dataclasses.replace``), with no blocks;
writing into its arrays in place is not detected.

Inside a solver run (a :class:`~mograd.problems.run_scope`), a point's
value and gradient share one forward pass, the logits and the softmax or
sigmoid of both tasks: whichever of :func:`losses` and
:func:`loss_gradients` comes first at a ``params`` array stores it in the
scope's memo of that point, under the split's block, and the other reads
it there.  A public call, outside any run, always computes its own.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .problems import (
    InputError,
    MultiObjectiveProblem,
    _check_array,
    _check_seed,
    _in_run,
    _is_int,
    _public,
)

KINDS = ("quadrants", "diagonals")

# Cross-entropy probability clamp.
_CLIP = 1e-12


# eq=False: the array fields have no single truth value, so datasets
# compare and hash by identity.
@dataclass(frozen=True, eq=False)
class Dataset:
    kind: str
    seed: int
    points: np.ndarray        # N x 2
    features: np.ndarray      # N x d
    labels_task1: np.ndarray  # quadrant class 1..4, or binary 0/1
    labels_task2: np.ndarray  # binary 0/1
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_params(self):
        d = self.n_features
        return d * 4 + d if self.kind == "quadrants" else 2 * d

    # Each split's block is built on first use; cached_property writes to
    # the instance __dict__, which a frozen dataclass leaves open.
    @functools.cached_property
    def _train_block(self):
        return _Block.of(self, self.train_idx)

    @functools.cached_property
    def _test_block(self):
        return _Block.of(self, self.test_idx)


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


def _check_kind(kind):
    """Raise :class:`InputError` unless ``kind`` is one of ``KINDS``."""
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")


def _dataset(kind, seed, points, labels1, labels2, train_idx, test_idx):
    """The dataset of ``points``, their labels and split as arrays, and ``kind``'s features."""
    points = np.asarray(points, dtype=float)
    ints = (np.asarray(a, dtype=int) for a in (labels1, labels2, train_idx, test_idx))
    return Dataset(kind, seed, points, _features(kind, points), *ints)


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
    _check_kind(kind)
    if not (_is_int(N) and N >= 10):
        raise InputError(f"N must be an int >= 10, got {N!r}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    points = rng.uniform(-2.0, 2.0, size=(N, 2))
    perm = rng.permutation(N)
    n_train = int(round(0.8 * N))
    if kind == "quadrants":
        labels1 = quadrant_label(points)
    else:
        labels1 = (points[:, 0] * points[:, 1] >= 0).astype(int)
    return _dataset(
        kind, seed, points, labels1, circle_label(points),
        np.sort(perm[:n_train]), np.sort(perm[n_train:]),
    )


def _split_args(dataset, params):
    """A public :func:`split_params` call's arguments: ``params`` finite, of shape (n_params,)."""
    return dataset, _check_array(params, (dataset.n_params,), "params")


def _oracle_args(dataset, split, params):
    """A public :func:`losses` or :func:`loss_gradients` call's arguments (:func:`_split_args`)."""
    return dataset, split, _split_args(dataset, params)[1]


@_public(_split_args)
def split_params(dataset, params):
    """Task-1 and task-2 weights, views of ``params``: the layout's one owner.

    A public call checks ``params`` (:func:`_split_args`), and a float64
    array passes it unchanged, so the weights are views of it.
    """
    d = dataset.n_features
    if dataset.kind == "quadrants":
        return params[: d * 4].reshape(d, 4), params[d * 4 :]
    return params[:d], params[d:]


# eq=False: a block hashes by identity, as a key of the run scope's memo.
@dataclass(eq=False)
class _Block:
    """One split, class-major, with the targets of both tasks."""

    XT: np.ndarray         # d x N features, contiguous
    labels1: np.ndarray    # N task-1 labels, as in the dataset
    target1: np.ndarray    # 4 x N one-hot (quadrants) or N floats 0/1
    target2: np.ndarray    # N floats 0/1

    @classmethod
    def of(cls, dataset, idx):
        """The block of the dataset's rows ``idx``; an empty split is an error."""
        if idx.size == 0:
            raise InputError("empty split")
        labels1 = dataset.labels_task1[idx]
        if dataset.kind == "quadrants":
            target1 = (np.arange(1, 5)[:, None] == labels1).astype(float)
        else:
            target1 = labels1.astype(float)
        return cls(
            np.ascontiguousarray(dataset.features[idx].T),
            labels1,
            target1,
            dataset.labels_task2[idx].astype(float),
        )


def _split_block(dataset, split):
    """The split's :class:`_Block`, built on its first use by ``dataset``."""
    if split == "train":
        return dataset._train_block
    if split == "test":
        return dataset._test_block
    raise InputError(f"split must be 'train' or 'test', got {split!r}")


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

    Leaves p unchanged.  For y in {0, 1}, y*log(p) + (1-y)*log(1-p) is
    exactly the log of |p - (1 - y)|, the probability given to the target.
    """
    q = np.clip(p, _CLIP, 1.0 - _CLIP)
    q -= 1.0 - y
    return _mean_nll(np.abs(q, out=q))


def _forward(kind, XT, w1, w2):
    """Class-major probabilities of both tasks at the features ``XT``.

    Task 1 gets the (4, N) softmax (quadrants) or an N-vector sigmoid,
    task 2 an N-vector sigmoid.
    """
    p1 = _softmax(w1.T @ XT) if kind == "quadrants" else _sigmoid(w1 @ XT)
    return p1, _sigmoid(w2 @ XT)


def _probabilities(dataset, split, params):
    """The split's block and the forward pass at ``params``, shared in a run.

    Inside a :class:`~mograd.problems.run_scope`, the pass is stored in the
    scope's memo at the ``params`` object (``is``, not ``==``) under the
    block, so :func:`losses` and :func:`loss_gradients` at one point
    compute it once; a public call's scope keeps nothing, so it computes
    its own.  Neither consumer writes into the probabilities.
    """
    block = _split_block(dataset, split)

    def forward(params):
        return _forward(dataset.kind, block.XT, *split_params(dataset, params))

    return block, _in_run().value(block, params, forward)


@_public(_oracle_args)
def losses(dataset, split, params):
    """Mean cross-entropies (J1, J2) of the two tasks on one split."""
    block, (p1, p2) = _probabilities(dataset, split, params)
    if dataset.kind == "quadrants":
        # The labelled class's probability, summed over the classes row by
        # row as sum(axis=0) would, without a (4, N) product in memory.
        t = block.target1
        picked = p1[0] * t[0]
        for k in range(1, 4):
            picked += p1[k] * t[k]
        j1 = _mean_nll(np.clip(picked, _CLIP, 1.0 - _CLIP, out=picked))
    else:
        j1 = _binary_ce(p1, block.target1)
    return j1, _binary_ce(p2, block.target2)


@_public(_oracle_args)
def loss_gradients(dataset, split, params):
    """Analytic gradient rows, shape (2, P); cross-task blocks are zero."""
    block, (p1, p2) = _probabilities(dataset, split, params)
    XT = block.XT
    N = XT.shape[1]
    out = np.zeros((2, dataset.n_params))
    split_params(dataset, out[1])[1][...] = XT @ (p2 - block.target2) / N
    # Freed before the task-1 residual is allocated.  Outside a run nothing
    # else holds p2, and a call that peaks above about two (4, N) arrays
    # makes the C allocator hand the heap back after every call, which the
    # next call then page-faults in again.
    del p2
    r = p1 - block.target1
    # r.T of a binary task's N-vector residual is the residual itself.
    split_params(dataset, out[0])[0][...] = XT @ r.T / N
    return out


def accuracy(dataset, split, params):
    """(task-1 accuracy, task-2 accuracy, their minimum) on one split.

    Task 1 predicts the argmax class (ties to the lowest class), binary
    tasks predict 1 only on strictly positive logits, matching the
    two-class argmax convention.  ``params`` are checked as in a public
    :func:`losses` call.
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

    Raises :class:`InputError` for a bad seed, naming a missing column, or
    naming the line of a row whose split is not ``train`` or ``test``, whose
    label is not one of its task's classes, or whose coordinate is not a number.
    """
    _check_kind(kind)
    _check_seed(seed)
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
    return _dataset(kind, seed, points, labels1, labels2, splits["train"], splits["test"])
