"""Shared numerical oracles for the test suite."""

import os
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# The catalog instances with a row oracle: every two-part instance, since
# every part has a row form.
ROW_NAMES = [
    "ARWHEAD-L2", "ARWHEAD-VARDIM", "BROWNAL-ARWHEAD", "BROWNAL-L2",
    "BROWNAL-VARDIM", "CUBE-L2", "ROSENBR-CUBE", "ROSENBR-L2", "ROSENBR-WAYSEA1",
    "VARDIM-L2", "WAYSEA1-CUBE", "WAYSEA1-L2", "ZANGWIL2-CUBE", "ZANGWIL2-L2",
    "ZANGWIL2-ROSENBR", "ZANGWIL2-WAYSEA1",
]


def src_env():
    """The environment with ``src`` first on PYTHONPATH, for a child interpreter."""
    path = [SRC, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


def fd_jacobian(fn, x, h=1e-6):
    """Central finite-difference Jacobian of a vector-valued function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h))
    return np.column_stack(cols)


def fd_relative_error(analytic, numeric):
    """Worst entrywise error scaled by max(1, |analytic|)."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / scale))


def segment_distance(x, a, b):
    """Distance from x to the segment [a, b]."""
    x, a, b = (np.asarray(v, dtype=float) for v in (x, a, b))
    d = b - a
    t = float(np.clip((x - a) @ d / (d @ d), 0.0, 1.0))
    return float(np.linalg.norm(x - (a + t * d)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
