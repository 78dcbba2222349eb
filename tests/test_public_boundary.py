"""The public boundary: one rule for every array a public call takes.

Each public array argument goes through ``problems._check_array``: finite
float64 of the expected shape, or an :class:`InputError` that names the
input and says it "is not real floats", "has shape S, expected T" or
"contains non-finite entries".  A function that a solver run also calls
(``problems._public``) checks only outside a run; inside one it takes its
arguments as the run made them.
"""

import re
import warnings

import numpy as np
import pytest

from mograd import (
    AdagradConfig,
    DescentConfig,
    InputError,
    MultiObjectiveProblem,
    NoiseSpec,
    accuracy,
    adagrad,
    armijo_backtrack,
    adagrad_step,
    brute_force_min_norm,
    descent,
    generate_dataset,
    harness,
    kkt_residual,
    loss_gradients,
    losses,
    min_norm_element,
    min_norm_two,
    multitask,
    performance_profile,
    problems,
    quadratic_pair,
    run_adagrad,
    run_descent,
    solve_direction,
    split_params,
    subproblem,
    suite,
    wrap_noisy,
)
from mograd.problems import run_scope

G = np.eye(2)
DATA = generate_dataset("diagonals", N=10)  # 12 parameters
PARAMS = np.zeros(12)
X = np.array([0.0, 1.0])


def _constant():
    """A problem whose oracles ignore the point: zero values, zero gradients."""
    return MultiObjectiveProblem(
        "CONST", 2, 2, [0.0, 0.0], lambda x: np.zeros(2), lambda x: np.zeros((2, 2))
    )


def _noisy():
    return wrap_noisy(quadratic_pair(), NoiseSpec(rho=0.05, seed=0))


# Entry point -> (a call of it on one array argument, a good value of that
# argument, a value of the wrong shape, the name the message gives it).
ENTRIES = {
    "evaluate": (lambda v: quadratic_pair().evaluate(v), X, np.zeros(3), "point"),
    "jacobian": (lambda v: quadratic_pair().jacobian(v), X, np.zeros(3), "point"),
    "noisy evaluate": (lambda v: _noisy().evaluate(v), X, np.zeros(3), "point"),
    "noisy jacobian": (lambda v: _noisy().jacobian(v), X, np.zeros(3), "point"),
    "run_adagrad x0": (lambda v: run_adagrad(quadratic_pair(), v), X, np.zeros(3), "point"),
    "run_descent x0": (lambda v: run_descent(quadratic_pair(), v), X, np.zeros(3), "point"),
    "armijo_backtrack x": (
        lambda v: armijo_backtrack(quadratic_pair(), v, X, G, 0.1), X, np.zeros(3), "point"
    ),
    "armijo_backtrack g_s": (
        lambda v: armijo_backtrack(quadratic_pair(), X, v, G, 0.1), X, np.ones(3), "g_s"
    ),
    "armijo_backtrack grads": (
        lambda v: armijo_backtrack(quadratic_pair(), X, X, v, 0.1), G, np.ones((3, 2)), "grads"
    ),
    "adagrad_step x": (lambda v: adagrad_step(v, 1.0, X), X, np.zeros((1, 2)), "x"),
    "adagrad_step g_s": (lambda v: adagrad_step(X, 1.0, v), X, np.ones(3), "g_s"),
    "solve_direction": (solve_direction, G, np.ones(3), "gradient matrix"),
    "min_norm_element": (min_norm_element, G, np.ones(3), "gradient matrix"),
    "brute_force_min_norm": (brute_force_min_norm, G, np.ones(3), "gradient matrix"),
    "min_norm_two g1": (lambda v: min_norm_two(v, X), X, np.ones((2, 2)), "g1"),
    "min_norm_two g2": (lambda v: min_norm_two(X, v), X, np.ones(3), "g2"),
    "kkt_residual G": (lambda v: kkt_residual(v, [0.5, 0.5]), G, np.ones(3), "gradient matrix"),
    "kkt_residual weights": (lambda v: kkt_residual(G, v), [0.5, 0.5], np.ones(3), "weights"),
    "losses": (lambda v: losses(DATA, "test", v), PARAMS, np.zeros(13), "params"),
    "loss_gradients": (lambda v: loss_gradients(DATA, "test", v), PARAMS, np.zeros(13), "params"),
    "accuracy": (lambda v: accuracy(DATA, "test", v), PARAMS, np.zeros(13), "params"),
    "split_params": (lambda v: split_params(DATA, v), PARAMS, np.zeros(13), "params"),
    "standard_start": (
        lambda v: MultiObjectiveProblem("P", 2, 2, v, np.sin, np.diag), X, np.zeros(3),
        "standard_start",
    ),
    "quadratic_pair a": (lambda v: quadratic_pair(v, X), X, np.zeros((2, 2)), "center a"),
    "quadratic_pair b": (lambda v: quadratic_pair(X, v), X, np.zeros(3), "center b"),
    "tau_grid": (
        lambda v: performance_profile({("p", "s"): 1.0}, v), X, [[0.0, 1.0]], "tau_grid"
    ),
}


# Each kind of bad value of an argument, from its good and wrong-shaped
# values -> (the value, what the message says of it).
BAD = {
    "complex array": lambda good, wrong: (
        np.asarray(good, dtype=float) + 1j, "is not real floats: complex values"
    ),
    "complex list": lambda good, wrong: (
        (np.asarray(good, dtype=float) + 1j).tolist(), "is not real floats: complex values"
    ),
    "ragged list": lambda good, wrong: ([[1.0, 2.0], [3.0]], "is not real floats"),
    "word": lambda good, wrong: ("two", "is not real floats"),
    "wrong shape": lambda good, wrong: (wrong, f"has shape {np.shape(wrong)}, expected"),
    "non-finite": lambda good, wrong: (_with_nan(good), "contains non-finite entries"),
}


def _with_nan(good):
    """A float copy of ``good`` with its first entry NaN."""
    bad = np.array(good, dtype=float)
    bad.flat[0] = np.nan
    return bad


@pytest.mark.parametrize("kind", BAD)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_bad_array_is_an_input_error_naming_it(entry, kind):
    call, good, wrong, name = ENTRIES[entry]
    value, message = BAD[kind](good, wrong)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning, nor any other
        call(good)
        with pytest.raises(InputError, match=re.escape(f"{name} {message}")):
            call(value)


def test_float64_params_pass_unchanged_so_split_params_gives_views():
    w1, w2 = split_params(DATA, PARAMS)
    assert np.shares_memory(w1, PARAMS) and np.shares_memory(w2, PARAMS)


# Each function a run also calls, with arguments that its public check
# refuses and that the function itself takes in a run.
IN_RUN = {
    "evaluate": lambda: _constant().evaluate(np.array([np.nan, 0.0])),
    "jacobian": lambda: _constant().jacobian(np.array([np.nan, 0.0])),
    "noisy evaluate": lambda: wrap_noisy(_constant(), NoiseSpec(0.05)).evaluate(np.zeros(3)),
    "noisy jacobian": lambda: wrap_noisy(_constant(), NoiseSpec(0.05)).jacobian(np.zeros(3)),
    "armijo_backtrack": lambda: armijo_backtrack(quadratic_pair(), X, np.zeros(2), G, 0.1),
    "adagrad_step": lambda: adagrad_step(X, -1.0, X),
    "losses": lambda: losses(DATA, "test", np.full(12, np.nan)),
    "loss_gradients": lambda: loss_gradients(DATA, "test", np.full(12, np.nan)),
    "split_params": lambda: split_params(DATA, np.full(12, np.nan)),
}


@pytest.mark.parametrize("entry", IN_RUN)
def test_in_a_run_the_public_check_is_skipped(entry):
    call = IN_RUN[entry]
    with pytest.raises(InputError):
        call()
    with run_scope():
        call()


def _count_checks(monkeypatch):
    """Count ``_check_array`` calls through every module's binding of it."""
    calls = []
    check = problems._check_array

    def counting(value, shape, what):
        calls.append(what)
        return check(value, shape, what)

    modules = (problems, subproblem, adagrad, descent, multitask, suite, harness)
    for module in modules:
        monkeypatch.setattr(module, "_check_array", counting)
    return calls


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e200])
def test_solve_direction_checks_a_float_matrix_once_in_its_route(monkeypatch, rows, scale):
    G = scale * np.array([[1.0, 2.0], [3.0, -1.0], [-2.0, 0.5]])[:rows]
    # The max|G| each route takes is its only check, but where the closed
    # form finds it out of range.
    expected = ["gradient matrix"] if (rows, scale) == (2, 1e200) else []
    calls = _count_checks(monkeypatch)
    solve_direction(G)
    assert calls == expected
    calls.clear()
    with run_scope():
        solve_direction(G)
    assert calls == expected


@pytest.mark.parametrize(
    "run, config", [(run_adagrad, AdagradConfig), (run_descent, DescentConfig)]
)
def test_a_run_checks_its_start_and_nothing_else(monkeypatch, run, config):
    p = quadratic_pair()
    calls = _count_checks(monkeypatch)
    rec = run(p, X, config(gradient_budget=50))
    assert rec.gradient_evals > 1
    assert calls == ["QUADPAIR: point"]
