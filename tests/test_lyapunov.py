import math

import numpy as np
import pytest
from scipy.special import logsumexp

from spde_lab.lyapunov import (
    ACTIVE_TOL,
    LyapunovProblem,
    estimate_from_path,
    exponent_deterministic,
    exponent_stochastic,
    log_norm_path,
)
from spde_lab.montecarlo import RandomStream
from spde_lab.wiener import TimeGrid

PI2 = math.pi**2


def _prob(alpha=0.0, beta=0.0, gamma=0.0, coeffs=(1.0, 0.0, 0.0, 0.0)):
    return LyapunovProblem(alpha, beta, gamma, np.asarray(coeffs, dtype=float))


def test_exponent_cancellation():
    # f = e_1, alpha = lambda_1 = pi^2: exact cancellation.
    assert exponent_deterministic(_prob(alpha=PI2)) == 0.0


def test_exponent_second_mode():
    prob = _prob(alpha=1.0, coeffs=(0.0, 1.0, 0.0, 0.0))
    assert exponent_deterministic(prob) == pytest.approx(1.0 - 4 * PI2, rel=1e-14)
    assert exponent_deterministic(prob) == pytest.approx(-38.478, abs=5e-4)


def test_lowest_excited_mode_dominates():
    prob = _prob(coeffs=(1.0, 1e-3, 0.0, 0.0))
    assert exponent_deterministic(prob) == pytest.approx(-PI2, rel=1e-14)
    # Cross-check by path estimation (deterministic path, long window).
    est = estimate_from_path(prob, TimeGrid(0.01, 1500), RandomStream(0))
    assert est.slope == pytest.approx(-PI2, abs=1e-8)


def test_all_zero_initial_condition_rejected():
    with pytest.raises(ValueError):
        exponent_deterministic(_prob(coeffs=(0.0, 0.0, 0.0, 0.0)))


def test_active_mode_threshold_is_relative():
    # 1e-13 is below ACTIVE_TOL relative to ||f||, so mode 2 is the lowest.
    prob = _prob(alpha=0.5, coeffs=(1e-13, 1.0, 0.0, 0.0))
    assert exponent_deterministic(prob) == -prob.eigenvalues[1] + 0.5
    assert exponent_deterministic(prob) == pytest.approx(0.5 - 4 * PI2, rel=1e-14)


def test_adding_higher_modes_keeps_exponent():
    base = _prob(alpha=0.3, coeffs=(0.0, 0.7, 0.0, 0.0))
    extended = _prob(alpha=0.3, coeffs=(0.0, 0.7, 0.2, -0.4))
    assert exponent_deterministic(base) == exponent_deterministic(extended)


def test_stochastic_reduces_to_deterministic():
    prob = _prob(alpha=0.4, beta=0.4, gamma=0.0)
    assert exponent_stochastic(prob) == exponent_deterministic(prob)


def test_stabilization_shift_exact():
    # alpha = beta, gamma = 2: stochastic exponent is deterministic minus 2.
    prob = _prob(alpha=0.7, beta=0.7, gamma=2.0)
    assert exponent_stochastic(prob) == exponent_deterministic(prob) - 2.0


def test_stochastic_substitution():
    prob = _prob(gamma=1.0)
    assert exponent_stochastic(prob) == pytest.approx(-PI2 - 0.5, rel=1e-14)


def test_shift_identity_bitwise():
    for alpha, beta, gamma in [(0.1, -0.4, 1.3), (2.0, 2.0, 0.7), (-1.0, 3.0, 0.0)]:
        prob = _prob(alpha=alpha, beta=beta, gamma=gamma)
        shift = (beta - alpha) - 0.5 * gamma**2
        assert exponent_stochastic(prob) == exponent_deterministic(prob) + shift


def test_stabilization_property():
    for gamma in (0.5, 1.0, 2.0):
        prob = _prob(alpha=1.0, beta=1.0, gamma=gamma)
        assert exponent_stochastic(prob) < exponent_deterministic(prob)


@pytest.mark.parametrize(
    "alpha,coeffs",
    [
        (0.0, (1.0, 0.0, 0.0, 0.0)),
        (PI2, (1.0, 0.0, 0.0, 0.0)),
        (1.0, (0.0, 1.0, 0.0, 0.0)),
        (-2.0, (0.0, 0.0, 1.0, 0.0)),
        (0.5, (1.0, 0.2, 0.1, 0.0)),
    ],
)
def test_deterministic_path_estimate_exact(alpha, coeffs):
    # With gamma = 0 and beta = alpha the sampled system is the
    # deterministic one, so the fitted slope is -lambda_{n0} + alpha.
    prob = _prob(alpha=alpha, beta=alpha, coeffs=coeffs)
    est = estimate_from_path(prob, TimeGrid(0.01, 1000), RandomStream(1))
    assert abs(est.slope - exponent_deterministic(prob)) < 1e-9
    assert est.stderr == 0.0


def test_stochastic_path_estimate_within_band():
    prob = _prob(gamma=1.0)
    grid = TimeGrid(0.01, 10_000)  # T = 100
    slopes = [
        estimate_from_path(prob, grid, RandomStream(100).child(k)).slope
        for k in range(16)
    ]
    band = 3 * 1.0 / math.sqrt(0.9 * 100)
    assert abs(np.median(slopes) - (-PI2 - 0.5)) <= band


@pytest.mark.parametrize("gamma", [1.0, -1.0])
def test_stderr_matches_slope_spread_over_paths(gamma):
    # The least-squares slope of gamma w over a window W = 9 has standard
    # deviation sqrt(6/5) |gamma| / sqrt(W); a residual-based stderr reads
    # about 55x less.
    prob = _prob(gamma=gamma)
    grid = TimeGrid(10 / 2000, 2000)
    estimates = [
        estimate_from_path(prob, grid, RandomStream(12).child(k), 1.0) for k in range(400)
    ]
    stderr = estimates[0].stderr
    assert stderr == pytest.approx(math.sqrt(1.2 / 9), rel=1e-12)
    assert all(est.stderr == stderr for est in estimates)
    assert np.std([est.slope for est in estimates], ddof=1) == pytest.approx(stderr, rel=0.15)


def test_estimates_agree_across_stream_keys():
    # Non-randomness of the limit: two keys agree within the combined band.
    prob = _prob(gamma=1.0)
    grid = TimeGrid(0.01, 10_000)
    a = estimate_from_path(prob, grid, RandomStream(21))
    b = estimate_from_path(prob, grid, RandomStream(22))
    band = 3 * 1.0 / math.sqrt(0.9 * 100)
    assert abs(a.slope - b.slope) <= 2 * band


def test_error_shrinks_with_horizon():
    prob = _prob(gamma=1.0)
    target = -PI2 - 0.5
    medians = []
    for t_final in (25.0, 100.0, 400.0):
        grid = TimeGrid(0.05, int(t_final / 0.05))
        errs = [
            abs(estimate_from_path(prob, grid, RandomStream(7).child(k)).slope - target)
            for k in range(16)
        ]
        medians.append(np.median(errs))
    assert medians[2] < medians[1] < medians[0]


def test_no_underflow_over_long_horizon():
    # Decay like exp(-pi^2 t) over t = 400 underflows linear space; the
    # log-domain path must stay finite and keep the exact slope.
    prob = _prob(alpha=0.0)
    grid = TimeGrid(0.2, 2000)
    est = estimate_from_path(prob, grid, RandomStream(2))
    assert math.isfinite(est.slope) and math.isfinite(est.stderr)
    assert est.slope == pytest.approx(-PI2, abs=1e-9)


def test_window_validation():
    prob = _prob(gamma=1.0)
    grid = TimeGrid(0.1, 10)
    with pytest.raises(ValueError):
        estimate_from_path(prob, grid, RandomStream(3), t_burn=1.0)
    with pytest.raises(ValueError):
        estimate_from_path(prob, grid, RandomStream(3), t_burn=-0.5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "k, slowest",
    [(k, None) for k in (1, 2, 3, 8, 33)] + [(k, 1.5 * ACTIVE_TOL) for k in (2, 8, 33)],
)
def test_log_norm_path_matches_logsumexp(k, slowest):
    # log_norm_path sums relative to the slowest active mode; the reference
    # is scipy's logsumexp of the same terms, over t up to 1000, where the
    # fast modes' terms fall far below the slowest mode's.  ``slowest``
    # puts the first coefficient just above the activity threshold, so the
    # other modes start up to 2 log(1 / ACTIVE_TOL) above it.
    rng = np.random.default_rng(k)
    coeffs = rng.normal(size=k)
    if slowest is not None:
        coeffs[0] = slowest * np.sqrt(np.sum(coeffs[1:] ** 2) / (1 - slowest**2))
    prob = _prob(beta=0.3, gamma=1.1, coeffs=coeffs)
    assert exponent_deterministic(prob) == -prob.eigenvalues[0]
    grid = TimeGrid(0.5, 2000)
    got = log_norm_path(prob, grid, RandomStream(k))

    draws = RandomStream(k).generator().standard_normal(grid.steps)
    w = np.concatenate([[0.0], np.cumsum(np.sqrt(grid.dt) * draws)])
    rates = -prob.eigenvalues + prob.beta - 0.5 * prob.gamma**2
    terms = 2 * np.outer(grid.times, rates) + 2 * np.log(np.abs(coeffs))
    ref = prob.gamma * w + 0.5 * logsumexp(terms, axis=1)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
