import math

import numpy as np
import pytest

from spde_lab import montecarlo
from spde_lab.heat import (
    HeatProblem,
    correlation_closed_form,
    covariance_closed_form,
    mean_closed_form,
    simulate_block,
    variance_closed_form,
)
from spde_lab.montecarlo import RandomStream, pairwise_stats
from spde_lab.wiener import TimeGrid

SINGLE = HeatProblem(0.5, [1.0, 0.0, 0.0, 0.0])


def test_drift_rates():
    prob = HeatProblem(0.5, [1.0, 0.0])
    np.testing.assert_allclose(
        prob.drift_rates, [-math.pi**2 - 0.125, -4 * math.pi**2 - 0.125]
    )


def test_sample_is_exact_transform_of_path():
    grid = TimeGrid(0.05, 6)
    w, u = simulate_block(SINGLE, grid, RandomStream(1), 0, 1)
    expected = SINGLE.init_coeffs * np.exp(
        SINGLE.drift_rates * grid.times[:, np.newaxis]
        + SINGLE.epsilon * w[0][:, np.newaxis]
    )
    np.testing.assert_array_equal(u[0], expected)
    assert w[0, 0] == 0.0


@pytest.mark.parametrize("keep", [[0], [3], [1, 4, 6], [0, 2, 6], list(range(7))])
def test_simulate_block_keep_matches_full_coefficients(keep):
    prob = HeatProblem(0.7, [0.5, -0.2, 0.1])
    grid = TimeGrid(0.05, 6)
    u_keep, extra = simulate_block(prob, grid, RandomStream(5), 3, 10, keep)
    _, u = simulate_block(prob, grid, RandomStream(5), 3, 10)
    assert np.array_equal(u_keep, u[:, keep])
    assert extra.shape == (7, 0)


def test_simulate_block_independent_of_chunk_rows(monkeypatch):
    # Draws arrive in slices of 1 and 3 steps, then as one slice of all steps.
    prob = HeatProblem(0.7, [0.5, -0.2, 0.1])
    grid = TimeGrid(0.05, 10)
    batch, keep = 5, [0, 4, 10]
    runs = []
    for rows in (1, 3, grid.steps):
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 8 * batch * rows)
        w, u = simulate_block(prob, grid, RandomStream(6), 3, 3 + batch)
        u_keep, _ = simulate_block(prob, grid, RandomStream(6), 3, 3 + batch, keep)
        runs.append((w, u, u_keep))
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("keep", [[7], [-1], [0, 7]])
def test_simulate_block_rejects_keep_outside_grid(keep):
    with pytest.raises(ValueError):
        simulate_block(SINGLE, TimeGrid(0.05, 6), RandomStream(1), 0, 2, keep)


def test_zero_noise_is_deterministic_decay():
    prob = HeatProblem(0.0, [1.0, -0.5, 0.2])
    grid = TimeGrid(0.02, 10)
    _, u = simulate_block(prob, grid, RandomStream(2), 0, 1)
    expected = prob.init_coeffs * np.exp(-prob.eigenvalues * grid.times[:, np.newaxis])
    np.testing.assert_allclose(u[0], expected, rtol=1e-14)


def test_sign_pattern_preserved():
    prob = HeatProblem(0.8, [0.5, -1.0, 0.0, 2.0])
    grid = TimeGrid(0.05, 4)
    _, u = simulate_block(prob, grid, RandomStream(3), 0, 200)
    assert np.all(np.sign(u) == np.sign(prob.init_coeffs))


def test_same_sign_modes_comonotone():
    # One shared scalar path: mode orderings across samples coincide exactly.
    prob = HeatProblem(0.6, [1.0, 0.5, 0.25])
    grid = TimeGrid(0.1, 2)
    _, u = simulate_block(prob, grid, RandomStream(4), 0, 500)
    order_1 = np.argsort(u[:, 2, 0])
    order_2 = np.argsort(u[:, 2, 1])
    np.testing.assert_array_equal(order_1, order_2)


def test_mean_closed_form_values():
    assert mean_closed_form(SINGLE, 0.0).coeffs[0] == 1.0
    value = mean_closed_form(SINGLE, 0.1).coeffs[0]
    assert value == pytest.approx(math.exp(-math.pi**2 * 0.1), rel=1e-14)
    assert value == pytest.approx(0.3727, abs=2e-4)
    assert mean_closed_form(HeatProblem(2.0, [1.0]), 0.1).coeffs[0] == value


def test_mean_monte_carlo():
    grid = TimeGrid(0.05, 4)
    _, u = simulate_block(SINGLE, grid, RandomStream(5), 0, 10_000)
    closed = mean_closed_form(SINGLE, 0.1).coeffs[0]
    stats = pairwise_stats(u[:, 2, 0])
    assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_variance_zero_cases():
    assert variance_closed_form(HeatProblem(0.0, [1.0]), 1.0) == 0.0
    assert variance_closed_form(SINGLE, 0.0) == 0.0


def test_variance_substitution_value():
    # a = (1, 0, ...), eps = 0.5, t = 0.1: exp(-2 pi^2 / 10)(exp(0.025) - 1).
    expected = math.exp(-2 * math.pi**2 * 0.1) * math.expm1(0.025)
    value = variance_closed_form(SINGLE, 0.1)
    assert value == pytest.approx(expected, rel=1e-14)
    assert value == pytest.approx(3.517e-3, abs=2e-6)


def test_variance_monte_carlo():
    grid = TimeGrid(0.05, 4)
    _, u = simulate_block(SINGLE, grid, RandomStream(6), 0, 10_000)
    m = mean_closed_form(SINGLE, 0.1).coeffs
    stats = pairwise_stats(np.sum((u[:, 2, :] - m) ** 2, axis=1))
    assert abs(stats.mean - variance_closed_form(SINGLE, 0.1)) <= 3 * stats.stderr


def test_covariance_diagonal_and_symmetry():
    # The variance is the covariance at tau = t, which reduces bit for bit
    # to sum_n a_n^2 exp(-2 lambda_n t) [exp(eps^2 t) - 1].
    prob = HeatProblem(0.7, [1.0, -0.5, 0.25])
    for t in (0.05, 0.1, 0.3):
        reduced = np.sum(
            prob.init_coeffs**2 * np.exp(-2 * prob.eigenvalues * t) * np.expm1(prob.epsilon**2 * t)
        )
        assert variance_closed_form(prob, t) == covariance_closed_form(prob, t, t) == reduced
    assert covariance_closed_form(SINGLE, 0.2, 0.1) == covariance_closed_form(
        SINGLE, 0.1, 0.2
    )


def test_covariance_substitution_value():
    # (t, tau) = (0.2, 0.1): exp(-pi^2 0.3)(exp(0.025) - 1).
    expected = math.exp(-math.pi**2 * 0.3) * math.expm1(0.025)
    assert covariance_closed_form(SINGLE, 0.2, 0.1) == pytest.approx(expected, rel=1e-14)


def test_covariance_monte_carlo_shared_path():
    grid = TimeGrid(0.05, 4)
    _, u = simulate_block(SINGLE, grid, RandomStream(7), 0, 10_000)
    m1 = mean_closed_form(SINGLE, 0.1).coeffs
    m2 = mean_closed_form(SINGLE, 0.2).coeffs
    products = np.sum((u[:, 2, :] - m1) * (u[:, 4, :] - m2), axis=1)
    stats = pairwise_stats(products)
    closed = covariance_closed_form(SINGLE, 0.1, 0.2)
    assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_correlation_self_is_one():
    assert correlation_closed_form(SINGLE, 0.1, 0.1) == 1.0


def test_correlation_single_mode_algebraic_form():
    # Single mode: corr = (e^{eps^2 min} - 1) / sqrt((e^{eps^2 t}-1)(e^{eps^2 tau}-1)),
    # independent of a_1 and lambda_1.
    eps = 0.5
    for t, tau in [(0.1, 0.2), (0.3, 0.05), (1.0, 0.5)]:
        expected = math.expm1(eps**2 * min(t, tau)) / math.sqrt(
            math.expm1(eps**2 * t) * math.expm1(eps**2 * tau)
        )
        got = correlation_closed_form(SINGLE, t, tau)
        assert got == pytest.approx(expected, rel=1e-12)
        scaled = HeatProblem(eps, [7.5, 0.0])
        assert correlation_closed_form(scaled, t, tau) == pytest.approx(got, rel=1e-12)


def test_correlation_within_unit_interval():
    for eps in (0.25, 0.5, 1.0):
        prob = HeatProblem(eps, [1.0, 0.4, 0.1])
        for t, tau in [(0.05, 0.25), (0.5, 0.1), (0.2, 0.2)]:
            corr = correlation_closed_form(prob, t, tau)
            assert 0.0 <= corr <= 1.0


def test_correlation_degenerate_cases_raise():
    with pytest.raises(ValueError):
        correlation_closed_form(HeatProblem(0.0, [1.0]), 0.1, 0.2)
    with pytest.raises(ValueError):
        correlation_closed_form(SINGLE, 0.0, 0.2)


def test_lognormal_moment_identity():
    # E exp(eps w_t) = exp(eps^2 t / 2), the step behind the mean formula.
    grid = TimeGrid(0.1, 10)
    w, _ = simulate_block(SINGLE, grid, RandomStream(8), 0, 10_000)
    stats = pairwise_stats(np.exp(0.5 * w[:, 10]))
    assert abs(stats.mean - math.exp(0.5**2 * 1.0 / 2)) <= 3 * stats.stderr


def test_mean_norm_decays():
    prob = HeatProblem(0.5, [1.0, -0.3, 0.2])
    times = [0.0, 0.05, 0.1, 0.2, 0.5]
    norms = [mean_closed_form(prob, t).norm() for t in times]
    assert all(a > b for a, b in zip(norms, norms[1:]))
