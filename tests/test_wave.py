import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from spde_lab import montecarlo
from spde_lab.hilbert import CovarianceSpectrum, HilbertVector
from spde_lab.montecarlo import RandomStream, pairwise_stats
from spde_lab.wave import (
    WaveProblem,
    covariance_closed_form,
    energy_block,
    energy_variance_closed_form,
    initial_energy,
    mean_coefficients,
    mean_energy_drift,
    mean_solution,
    simulate_block,
    variance_closed_form,
)
from spde_lab.wiener import TimeGrid


def _problem(n_modes=6, spectrum=None, epsilon=1.0, c=1.0, length=1.0, f=None, g=None):
    spectrum = spectrum or CovarianceSpectrum.power(2.0, n_modes)
    f = f if f is not None else HilbertVector.unit(n_modes, 1)
    g = g if g is not None else HilbertVector(np.zeros(n_modes))
    return WaveProblem.from_initial_conditions(
        f, g, wave_speed=c, length=length, epsilon=epsilon, spectrum=spectrum
    )


def _covariance_quadrature_oracle(prob, t, s):
    """Assemble Cov(u(t), u(s)) from the three base integrals by quadrature.

    Independent of the closed-form path: uses only the Ito isometry on the
    running integrals int sin^2, int cos^2, int sin cos over [0, min(t,s)].
    """
    m = min(t, s)
    total = 0.0
    for n in range(1, prob.n_modes + 1):
        mu = prob.wave_speed * n * np.pi / prob.length
        q_n = prob.spectrum.eigenvalues[n - 1]
        if q_n == 0:
            continue
        i_ss, _ = quad(lambda r: np.sin(mu * r) ** 2, 0, m, limit=200)
        i_cc, _ = quad(lambda r: np.cos(mu * r) ** 2, 0, m, limit=200)
        i_sc, _ = quad(lambda r: np.sin(mu * r) * np.cos(mu * r), 0, m, limit=200)
        gain2 = prob.epsilon**2 * q_n / mu**2
        total += gain2 * (
            i_ss * np.cos(mu * t) * np.cos(mu * s)
            + i_cc * np.sin(mu * t) * np.sin(mu * s)
            - i_sc * (np.cos(mu * t) * np.sin(mu * s) + np.cos(mu * s) * np.sin(mu * t))
        )
    return total


def _amplitudes(f, g, c, length):
    """(A, B) of the problem with displacement f and velocity g at t = 0."""
    prob = WaveProblem.from_initial_conditions(
        HilbertVector(f), HilbertVector(g), wave_speed=c, length=length, epsilon=1.0,
        spectrum=CovarianceSpectrum.power(2.0, len(f)),
    )
    return prob.cos_amps, prob.sin_amps


def test_modal_data_zero_velocity():
    f = [0.3, 0.1]
    a, b = _amplitudes(f, [0.0, 0.0], 1.0, 1.0)
    np.testing.assert_array_equal(b, [0.0, 0.0])
    np.testing.assert_array_equal(a, f)


def test_modal_data_unit_displacement():
    a, b = _amplitudes(HilbertVector.unit(3, 1).coeffs, np.zeros(3), 1.0, 1.0)
    np.testing.assert_array_equal(a, [1.0, 0.0, 0.0])


def test_modal_data_velocity_scaling():
    # g = e_2, l = 1, c = 2: B_2 = 1 / (4 pi).
    _, b = _amplitudes(np.zeros(3), HilbertVector.unit(3, 2).coeffs, 2.0, 1.0)
    assert b[1] == pytest.approx(1.0 / (4 * math.pi))
    assert b[1] == pytest.approx(0.07958, abs=5e-6)


def test_modal_data_rejects_bad_constants():
    # Rejected before B = l g / (c n pi) is formed: c = 0 raises the
    # ValueError with no divide-by-zero warning ahead of it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, length in [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]:
            with pytest.raises(ValueError, match="positive"):
                _amplitudes([1.0], [1.0], c, length)
    # A one-mode g would broadcast against three modes of f.
    with pytest.raises(ValueError, match="f and g"):
        _amplitudes([1.0, 0.0, 0.0], [1.0], 1.0, 1.0)


def test_deterministic_wave_exact():
    prob = _problem(epsilon=0.0)
    grid = TimeGrid(0.05, 40)
    u, _ = simulate_block(prob, grid, RandomStream(1), 0, 1)
    mu = prob.angular_freqs
    expected = prob.cos_amps * np.cos(mu * grid.times[:, np.newaxis]) + (
        prob.sin_amps * np.sin(mu * grid.times[:, np.newaxis])
    )
    np.testing.assert_array_equal(u[0], expected)


def test_initial_conditions_of_samples():
    n = 4
    f = HilbertVector([0.5, -0.2, 0.1, 0.0])
    g = HilbertVector([0.0, 1.0, 0.0, 0.3])
    prob = _problem(n_modes=n, f=f, g=g, epsilon=0.7)
    u, v = simulate_block(prob, TimeGrid(0.1, 5), RandomStream(2), 0, 1)
    np.testing.assert_allclose(u[0, 0], prob.cos_amps, rtol=1e-14)
    np.testing.assert_allclose(v[0, 0], prob.sin_amps * prob.angular_freqs, rtol=1e-14)


def test_deterministic_energy_conserved():
    prob = _problem(epsilon=0.0)
    grid = TimeGrid(0.05, 40)
    u, v = simulate_block(prob, grid, RandomStream(3), 0, 1)
    np.testing.assert_allclose(energy_block(prob, u, v)[0], math.pi**2 / 2, rtol=1e-12)


def _chunk_rows(monkeypatch, batch, n, rows):
    """Make ``block_chunks`` yield slices of ``rows`` steps of wave draws."""
    monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 16 * batch * n * rows)


@pytest.mark.parametrize(
    "steps, batch, rows",
    [(10, 7, 3), (10, 1, 4), (10, 7, 1), (10, 7, 11), (1, 7, 1), (1, 1, 5)],
)
def test_simulate_block_keep_matches_full_trajectories(monkeypatch, steps, batch, rows):
    # Draw slices of `rows` steps: the 10 steps of the grid split 3+3+3+1
    # and 4+4+2, rows=1 starts a slice at every step and 11 takes them all.
    n = 5
    prob = _problem(n_modes=n, c=1.3, length=0.7, g=HilbertVector.unit(n, 2))
    grid = TimeGrid(0.03, steps)
    keep = sorted({0, steps // 2, steps})
    stream = RandomStream(5)

    def run(rows):
        _chunk_rows(monkeypatch, batch, n, rows)
        full = simulate_block(prob, grid, stream, 3, 3 + batch)
        return (*full, *simulate_block(prob, grid, stream, 3, 3 + batch, keep))

    u, v, u_keep, energies = outputs = run(rows)
    assert np.array_equal(u_keep, u[:, keep])
    # The keep path sums mu^2 (p^2 + q^2), not v^2 + mu^2 u^2: the same
    # energy up to roundoff.
    np.testing.assert_allclose(energies, energy_block(prob, u, v), rtol=1e-12)
    # Both forms walk the same slices; slicing moves no bit of u, v, u_keep
    # or the energies, also against one slice of all steps.
    for other in (1, 3, 4, 11, steps):
        for got, want in zip(run(other), outputs):
            assert np.array_equal(got, want)


def test_simulate_block_keep_energy_conserved_at_large_phase(monkeypatch):
    # N=64 to t=2 turns mu t up to about 400 rad; without noise the keep
    # path's energy is the same sum of amplitudes at every step.
    n = 64
    prob = _problem(n_modes=n, epsilon=0.0, f=HilbertVector(np.linspace(1.0, -0.5, n)),
                    g=HilbertVector(np.cos(np.arange(n))))
    grid = TimeGrid(0.01, 200)
    _chunk_rows(monkeypatch, 3, n, 7)
    _, energies = simulate_block(prob, grid, RandomStream(4), 0, 3, [grid.steps])
    assert np.array_equal(energies, np.broadcast_to(energies[:, :1], energies.shape))
    np.testing.assert_allclose(energies, initial_energy(prob), rtol=1e-14)


def test_simulate_block_rejects_keep_outside_grid():
    prob = _problem(n_modes=3)
    grid = TimeGrid(0.1, 4)
    for keep in ([5], [-1]):
        with pytest.raises(ValueError):
            simulate_block(prob, grid, RandomStream(1), 0, 2, keep)


def test_mean_solution_substitution():
    # f = e_1, g = 0, l = c = 1 at (x, t) = (0.5, 1): cos(pi) e_1(1/2) = -sqrt(2).
    prob = _problem()
    assert mean_solution(prob, 0.5, 1.0) == pytest.approx(-math.sqrt(2.0))


def test_mean_independent_of_epsilon():
    quiet = _problem(epsilon=0.0)
    loud = _problem(epsilon=5.0)
    for x, t in [(0.3, 0.7), (0.8, 1.9)]:
        assert mean_solution(quiet, x, t) == mean_solution(loud, x, t)


def test_mean_at_zero_reproduces_initial_condition():
    n = 8
    basis_fn = lambda x: x * (1 - x)
    prob = _problem(n_modes=n)
    x, w = prob.basis.quadrature(8 * prob.n_modes)
    f = HilbertVector(prob.basis.evaluate(x).T @ (w * basis_fn(x)))
    prob = _problem(n_modes=n, f=f)
    for x in (0.2, 0.5, 0.7):
        assert mean_solution(prob, x, 0.0) == pytest.approx(basis_fn(x), abs=1e-2)


def test_variance_zero_without_noise():
    prob = _problem(epsilon=0.0)
    for t in (0.0, 0.5, 2.0):
        assert variance_closed_form(prob, t) == 0.0


def test_variance_single_mode_value():
    # q = (1, 0, ...), eps = l = c = 1, t = 1 -> 1 / (2 pi^2).
    spec = CovarianceSpectrum([1.0, 0.0, 0.0])
    prob = _problem(n_modes=3, spectrum=spec)
    value = variance_closed_form(prob, 1.0)
    assert value == pytest.approx(1.0 / (2 * math.pi**2), rel=1e-12)
    assert value == pytest.approx(0.050660, abs=1e-6)
    oracle = _covariance_quadrature_oracle(prob, 1.0, 1.0)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_variance_equals_covariance_diagonal():
    # The variance is the covariance at s = t, which reduces bit for bit to
    # sum_n (eps^2 q_n / (2 mu_n^2)) [t - sin(2 mu_n t) / (2 mu_n)].
    prob = _problem()
    mu, q = prob.angular_freqs, prob.spectrum.eigenvalues
    for t in (0.3, 1.0, 1.7):
        reduced = np.sum(prob.epsilon**2 * q / (2 * mu**2) * (t - np.sin(2 * mu * t) / (2 * mu)))
        assert variance_closed_form(prob, t) == covariance_closed_form(prob, t, t) == reduced


def test_covariance_symmetric():
    prob = _problem()
    for t, s in [(1.0, 0.5), (1.9, 0.2), (0.7, 0.7)]:
        assert covariance_closed_form(prob, t, s) == pytest.approx(
            covariance_closed_form(prob, s, t), rel=1e-12
        )


def test_covariance_matches_quadrature_oracle():
    # Direct check of the printed integration steps, to 1e-10.
    prob = _problem(n_modes=4, c=1.3, epsilon=0.8)
    for t in (0.4, 1.0, 1.6):
        for s in (0.3, 1.0, 2.0):
            closed = covariance_closed_form(prob, t, s)
            oracle = _covariance_quadrature_oracle(prob, t, s)
            assert closed == pytest.approx(oracle, abs=1e-10)


def test_covariance_single_mode_against_oracle_and_monte_carlo():
    spec = CovarianceSpectrum([1.0, 0.0, 0.0])
    prob = _problem(n_modes=3, spectrum=spec)
    closed = covariance_closed_form(prob, 1.0, 0.5)
    oracle = _covariance_quadrature_oracle(prob, 1.0, 0.5)
    assert closed == pytest.approx(oracle, abs=1e-10)
    grid = TimeGrid(0.25, 4)
    u, _ = simulate_block(prob, grid, RandomStream(7), 0, 10_000)
    dev_t = u[:, 4, :] - mean_coefficients(prob, 1.0).coeffs
    dev_s = u[:, 2, :] - mean_coefficients(prob, 0.5).coeffs
    stats = pairwise_stats(np.sum(dev_t * dev_s, axis=1))
    assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_variance_monte_carlo():
    prob = _problem()
    grid = TimeGrid(0.25, 8)
    u, _ = simulate_block(prob, grid, RandomStream(5), 0, 10_000)
    t = 2.0
    dev = u[:, 8, :] - mean_coefficients(prob, t).coeffs
    stats = pairwise_stats(np.sum(dev**2, axis=1))
    assert abs(stats.mean - variance_closed_form(prob, t)) <= 3 * stats.stderr


def test_mean_formula_on_grid_monte_carlo():
    prob = _problem(n_modes=6, epsilon=0.6)
    grid = TimeGrid(0.25, 4)
    u, _ = simulate_block(prob, grid, RandomStream(6), 0, 10_000)
    for x in (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6):
        vals = u[:, 4, :] @ prob.basis.evaluate(x)
        stats = pairwise_stats(vals)
        assert abs(stats.mean - mean_solution(prob, x, 1.0)) <= 3 * stats.stderr


def test_single_mode_forcing_isolates_modes():
    # Noise only in mode 1: modes >= 2 equal their deterministic formula bitwise.
    n = 5
    spec = CovarianceSpectrum([0.7] + [0.0] * (n - 1))
    f = HilbertVector([0.4, 0.3, -0.2, 0.1, 0.05])
    g = HilbertVector([0.0, 0.2, 0.0, -0.1, 0.0])
    prob = _problem(n_modes=n, spectrum=spec, f=f, g=g, epsilon=1.5)
    grid = TimeGrid(0.1, 10)
    u, v = simulate_block(prob, grid, RandomStream(8), 0, 16)
    mu = prob.angular_freqs
    det_u = prob.cos_amps * np.cos(mu * grid.times[:, np.newaxis]) + (
        prob.sin_amps * np.sin(mu * grid.times[:, np.newaxis])
    )
    np.testing.assert_array_equal(u[:, :, 1:], np.broadcast_to(det_u[:, 1:], u[:, :, 1:].shape))
    assert not np.array_equal(u[0, :, 0], det_u[:, 0])


def test_distributional_exactness_under_refinement():
    # Marginal law at T is unchanged when dt -> dt/4.
    prob = _problem(n_modes=4, epsilon=1.0)
    coarse = TimeGrid(0.5, 2)
    fine = TimeGrid(0.125, 8)
    u_c, _ = simulate_block(prob, coarse, RandomStream(9), 0, 8_000)
    u_f, _ = simulate_block(prob, fine, RandomStream(10), 0, 8_000)
    m = mean_coefficients(prob, 1.0).coeffs
    dev_c = pairwise_stats(np.sum((u_c[:, 2, :] - m) ** 2, axis=1))
    dev_f = pairwise_stats(np.sum((u_f[:, 8, :] - m) ** 2, axis=1))
    gap = abs(dev_c.mean - dev_f.mean)
    assert gap <= 3 * math.hypot(dev_c.stderr, dev_f.stderr)
    mean_c = pairwise_stats(u_c[:, 2, 0])
    mean_f = pairwise_stats(u_f[:, 8, 0])
    assert abs(mean_c.mean - mean_f.mean) <= 3 * math.hypot(mean_c.stderr, mean_f.stderr)


def test_mean_energy_pumped_by_forcing():
    # The forcing feeds mean energy at rate eps^2 Tr(Q)/2: E E(t) = E(0) + drift.
    prob = _problem(n_modes=4, epsilon=0.9)
    grid = TimeGrid(0.25, 8)
    u, v = simulate_block(prob, grid, RandomStream(12), 0, 10_000)
    energies = energy_block(prob, u, v)
    for k, t in [(4, 1.0), (8, 2.0)]:
        stats = pairwise_stats(energies[:, k])
        target = initial_energy(prob) + mean_energy_drift(prob, t)
        assert abs(stats.mean - target) <= 3 * stats.stderr


def test_energy_variance_zero_cases():
    prob = _problem(epsilon=0.0)
    assert energy_variance_closed_form(prob, 1.0) == 0.0
    noisy = _problem(epsilon=1.0)
    assert energy_variance_closed_form(noisy, 0.0) == 0.0


def test_energy_variance_zero_data_single_mode():
    # A = B = 0, single mode: eps^4 q^2 [t^2/4 + (1 - cos 2 mu t) / (8 mu^2)].
    n = 3
    spec = CovarianceSpectrum([0.8, 0.0, 0.0])
    zero = HilbertVector(np.zeros(n))
    prob = _problem(n_modes=n, spectrum=spec, f=zero, g=zero, epsilon=1.2)
    t, mu = 1.0, math.pi
    expected = 1.2**4 * 0.8**2 * (t**2 / 4 + (1 - math.cos(2 * mu * t)) / (8 * mu**2))
    assert energy_variance_closed_form(prob, t) == pytest.approx(expected, rel=1e-12)
    grid = TimeGrid(0.25, 4)
    u, v = simulate_block(prob, grid, RandomStream(13), 0, 10_000)
    e_t = energy_block(prob, u, v)[:, 4]
    stats = pairwise_stats((e_t - e_t.mean()) ** 2)
    assert abs(stats.mean - expected) <= 3 * stats.stderr


def test_energy_variance_monte_carlo_full_problem():
    prob = _problem(n_modes=6, epsilon=0.7, f=HilbertVector([1, 0, 0.5, 0, 0, 0]),
                    g=HilbertVector([0, 1.0, 0, 0, 0, 0]))
    grid = TimeGrid(0.25, 8)
    u, v = simulate_block(prob, grid, RandomStream(14), 0, 10_000)
    e_t = energy_block(prob, u, v)[:, 8]
    stats = pairwise_stats((e_t - e_t.mean()) ** 2)
    closed = energy_variance_closed_form(prob, 2.0)
    assert abs(stats.mean - closed) <= 3 * stats.stderr
