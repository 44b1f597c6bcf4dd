import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from spde_lab import montecarlo, wiener
from spde_lab.hilbert import CovarianceSpectrum, DirichletBasis
from spde_lab.montecarlo import RandomStream, pairwise_stats
from spde_lab.wiener import TimeGrid, running_sums, sample_increments_block

N_MODES = 6
BASIS = DirichletBasis(1.0, N_MODES)
SPEC = CovarianceSpectrum.power(2.0, N_MODES)


def _ensemble_coefficients(spec, grid, stream, samples, start=0):
    """Field coefficients sqrt(q_n) W_n(t_k) of samples [start, start +
    samples), [S, steps+1, N]."""
    inc = sample_increments_block(spec, BASIS, grid, stream, start, start + samples)
    paths = np.concatenate(
        [np.zeros((samples, 1, N_MODES)), np.cumsum(inc, axis=1)], axis=1
    )
    return np.sqrt(spec.eigenvalues) * paths


def _field_values(coeff, x):
    """Field values sum_n coeff_n e_n(x) of coefficients [..., N]."""
    return coeff @ BASIS.evaluate(x)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.1, 0)
    # The grid starts where the initial data are given: it has no t0.
    with pytest.raises(TypeError):
        TimeGrid(0.5, 0.25, 4)
    grid = TimeGrid(0.25, 4)
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.t_final == 1.0


def test_zero_spectrum_gives_zero_field():
    spec = CovarianceSpectrum(np.zeros(N_MODES))
    coeff = _ensemble_coefficients(spec, TimeGrid(0.1, 10), RandomStream(1), 1)
    for k in (0, 5, 10):
        assert _field_values(coeff[0, k], 0.3) == 0.0


def test_same_key_bit_identical_paths():
    grid = TimeGrid(0.1, 10)
    a = sample_increments_block(SPEC, BASIS, grid, RandomStream(9), 4, 5)
    b = sample_increments_block(SPEC, BASIS, grid, RandomStream(9), 4, 5)
    assert np.array_equal(a, b)


def test_field_zero_at_initial_time():
    coeff = _ensemble_coefficients(SPEC, TimeGrid(0.1, 10), RandomStream(2), 1)
    assert _field_values(coeff[0, 0], 0.4) == 0.0


def test_single_mode_field_is_rank_one():
    spec = CovarianceSpectrum([1.0] + [0.0] * (N_MODES - 1))
    coeff = _ensemble_coefficients(spec, TimeGrid(0.5, 2), RandomStream(3), 1)
    ratios = [
        _field_values(coeff[0, 2], x) / BASIS.evaluate(x)[0] for x in (0.1, 0.3, 0.6, 0.9)
    ]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_block_sampling_matches_child_keys():
    grid = TimeGrid(0.2, 5)
    block = sample_increments_block(SPEC, BASIS, grid, RandomStream(5), 0, 4)
    single = sample_increments_block(SPEC, BASIS, grid, RandomStream(5), 2, 3)
    draws = RandomStream(5).child(2).generator().standard_normal((grid.steps, N_MODES))
    keyed = np.sqrt(grid.dt) * draws
    assert np.array_equal(block[2], single[0])
    assert np.array_equal(block[2], keyed)


@pytest.mark.parametrize("rows", [None, 1, 3, 9, 14])
def test_sample_increments_block_matches_per_sample_draws(monkeypatch, rows):
    # Row i - start is sqrt(dt) times sample i's own draws, whatever the
    # block_chunks slices: CHUNK_BYTES holds `rows` steps of 4 samples of a
    # 9-step grid (1, 3, all and more than all steps), or its default.
    if rows is not None:
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 8 * 4 * N_MODES * rows)
    grid = TimeGrid(0.2, 9)
    stream = RandomStream(13)
    block = sample_increments_block(SPEC, BASIS, grid, stream, 5, 9)
    draws = [stream.child(i).generator().standard_normal((9, N_MODES)) for i in range(5, 9)]
    assert np.array_equal(block, np.sqrt(grid.dt) * np.stack(draws))
    empty = sample_increments_block(SPEC, BASIS, grid, stream, 2, 2)
    assert empty.shape == (0, 9, N_MODES)


def test_sample_increments_block_fills_one_array():
    # 64 samples x 200 steps x 128 modes: a 12.5 MiB result; the slices are
    # scaled into it one at a time instead of being held and then joined.
    n = 128
    spec, basis = CovarianceSpectrum.power(2.0, n), DirichletBasis(1.0, n)
    tracemalloc.start()
    try:
        block = sample_increments_block(spec, basis, TimeGrid(0.01, 200), RandomStream(1), 0, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.shape == (64, 200, n)
    assert peak < 1.5 * block.nbytes


def test_norm_identity_monte_carlo():
    # E ||W_t||^2 = t Tr(Q) with q = (1, 0.5): expect 3.0 at t = 2.
    spec = CovarianceSpectrum([1.0, 0.5] + [0.0] * (N_MODES - 2))
    grid = TimeGrid(1.0, 2)
    coeff = _ensemble_coefficients(spec, grid, RandomStream(11), 10_000)
    stats = pairwise_stats(np.sum(coeff[:, 2, :] ** 2, axis=1))
    assert abs(stats.mean - 3.0) <= 3 * stats.stderr


def test_zero_mean_inner_product():
    grid = TimeGrid(0.5, 2)
    coeff = _ensemble_coefficients(SPEC, grid, RandomStream(13), 5_000)
    a = np.full(N_MODES, 1.0 / np.sqrt(N_MODES))
    stats = pairwise_stats(coeff[:, 2, :] @ a)
    assert abs(stats.mean) <= 3 * stats.stderr


def test_bilinear_identity_monte_carlo():
    # E <W_t, a><W_s, b> = min(t, s) <Q a, b>.
    grid = TimeGrid(0.5, 4)
    coeff = _ensemble_coefficients(SPEC, grid, RandomStream(17), 10_000)
    rng = np.random.default_rng(0)
    for _ in range(3):
        a = rng.standard_normal(N_MODES)
        b = rng.standard_normal(N_MODES)
        closed = 1.0 * float((SPEC.eigenvalues * a) @ b)  # min(2.0, 1.0) = 1.0
        stats = pairwise_stats((coeff[:, 4, :] @ a) * (coeff[:, 2, :] @ b))
        assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_field_covariance_min_t_s():
    # E[W_t(x) W_s(y)] = min(t, s) q(x, y).
    grid = TimeGrid(0.5, 4)
    coeff = _ensemble_coefficients(SPEC, grid, RandomStream(19), 10_000)
    ex, ey = BASIS.evaluate(0.25), BASIS.evaluate(0.8)
    closed = 1.0 * float(np.sum(SPEC.eigenvalues * ex * ey))
    stats = pairwise_stats((coeff[:, 4, :] @ ex) * (coeff[:, 2, :] @ ey))
    assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_independent_increments():
    grid = TimeGrid(0.25, 8)
    inc = sample_increments_block(SPEC, BASIS, grid, RandomStream(23), 0, 5_000)
    early = inc[:, :2, 0].sum(axis=1)  # W(0.5) - W(0)
    late = inc[:, 4:6, 0].sum(axis=1)  # W(1.5) - W(1.0)
    corr = np.corrcoef(early, late)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(len(early))


def _ito_sums(spec, phi, inc):
    """Per-mode Ito sums sqrt(q_n) sum_k Phi_n(t_k) dW_n(t_k), [S, N]."""
    return np.sqrt(spec.eigenvalues) * np.sum(phi * inc, axis=1)


def test_ito_integral_zero_integrand():
    grid = TimeGrid(0.1, 10)
    inc = sample_increments_block(SPEC, BASIS, grid, RandomStream(29), 0, 1)
    assert np.all(_ito_sums(SPEC, np.zeros((10, N_MODES)), inc) == 0.0)


def test_ito_integral_constant_recovers_path():
    # A constant integrand of one sums the increments: the field
    # coefficients at the final time.
    grid = TimeGrid(0.1, 10)
    inc = sample_increments_block(SPEC, BASIS, grid, RandomStream(31), 0, 1)
    out = _ito_sums(SPEC, np.ones((10, N_MODES)), inc)
    coeff = _ensemble_coefficients(SPEC, grid, RandomStream(31), 1)
    np.testing.assert_allclose(out[0], coeff[0, -1], rtol=1e-12)
    np.testing.assert_array_equal(out[0], np.sqrt(SPEC.eigenvalues) * inc[0].sum(axis=0))


def test_ito_integral_mean_zero():
    grid = TimeGrid(0.05, 20)
    inc = sample_increments_block(SPEC, BASIS, grid, RandomStream(37), 0, 5_000)
    phi = np.cos(grid.times[:-1])[:, np.newaxis]
    sums = np.sqrt(SPEC.eigenvalues) * np.sum(phi * inc, axis=1)
    stats = pairwise_stats(sums[:, 0])
    assert abs(stats.mean) <= 3 * stats.stderr


def test_scalar_ito_isometry():
    # E [int_0^T sin(pi s) dW_n]^2 = int_0^T sin^2(pi s) ds (quadrature oracle).
    # One mode: the isometry reads mode 1 alone, so no other mode is drawn.
    grid = TimeGrid(1e-3, 1000)
    spec = CovarianceSpectrum([1.0])
    inc = sample_increments_block(spec, DirichletBasis(1.0, 1), grid, RandomStream(41), 0, 10_000)
    integrals = np.sum(np.sin(np.pi * grid.times[:-1])[:, np.newaxis] * inc, axis=1)
    oracle, _ = quad(lambda s: np.sin(np.pi * s) ** 2, 0.0, 1.0)
    stats = pairwise_stats(integrals[:, 0] ** 2)
    assert abs(stats.mean - oracle) <= 3 * stats.stderr


def test_generalized_ito_isometry_diagonal():
    # E <int_0^a F dW, int_0^b G dW> = sum_n q_n int_0^{min(a,b)} F_n G_n.
    grid = TimeGrid(0.05, 20)
    t_left = grid.times[:-1]
    f_phi = np.stack([np.sin((n + 1) * t_left) for n in range(N_MODES)], axis=1)
    g_phi = np.stack([np.cos((n + 1) * t_left) for n in range(N_MODES)], axis=1)
    k_a, k_b = 20, 12  # a = 1.0, b = 0.6
    inc = sample_increments_block(SPEC, BASIS, grid, RandomStream(43), 0, 10_000)
    f_int = np.sum(f_phi[np.newaxis, :k_a] * inc[:, :k_a], axis=1)
    g_int = np.sum(g_phi[np.newaxis, :k_b] * inc[:, :k_b], axis=1)
    inner = np.sum(SPEC.eigenvalues * f_int * g_int, axis=1)
    # Discrete left-endpoint quadrature of the cross integrand up to min(a, b).
    closed = float(
        np.sum(SPEC.eigenvalues * np.sum(f_phi[:k_b] * g_phi[:k_b], axis=0) * grid.dt)
    )
    stats = pairwise_stats(inner)
    assert abs(stats.mean - closed) <= 3 * stats.stderr


def test_dimension_mismatch_rejected():
    small = DirichletBasis(1.0, 3)
    with pytest.raises(ValueError):
        sample_increments_block(SPEC, small, TimeGrid(0.1, 5), RandomStream(1), 0, 2)


@pytest.mark.parametrize("shape", [(4, 10), (3, 10, 5, 2)])
@pytest.mark.parametrize("rows", [1, 3, 10])
def test_running_sums_match_one_cumsum(monkeypatch, shape, rows):
    # Slices of 1, 3 and all 10 rows give the bits of one cumulative sum
    # with a zero row prepended, time-major: the first slice leads with that
    # zero row, and each later slice's rows start where the previous one
    # stopped.  So do both branches, the row adds (every row at least one
    # entry wide) and the np.cumsum (no row wide enough to add), also when
    # the caller overwrites each slice's sums, since the carry is the
    # helper's own copy.
    batch, steps, *rest = shape
    inc = np.random.default_rng(3).standard_normal(shape)
    expected = np.concatenate([np.zeros((batch, 1, *rest)), np.cumsum(inc, axis=1)], axis=1)
    for width, overwrite in itertools.product((1, sys.maxsize), (False, True)):
        monkeypatch.setattr(wiener, "_ROW_ADD_MIN_WIDTH", width)
        slices = [inc[:, a : a + rows].copy() for a in range(0, steps, rows)]
        out = []
        for r0, sums in running_sums(slices):
            out.append((r0, sums.copy()))
            if overwrite:
                sums.fill(np.nan)
        assert [r0 for r0, _ in out] == [0] + list(range(rows + 1, steps + 1, rows))
        assert out[0][1].shape == (rows + 1, batch, *rest)
        assert np.array_equal(out[0][1][0], np.zeros((batch, *rest)))
        got = np.concatenate([sums for _, sums in out])
        assert np.array_equal(got, expected.swapaxes(0, 1)), (width, overwrite)
