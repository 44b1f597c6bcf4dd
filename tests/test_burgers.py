import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spde_lab import burgers, montecarlo
from spde_lab.burgers import (
    AdditiveNoise,
    BurgersProblem,
    MultiplicativeNoise,
    StepSizeError,
    dt_max,
    energy_bound,
    exit_probability_bound,
    skew_nonlinearity,
    trace_block,
)
from spde_lab.hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector
from spde_lab.montecarlo import RandomStream, block_moments, map_blocks
from spde_lab.wiener import TimeGrid

N = 32


def _additive(nu=0.1, sigma=0.5, spectrum="power:2", amp=0.5, length=1.0, poincare_c=None):
    spec = CovarianceSpectrum.parse(spectrum, N)
    u0 = HilbertVector.unit(N, 1, amp).coeffs
    return BurgersProblem(nu, length, sigma, AdditiveNoise(spec), u0, poincare_c)


def _multiplicative(nu=0.5, sigma=1.0, amp=0.5):
    u0 = HilbertVector.unit(N, 1, amp).coeffs
    return BurgersProblem(nu, 1.0, sigma, MultiplicativeNoise(), u0)


def _traced_block(prob, grid, stream, start, stop):
    """A block's energy traces and their moments, the pair map_blocks takes."""
    e2 = trace_block(prob, grid, stream, start, stop)
    return e2, block_moments(e2)


def _ensemble(prob, grid, samples, stream, workers=1):
    """Energy traces of an ensemble and their statistics, reduced as the CLI
    reduces them: per block, then merged."""
    e2, moments = map_blocks(partial(_traced_block, prob, grid, stream), samples, workers=workers)
    return e2, moments.stats()


def test_problem_validation():
    u0 = HilbertVector.unit(N, 1).coeffs
    with pytest.raises(ValueError):
        BurgersProblem(0.0, 1.0, 1.0, MultiplicativeNoise(), u0)
    with pytest.raises(ValueError):
        BurgersProblem(0.1, 1.0, 1.0, MultiplicativeNoise(), u0, poincare_c=0.05)
    with pytest.raises(ValueError):
        BurgersProblem(0.1, 1.0, 1.0, AdditiveNoise(CovarianceSpectrum.power(2, 4)), u0)
    prob = BurgersProblem(0.1, 1.0, 1.0, MultiplicativeNoise(), u0)
    assert prob.poincare_c == pytest.approx((1.0 / math.pi) ** 2)


def test_zero_state_is_fixed_point():
    prob = BurgersProblem(
        0.1, 1.0, 0.0, AdditiveNoise(CovarianceSpectrum.power(2, N)), np.zeros(N)
    )
    grid = TimeGrid(1e-3, 50)
    e2 = trace_block(prob, grid, RandomStream(1), 0, 1)
    np.testing.assert_array_equal(e2[0], np.zeros(grid.steps + 1))


def test_noiseless_energy_monotone():
    prob = _additive(sigma=0.0)
    grid = TimeGrid(1e-3, 500)
    e2 = trace_block(prob, grid, RandomStream(2), 0, 1)
    assert not np.isnan(e2).any()
    assert np.all(np.diff(e2[0]) <= 1e-15)


@pytest.mark.parametrize("length", [1.0, 2.0])
@pytest.mark.parametrize("nu", [0.05, 0.5])
@pytest.mark.parametrize("noise", ["additive", "multiplicative"])
def test_noiseless_energy_within_bound_at_every_step(noise, nu, length):
    # At sigma = 0 the projected substep keeps ||u|| and the decay shrinks
    # it by at least exp(-nu lambda_1 dt), so every grid energy is at most
    # the Gronwall bound e0 exp(-2 nu t / c).  The bare explicit substep
    # adds dt^2 ||N(u)||^2 per step and crossed it at early times.
    model = (AdditiveNoise(CovarianceSpectrum.parse("power:2", N)) if noise == "additive"
             else MultiplicativeNoise())
    u0 = HilbertVector.unit(N, 1, 0.5).coeffs
    prob = BurgersProblem(nu, length, 0.0, model, u0)
    grid = TimeGrid(1e-3, 200)
    e2 = trace_block(prob, grid, RandomStream(18), 0, 2)
    bound = energy_bound(prob, grid.times, float(u0 @ u0))
    assert np.all(e2 <= bound * (1 + 1e-12))


def test_projection_changes_the_substep_at_second_order():
    # With unit decay and no noise, _apply_step is the projected substep.
    # Its distance from u + dt N(u) is ||u + dt N|| - ||u|| = O(dt^2), so
    # each halving of dt divides it by about 4: the projection removes
    # only the substep's second-order energy drift.
    prob = _additive()
    state = np.random.default_rng(19).standard_normal((8, N)) / np.arange(1, N + 1)
    norm = np.linalg.norm(state, axis=1)
    unit = (np.ones(N), np.zeros(0))
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        projected = burgers._apply_step(prob, state, dt, unit, np.zeros((8, 0)))
        bare = state + dt * skew_nonlinearity(prob, state)
        np.testing.assert_allclose(np.linalg.norm(projected, axis=1), norm, rtol=1e-13)
        errors.append(np.max(np.linalg.norm(projected - bare, axis=1) / norm))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_skew_nonlinearity_orthogonal_to_state():
    prob = _additive()
    rng = np.random.default_rng(3)
    for _ in range(100):
        state = rng.standard_normal(N) / np.arange(1, N + 1)
        nl = skew_nonlinearity(prob, state)
        bound = 1e-10 * np.linalg.norm(state) * np.linalg.norm(nl)
        assert abs(float(state @ nl)) <= bound


def test_nonlinearity_is_quadratic_transport():
    # Against a slow direct oracle: project -u u_x with fine quadrature.
    n = 6
    u0 = np.array([0.4, -0.2, 0.1, 0.0, 0.05, 0.0])
    prob = BurgersProblem(0.1, 1.0, 0.0, MultiplicativeNoise(), u0)
    basis = prob.basis
    x = np.linspace(0, 1, 4001)
    w = np.full(x.size, 1.0 / (x.size - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    modes = np.arange(1, n + 1)
    sin_vals = np.sqrt(2.0) * np.sin(np.outer(x, modes * np.pi))
    cos_vals = np.sqrt(2.0) * (modes * np.pi) * np.cos(np.outer(x, modes * np.pi))
    u_vals = sin_vals @ u0
    ux_vals = cos_vals @ u0
    oracle = sin_vals.T @ (w * (-u_vals * ux_vals))
    got = skew_nonlinearity(prob, u0)
    np.testing.assert_allclose(got, oracle, atol=1e-9)


def test_dt_max_scaling():
    prob = _additive(amp=0.5)
    limit = dt_max(prob, prob.init_coeffs)
    assert 0 < limit < math.inf
    assert dt_max(prob, np.zeros(N)) == math.inf
    # Doubling the state halves the limit.
    assert dt_max(prob, 2 * prob.init_coeffs) == pytest.approx(limit / 2, rel=1e-12)


def test_step_rejects_large_dt():
    # A time step above the CFL limit of the initial state is rejected; one
    # below it runs.
    prob = _additive()
    limit = dt_max(prob, prob.init_coeffs)
    with pytest.raises(StepSizeError):
        trace_block(prob, TimeGrid(1.5 * limit, 2), RandomStream(4), 0, 1)
    trace_block(prob, TimeGrid(0.5 * limit, 2), RandomStream(4), 0, 1)
    with pytest.raises(ValueError):
        TimeGrid(-0.1, 2)


def test_step_deterministic_given_key():
    prob = _additive()
    grid = TimeGrid(1e-3, 1)
    a = trace_block(prob, grid, RandomStream(5), 9, 10)
    b = trace_block(prob, grid, RandomStream(5), 9, 10)
    assert np.array_equal(a, b)


def test_additive_bound_evaluator_values():
    # t = 0 returns the initial energy; sigma = 0 is pure decay; the
    # large-time limit at nu = 1 is c sigma^2 l Tr(Q) / 2 = 1 / (2 pi^2).
    spec = CovarianceSpectrum([1.0] + [0.0] * (N - 1))
    u0 = HilbertVector.unit(N, 1, 0.1).coeffs
    prob = BurgersProblem(1.0, 1.0, 1.0, AdditiveNoise(spec), u0)
    e0 = float(np.sum(u0**2))
    assert energy_bound(prob, 0.0, e0) == e0
    limit = energy_bound(prob, 1e6, e0)
    assert limit == pytest.approx(1.0 / (2 * math.pi**2), rel=1e-9)
    assert limit == pytest.approx(0.050660, abs=1e-6)
    quiet = BurgersProblem(1.0, 1.0, 0.0, AdditiveNoise(spec), u0)
    c = quiet.poincare_c
    for t in (0.1, 0.5):
        assert energy_bound(quiet, t, e0) == pytest.approx(
            e0 * math.exp(-2 * t / c), rel=1e-12
        )


def test_multiplicative_bound_evaluator_values():
    prob = _multiplicative(nu=0.1, sigma=1.0)
    e0 = 0.25
    assert energy_bound(prob, 0.0, e0) == e0
    # Exponent sigma^2 - 2 nu / c = 1 - 0.2 pi^2.
    rate = 1.0 - 0.2 * math.pi**2
    assert rate == pytest.approx(-0.9739, abs=1e-4)
    assert energy_bound(prob, 2.0, e0) == pytest.approx(
        e0 * math.exp(2 * rate), rel=1e-12
    )
    # sigma^2 = 2 nu / c gives a constant bound.
    balanced = _multiplicative(nu=0.5, sigma=math.sqrt(2 * 0.5 * math.pi**2))
    assert energy_bound(balanced, 3.0, e0) == pytest.approx(e0, rel=1e-12)


def test_exit_probability_bound_values():
    prob = _multiplicative(nu=0.5, sigma=1.0)
    assert exit_probability_bound(prob, 0.0, 0.01, 1.0) == pytest.approx(0.01)
    assert exit_probability_bound(prob, 0.0, 5.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        exit_probability_bound(prob, 0.0, 0.01, 0.0)
    # Complement: stay probability >= 1 - exit bound.
    bound = exit_probability_bound(prob, 1.0, 0.01, 0.5)
    assert 0.0 <= 1.0 - bound <= 1.0


def test_additive_bound_dominates_monte_carlo():
    prob = _additive(nu=0.25, sigma=0.5)
    grid = TimeGrid(1e-3, 400)
    e2, stats = _ensemble(prob, grid, 200, RandomStream(7))
    assert not np.isnan(e2).any()
    bound = energy_bound(prob, grid.times, float(np.sum(prob.init_coeffs**2)))
    slack = np.asarray(stats.mean) - bound - 3 * np.asarray(stats.stderr)
    assert np.all(slack <= 0)


def test_multiplicative_bound_dominates_both_regimes():
    e0 = 0.25
    grid = TimeGrid(1e-3, 400)
    threshold = math.sqrt(2 * 0.5 * math.pi**2)
    for sigma in (0.8 * threshold, 1.1 * threshold):
        prob = _multiplicative(nu=0.5, sigma=sigma)
        e2, stats = _ensemble(prob, grid, 300, RandomStream(8))
        bound = energy_bound(prob, grid.times, e0)
        slack = np.asarray(stats.mean) - bound - 3 * np.asarray(stats.stderr)
        assert np.all(slack <= 0)
        assert not np.isnan(e2).any()


def test_chebyshev_exit_frequency():
    prob = _multiplicative(nu=0.5, sigma=1.0)
    grid = TimeGrid(1e-3, 500)
    e2 = trace_block(prob, grid, RandomStream(9), 0, 1000)
    assert not np.isnan(e2).any()
    e0 = float(np.sum(prob.init_coeffs**2))
    delta = 0.6
    for k in (100, 250, 500):
        p_hat = float((e2[:, k] >= delta**2).mean())
        se = math.sqrt(p_hat * (1 - p_hat) / e2.shape[0])
        bound = exit_probability_bound(prob, grid.times[k], e0, delta)
        assert p_hat <= bound + 3 * se


def test_refinement_stability():
    # Couple the coarse run to the fine run's noise (coarse increment =
    # scaled sum of the two fine increments) so the comparison isolates the
    # discretization bias from Monte Carlo noise.
    from spde_lab.burgers import _apply_step, _step_factors

    prob = _additive(nu=0.25, sigma=0.5)
    samples, fine_steps, dt = 200, 500, 1e-3
    draws = np.stack(
        [RandomStream(10).child(i).generator().standard_normal((fine_steps, N))
         for i in range(samples)]
    )
    fine = np.tile(prob.init_coeffs, (samples, 1))
    coarse = fine.copy()
    fine_factors, coarse_factors = _step_factors(prob, dt), _step_factors(prob, 2 * dt)
    for k in range(fine_steps):
        fine = _apply_step(prob, fine, dt, fine_factors, draws[:, k])
    for k in range(0, fine_steps, 2):
        coarse_draw = (draws[:, k] + draws[:, k + 1]) / np.sqrt(2.0)
        coarse = _apply_step(prob, coarse, 2 * dt, coarse_factors, coarse_draw)
    e2_fine = float(np.sum(fine**2, axis=1).mean())
    e2_coarse = float(np.sum(coarse**2, axis=1).mean())
    assert abs(e2_fine - e2_coarse) / e2_fine < 0.05


def _linear_z(monkeypatch, prob, grid, closed_form):
    """z-scores of the mean energy at t > 0 of 1000 samples run with the
    nonlinearity switched off, against ``closed_form`` [steps + 1]."""
    monkeypatch.setattr(burgers, "skew_nonlinearity", lambda prob, coeffs: np.zeros_like(coeffs))
    _, stats = _ensemble(prob, grid, 1000, RandomStream(16))
    mean, stderr = np.asarray(stats.mean)[1:], np.asarray(stats.stderr)[1:]
    return (mean - closed_form[1:]) / stderr


def test_exponential_euler_is_exact_in_law_for_the_linear_part(monkeypatch):
    # Without advection the additive scheme is exact in law at every grid
    # time: E||u(t)||^2 = sum_n [u0_n^2 e^{-2 nu lambda_n t}
    # + sigma^2 q_n (1 - e^{-2 nu lambda_n t}) / (2 nu lambda_n)], even at a
    # step where nu lambda_N dt = 25; the Euler-Maruyama gain
    # sigma sqrt(q dt) overshoots the high modes' variance there.
    prob = _additive(nu=0.25, sigma=1.0, spectrum="power:0", amp=0.2)
    grid = TimeGrid(0.01, 10)
    rate = 2 * prob.nu * prob.eigenvalues
    assert rate[-1] * grid.dt / 2 > 0.5
    decay = np.exp(-rate * grid.times[:, np.newaxis])
    q = prob.noise.spectrum.eigenvalues
    closed = np.sum(prob.init_coeffs**2 * decay + prob.sigma**2 * q * (1 - decay) / rate, axis=1)
    assert np.all(np.abs(_linear_z(monkeypatch, prob, grid, closed)) <= 3)

    exact = burgers._step_factors
    monkeypatch.setattr(burgers, "_step_factors", lambda prob, dt: (
        exact(prob, dt)[0], prob.sigma * np.sqrt(prob.noise.spectrum.eigenvalues * dt)))
    assert np.all(_linear_z(monkeypatch, prob, grid, closed) > 3)


def test_exponential_euler_multiplicative_moments(monkeypatch):
    # Without advection, u_n(t) = u0_n exp(-nu lambda_n t + sigma w(t)
    # - sigma^2 t / 2) exactly, so E u_n^2 = u0_n^2 e^{(sigma^2 - 2 nu lambda_n) t}.
    u0 = np.zeros(N)
    u0[:3] = [0.03, -0.02, 0.01]
    prob = BurgersProblem(0.05, 1.0, 1.0, MultiplicativeNoise(), u0)
    grid = TimeGrid(0.05, 10)
    rates = prob.sigma**2 - 2 * prob.nu * prob.eigenvalues
    closed = np.sum(u0**2 * np.exp(rates * grid.times[:, np.newaxis]), axis=1)
    assert np.all(np.abs(_linear_z(monkeypatch, prob, grid, closed)) <= 3)


def _skew_on_panels(coeffs, length, panels):
    """-(1/3)[u u_x + (u^2)_x] projected with the trapezoid rule on
    ``panels`` panels, the conservative part by parts."""
    n = coeffs.shape[-1]
    x, w = DirichletBasis(length, n).quadrature(panels)
    k = np.arange(1, n + 1) * np.pi / length
    values = np.sqrt(2 / length) * np.sin(np.outer(x[1:-1], k))
    derivs = np.sqrt(2 / length) * k * np.cos(np.outer(x[1:-1], k))
    u, ux = coeffs @ values.T, coeffs @ derivs.T
    return (-w[1] / 3) * ((u * ux) @ values - (u * u) @ derivs)


@pytest.mark.parametrize("n", [16, 64])
def test_skew_nonlinearity_at_the_three_halves_rule(n):
    # floor(3N/2) + 1 panels project every term exactly, as 4N panels do;
    # 3N/2 - 1 panels alias the top modes.  <u, N(u)> vanishes to roundoff.
    coeffs = np.random.default_rng(n).standard_normal((16, n))
    prob = BurgersProblem(0.1, 1.3, 0.0, MultiplicativeNoise(), coeffs[0])
    assert burgers._transforms(n, 1.3)[0].shape == (n, 3 * n // 2)
    got = skew_nonlinearity(prob, coeffs)
    want = _skew_on_panels(coeffs, 1.3, 4 * n)
    scale = np.max(np.abs(want), axis=1)
    assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)
    aliased = _skew_on_panels(coeffs, 1.3, 3 * n // 2 - 1)
    assert np.max(np.max(np.abs(aliased - want), axis=1) / scale) > 1e-3
    inner = np.abs(np.sum(coeffs * got, axis=1))
    assert np.all(inner <= 1e-13 * np.linalg.norm(coeffs, axis=1) * np.linalg.norm(got, axis=1))


def test_ensemble_worker_invariance(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 32)
    prob = _additive(nu=0.25, sigma=0.5)
    grid = TimeGrid(1e-3, 100)
    runs = {w: _ensemble(prob, grid, 96, RandomStream(11), workers=w) for w in (1, 2, 8)}
    e2, want = runs[1]
    for w in (2, 8):
        got_e2, got = runs[w]
        assert np.array_equal(got_e2, e2, equal_nan=True)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.stderr, want.stderr)


def test_ensemble_bytes_independent_of_blas_threads():
    # With the process at two BLAS threads, an ensemble of a full and a
    # ragged block (116 of 244 samples) at 64 modes has the bytes of the
    # one-thread run, in-process and pooled, as map_blocks runs every block
    # on one thread.  Where a product's last bits do not depend on the
    # thread count, as with numpy 2.4.6's bundled OpenBLAS on x86-64, this
    # holds even without that; test_map_blocks_runs_blocks_on_one_blas_thread
    # checks the thread count itself.
    calls = montecarlo._openblas()
    if calls is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, _ = calls
    spec = CovarianceSpectrum.parse("power:2", 64)
    prob = BurgersProblem(0.05, 1.0, 1.0, AdditiveNoise(spec), HilbertVector.unit(64, 1, 2.0).coeffs)
    grid = TimeGrid(1e-3, 100)
    run = partial(_ensemble, prob, grid, 244, RandomStream(11))
    before = montecarlo._set_blas_threads(1)
    try:
        want_e2, want = run()
        montecarlo._set_blas_threads(2)
        for workers in (1, 2):
            got_e2, got = run(workers=workers)
            assert get() == 2
            assert np.array_equal(got_e2, want_e2, equal_nan=True)
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.stderr, want.stderr)
    finally:
        montecarlo._set_blas_threads(before)


def test_trace_matches_single_sample():
    prob = _additive()
    grid = TimeGrid(1e-3, 50)
    block = trace_block(prob, grid, RandomStream(13), 0, 3)
    single = trace_block(prob, grid, RandomStream(13), 1, 2)
    np.testing.assert_allclose(block[1], single[0], rtol=1e-12, atol=1e-16)


@pytest.mark.parametrize("make", [_additive, _multiplicative])
def test_trace_block_independent_of_chunk_rows(monkeypatch, make):
    # Draws arrive one step at a time, then as one slice of all steps.
    prob = make()
    grid = TimeGrid(1e-3, 40)
    batch = 5
    per_step = N if isinstance(prob.noise, AdditiveNoise) else 1
    runs = []
    for chunk_bytes in (1, 8 * batch * per_step * grid.steps):
        monkeypatch.setattr(montecarlo, "CHUNK_BYTES", chunk_bytes)
        runs.append(trace_block(prob, grid, RandomStream(14), 3, 3 + batch))
    assert np.array_equal(runs[0], runs[1])


def _full_width_e2(prob, grid, z):
    """e2 of steps at the untrimmed gains of ``_step_factors``, with the
    draws z [B, steps, M] in columns [0, M) of zero-filled full-width draws."""
    factors = burgers._step_factors(prob, grid.dt)
    coeffs = np.tile(prob.init_coeffs, (z.shape[0], 1))
    want = [np.einsum("ij,ij->i", coeffs, coeffs)]
    for k in range(z.shape[1]):
        draws = np.zeros((z.shape[0], factors[1].size))
        draws[:, : z.shape[2]] = z[:, k]
        coeffs = burgers._apply_step(prob, coeffs, grid.dt, factors, draws)
        want.append(np.einsum("ij,ij->i", coeffs, coeffs))
    return np.stack(want, axis=1)


def test_trace_block_draws_only_the_forced_modes(monkeypatch):
    # Each sample draws [steps, M] from its own substream, one column per
    # gain up to the last nonzero one: M = 4 for finite:0,1,0,0.5 (gains
    # 0, g, 0, g' and four zeros), M = 1 for the shared multiplicative gain.
    # The run equals, bit for bit, full-width steps at the untrimmed gains.
    # At sigma = 0 nothing is drawn and the run is the noiseless recursion,
    # its substep rescaled to the old norm, to roundoff.
    n, steps, start, stop = 8, 30, 3, 8
    spec = CovarianceSpectrum.parse("finite:0,1,0,0.5", n)
    u0 = 0.5 * np.sin(np.arange(1.0, n + 1))
    grid = TimeGrid(1e-3, steps)
    shapes = []
    block_chunks = RandomStream.block_chunks

    def spy(stream, start, stop, shape):
        shapes.append(shape)
        return block_chunks(stream, start, stop, shape)

    monkeypatch.setattr(RandomStream, "block_chunks", spy)
    for noise, drawn in ((AdditiveNoise(spec), 4), (MultiplicativeNoise(), 1)):
        prob = BurgersProblem(0.1, 1.0, 0.5, noise, u0)
        z = np.stack([RandomStream(17).child(i).generator().standard_normal((steps, drawn))
                      for i in range(start, stop)])
        got = trace_block(prob, grid, RandomStream(17), start, stop)
        assert shapes.pop() == (steps, drawn)
        assert np.array_equal(got, _full_width_e2(prob, grid, z))

        still = BurgersProblem(0.1, 1.0, 0.0, noise, u0)
        decay = np.exp(-still.nu * still.eigenvalues * grid.dt)
        coeffs = np.tile(u0, (stop - start, 1))
        want = [np.einsum("ij,ij->i", coeffs, coeffs)]
        for k in range(steps):
            stepped = coeffs + grid.dt * skew_nonlinearity(still, coeffs)
            ratio = np.linalg.norm(coeffs, axis=1) / np.linalg.norm(stepped, axis=1)
            coeffs = decay * (stepped * ratio[:, np.newaxis])
            want.append(np.einsum("ij,ij->i", coeffs, coeffs))
        got = trace_block(still, grid, RandomStream(17), start, stop)
        assert shapes.pop() == (steps, 0)
        np.testing.assert_allclose(got, np.stack(want, axis=1), rtol=1e-13, atol=0)


def test_trace_block_memory_below_its_draws():
    # 128 samples x 64 forced modes x 500 steps: the whole-block draws are
    # 31 MiB, but only one time slice of them is held at a time.
    n, batch, steps = 64, 128, 500
    prob = BurgersProblem(
        0.05, 1.0, 1.0, AdditiveNoise(CovarianceSpectrum.parse("power:2", n)),
        HilbertVector.unit(n, 1, 0.5).coeffs,
    )
    tracemalloc.start()
    try:
        e2 = trace_block(prob, TimeGrid(1e-3, steps), RandomStream(15), 0, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert e2.shape == (batch, steps + 1)
    assert peak < 0.25 * (8 * batch * steps * n)
