"""Acceptance suite: one check per criterion, at the stated tolerances.

Each test prints a single ``ACCEPTANCE <n>: PASS|FAIL`` line (visible with
``pytest -s`` and in failure output).  Criterion 3 is split in two: one test
verifies the mean, variance, covariance and energy-variance closed forms; the
other checks the mean energy, which the forcing pumps at rate eps^2 Tr(Q)/2
(Ito's formula), and also checks that the constant-mean-energy claim
E E(t) = E(0) is rejected by the same Monte Carlo data.
"""

import math
import time
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from spde_lab import burgers, heat, lyapunov, wave, wiener
from spde_lab.cli import run as cli_run
from spde_lab.hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector
from spde_lab.montecarlo import RandomStream, block_moments, map_blocks, pairwise_stats

PI2 = math.pi**2


def _verdict(criterion: str, ok: bool, detail: str, started: float, limit: float):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}")
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget"
    return ok


def _burgers_block(prob, grid, stream, start, stop):
    """A block's Burgers energy traces and their moments, as map_blocks takes them."""
    e2 = burgers.trace_block(prob, grid, stream, start, stop)
    return e2, block_moments(e2)


def _wiener_coefficients(spec, basis, grid, stream, samples):
    inc = wiener.sample_increments_block(spec, basis, grid, stream, 0, samples)
    paths = np.concatenate(
        [np.zeros((samples, 1, basis.n_modes)), np.cumsum(inc, axis=1)], axis=1
    )
    return np.sqrt(spec.eigenvalues) * paths


def test_criterion_1_wiener_trace_identity():
    started = time.time()
    n, t_final, samples = 64, 2.0, 10_000
    spec = CovarianceSpectrum.power(2.0, n)
    basis = DirichletBasis(1.0, n)
    grid = wiener.TimeGrid(2.0, 1)
    coeff = _wiener_coefficients(spec, basis, grid, RandomStream(101), samples)
    stats = pairwise_stats(np.sum(coeff[:, 1, :] ** 2, axis=1) / t_final)
    z = (stats.mean - spec.trace) / stats.stderr
    ok = abs(z) <= 3
    _verdict("1", ok, f"||W_t||^2/t vs Tr(Q): z={z:.2f}", started, 10.0)
    assert ok


def test_criterion_2_bilinear_covariance_identity():
    started = time.time()
    n, samples = 64, 10_000
    spec = CovarianceSpectrum.power(2.0, n)
    basis = DirichletBasis(1.0, n)
    grid = wiener.TimeGrid(1.0, 2)  # s = 1, t = 2
    coeff = _wiener_coefficients(spec, basis, grid, RandomStream(112), samples)
    rng = np.random.default_rng(2024)
    zs = []
    for _ in range(5):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        closed = 1.0 * float((spec.eigenvalues * a) @ b)
        stats = pairwise_stats((coeff[:, 2, :] @ a) * (coeff[:, 1, :] @ b))
        zs.append(float((stats.mean - closed) / stats.stderr))
    ok = all(abs(z) <= 3 for z in zs)
    _verdict("2", ok, "5 random (a,b) pairs, max |z|=%.2f" % max(map(abs, zs)), started, 10.0)
    assert ok


def _wave_configs():
    single = wave.WaveProblem.from_initial_conditions(
        HilbertVector.unit(8, 1),
        HilbertVector.unit(8, 2),
        wave_speed=1.0,
        length=1.0,
        epsilon=1.0,
        spectrum=CovarianceSpectrum.parse("finite:1", 8),
    )
    f = np.zeros(16)
    f[0], f[2] = 1.0, 0.5
    power = wave.WaveProblem.from_initial_conditions(
        HilbertVector(f),
        HilbertVector.unit(16, 2),
        wave_speed=1.3,
        length=1.0,
        epsilon=0.7,
        spectrum=CovarianceSpectrum.power(2.0, 16),
    )
    return {"single-mode": single, "power:2": power}


def _wave_covariance_oracle(prob, t, s):
    """Quadrature assembly of Cov(u(t), u(s)) from the three base integrals."""
    m = min(t, s)
    total = 0.0
    for idx in range(prob.n_modes):
        mu = prob.angular_freqs[idx]
        q_n = prob.spectrum.eigenvalues[idx]
        if q_n == 0:
            continue
        i_ss, _ = quad(lambda r: np.sin(mu * r) ** 2, 0, m, limit=400)
        i_cc, _ = quad(lambda r: np.cos(mu * r) ** 2, 0, m, limit=400)
        i_sc, _ = quad(lambda r: np.sin(mu * r) * np.cos(mu * r), 0, m, limit=400)
        total += (prob.epsilon**2 * q_n / mu**2) * (
            i_ss * np.cos(mu * t) * np.cos(mu * s)
            + i_cc * np.sin(mu * t) * np.sin(mu * s)
            - i_sc * (np.cos(mu * t) * np.sin(mu * s) + np.cos(mu * s) * np.sin(mu * t))
        )
    return total


WAVE_GRID = wiener.TimeGrid(0.25, 8)
WAVE_CHECK = [2, 3, 4, 6, 8]
WAVE_PAIRS = [(8, 4), (8, 2), (6, 3), (4, 2), (8, 8)]


def test_criterion_3_wave_statistics():
    started = time.time()
    samples = 10_000
    worst = {"mean": 0.0, "var": 0.0, "cov": 0.0, "evar": 0.0, "oracle": 0.0}
    for name, prob in _wave_configs().items():
        u, v = wave.simulate_block(prob, WAVE_GRID, RandomStream(103), 0, samples)
        for x in (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6):
            stats = pairwise_stats(u[:, -1, :] @ prob.basis.evaluate(x))
            z = (stats.mean - wave.mean_solution(prob, x, 2.0)) / stats.stderr
            worst["mean"] = max(worst["mean"], abs(z))
        for k in WAVE_CHECK:
            t = WAVE_GRID.times[k]
            dev = u[:, k, :] - wave.mean_coefficients(prob, t).coeffs
            stats = pairwise_stats(np.sum(dev**2, axis=1))
            z = (stats.mean - wave.variance_closed_form(prob, t)) / stats.stderr
            worst["var"] = max(worst["var"], abs(z))
        for k_t, k_s in WAVE_PAIRS:
            t, s = WAVE_GRID.times[k_t], WAVE_GRID.times[k_s]
            dev_t = u[:, k_t, :] - wave.mean_coefficients(prob, t).coeffs
            dev_s = u[:, k_s, :] - wave.mean_coefficients(prob, s).coeffs
            stats = pairwise_stats(np.sum(dev_t * dev_s, axis=1))
            closed = wave.covariance_closed_form(prob, t, s)
            z = (stats.mean - closed) / stats.stderr
            worst["cov"] = max(worst["cov"], abs(z))
            worst["oracle"] = max(
                worst["oracle"], abs(closed - _wave_covariance_oracle(prob, t, s))
            )
        energies = wave.energy_block(prob, u, v)
        for k in WAVE_CHECK:
            t = WAVE_GRID.times[k]
            e_t = energies[:, k]
            stats = pairwise_stats((e_t - e_t.mean()) ** 2)
            z = (stats.mean - wave.energy_variance_closed_form(prob, t)) / stats.stderr
            worst["evar"] = max(worst["evar"], abs(z))
    ok = (
        max(worst["mean"], worst["var"], worst["cov"], worst["evar"]) <= 3
        and worst["oracle"] <= 1e-10
    )
    _verdict(
        "3 (mean/var/cov/VarE + oracle)",
        ok,
        "max |z|: mean=%.2f var=%.2f cov=%.2f VarE=%.2f; oracle gap=%.1e"
        % (worst["mean"], worst["var"], worst["cov"], worst["evar"], worst["oracle"]),
        started,
        60.0,
    )
    assert ok


def test_criterion_3_wave_mean_energy_constancy_as_printed():
    # Ito's formula on E = (1/2) sum_n (v_n^2 + mu_n^2 u_n^2) gives
    # dE = sum_n eps sqrt(q_n) v_n dW_n + (eps^2 / 2) Tr(Q) dt, so the mean
    # energy is E(0) + eps^2 t Tr(Q)/2, not the constant E(0) of the claim
    # as printed (see the wave.mean_energy_drift docstring and the README).
    # The test asserts the pumped law at |z| <= 3 and that the same data
    # reject the constant-mean-energy claim at |z| > 3.
    started = time.time()
    samples = 10_000
    worst_pumped = 0.0
    least_constant = math.inf
    for prob in _wave_configs().values():
        u, v = wave.simulate_block(prob, WAVE_GRID, RandomStream(103), 0, samples)
        energies = wave.energy_block(prob, u, v)
        e0 = wave.initial_energy(prob)
        for k in WAVE_CHECK:
            t = WAVE_GRID.times[k]
            stats = pairwise_stats(energies[:, k])
            pumped = e0 + 0.5 * prob.epsilon**2 * t * prob.spectrum.trace
            z_pumped = (stats.mean - pumped) / stats.stderr
            z_constant = (stats.mean - e0) / stats.stderr
            worst_pumped = max(worst_pumped, abs(z_pumped))
            least_constant = min(least_constant, abs(z_constant))
    ok = worst_pumped <= 3 and least_constant > 3
    _verdict(
        "3 (mean energy: E(0) + eps^2 t Tr(Q)/2 holds, constant E(0) rejected)",
        ok,
        f"max |z| vs pumped law={worst_pumped:.2f}; "
        f"min |z| vs E(0)={least_constant:.1f}",
        started,
        60.0,
    )
    assert ok


def test_criterion_4_mode_isolation():
    started = time.time()
    n = 64
    f = HilbertVector(np.linspace(1.0, 0.1, n))
    g = HilbertVector(np.linspace(-0.5, 0.2, n))
    prob = wave.WaveProblem.from_initial_conditions(
        f, g, wave_speed=1.0, length=1.0, epsilon=1.0,
        spectrum=CovarianceSpectrum.parse("finite:1", n),
    )
    grid = wiener.TimeGrid(0.1, 10)
    u, v = wave.simulate_block(prob, grid, RandomStream(104), 0, 64)
    mu = prob.angular_freqs
    det_u = prob.cos_amps * np.cos(mu * grid.times[:, np.newaxis]) + (
        prob.sin_amps * np.sin(mu * grid.times[:, np.newaxis])
    )
    det_v = mu * (
        prob.sin_amps * np.cos(mu * grid.times[:, np.newaxis])
        - prob.cos_amps * np.sin(mu * grid.times[:, np.newaxis])
    )
    ok = np.array_equal(
        u[:, :, 1:], np.broadcast_to(det_u[:, 1:], u[:, :, 1:].shape)
    ) and np.array_equal(v[:, :, 1:], np.broadcast_to(det_v[:, 1:], v[:, :, 1:].shape))
    _verdict("4", ok, "modes 2..64 bit-identical to deterministic formulas", started, 1.0)
    assert ok


def test_criterion_5_heat_statistics():
    started = time.time()
    samples = 10_000
    prob = heat.HeatProblem(0.5, [1.0, 0.0, 0.0, 0.0])
    grid = wiener.TimeGrid(0.05, 4)
    _, u = heat.simulate_block(prob, grid, RandomStream(105), 0, samples)
    zs = []
    for x in (0.25, 0.5, 0.75):
        closed = float(heat.mean_closed_form(prob, 0.2).evaluate(prob.basis, x))
        stats = pairwise_stats(u[:, 4, :] @ prob.basis.evaluate(x))
        zs.append(float((stats.mean - closed) / stats.stderr))
    var_cols = {}
    for k in (1, 2, 3, 4):
        t = grid.times[k]
        dev = u[:, k, :] - heat.mean_closed_form(prob, t).coeffs
        var_cols[k] = np.sum(dev**2, axis=1)
        stats = pairwise_stats(var_cols[k])
        zs.append(float((stats.mean - heat.variance_closed_form(prob, t)) / stats.stderr))
    for k_t, k_s in ((4, 2), (4, 1), (3, 2)):
        t, s = grid.times[k_t], grid.times[k_s]
        dev_t = u[:, k_t, :] - heat.mean_closed_form(prob, t).coeffs
        dev_s = u[:, k_s, :] - heat.mean_closed_form(prob, s).coeffs
        cov_col = np.sum(dev_t * dev_s, axis=1)
        stats = pairwise_stats(cov_col)
        zs.append(
            float((stats.mean - heat.covariance_closed_form(prob, t, s)) / stats.stderr)
        )
        batches = np.array_split(np.arange(samples), 20)
        corr = np.array(
            [
                cov_col[idx].mean()
                / np.sqrt(var_cols[k_t][idx].mean() * var_cols[k_s][idx].mean())
                for idx in batches
            ]
        )
        closed_corr = heat.correlation_closed_form(prob, t, s)
        zs.append(float((corr.mean() - closed_corr) / (corr.std(ddof=1) / np.sqrt(20))))
    self_corr = heat.correlation_closed_form(prob, 0.1, 0.1)
    ok = all(abs(z) <= 3 for z in zs) and self_corr == 1.0
    _verdict(
        "5",
        ok,
        "mean/var/cov/corr max |z|=%.2f; corr(t,t)=%r" % (max(map(abs, zs)), self_corr),
        started,
        10.0,
    )
    assert ok


def test_criterion_6_lyapunov_deterministic():
    started = time.time()
    cases = [
        (0.0, (1.0, 0.0, 0.0, 0.0)),
        (PI2, (1.0, 0.0, 0.0, 0.0)),
        (1.0, (0.0, 1.0, 0.0, 0.0)),
        (-2.0, (0.0, 0.0, 1.0, 0.0)),
        (0.5, (1.0, 0.2, 0.1, 0.0)),
    ]
    grid = wiener.TimeGrid(0.01, 1000)
    worst = 0.0
    for alpha, coeffs in cases:
        prob = lyapunov.LyapunovProblem(alpha, alpha, 0.0, np.asarray(coeffs))
        est = lyapunov.estimate_from_path(prob, grid, RandomStream(106))
        worst = max(worst, abs(est.slope - lyapunov.exponent_deterministic(prob)))
    ok = worst < 1e-9
    _verdict("6", ok, f"5 cases, worst |slope - formula| = {worst:.2e}", started, 5.0)
    assert ok


def test_criterion_7_lyapunov_stochastic():
    started = time.time()
    prob = lyapunov.LyapunovProblem(0.0, 0.0, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
    target = -PI2 - 0.5

    def median_error(t_final, dt):
        grid = wiener.TimeGrid(dt, int(round(t_final / dt)))
        slopes = [
            lyapunov.estimate_from_path(prob, grid, RandomStream(107).child(k)).slope
            for k in range(16)
        ]
        return float(np.median(slopes)), float(np.median(np.abs(np.array(slopes) - target)))

    med_100, err_100 = median_error(100.0, 0.05)
    band = 3 * 1.0 / math.sqrt(0.9 * 100.0)
    _, err_25 = median_error(25.0, 0.05)
    _, err_400 = median_error(400.0, 0.05)
    ok = abs(med_100 - target) <= band and err_400 < err_25
    _verdict(
        "7",
        ok,
        "median slope %.4f vs %.4f (band %.3f); median err T=25/100/400: %.3f/%.3f/%.3f"
        % (med_100, target, band, err_25, err_100, err_400),
        started,
        30.0,
    )
    assert ok


def test_criterion_8_stabilization_identity():
    started = time.time()
    ok = True
    for alpha, coeffs in [(0.3, (1.0, 0.0)), (-1.7, (0.0, 2.0)), (PI2, (0.5, 0.5))]:
        prob = lyapunov.LyapunovProblem(alpha, alpha, 2.0, np.asarray(coeffs))
        ok = ok and (
            lyapunov.exponent_stochastic(prob)
            == lyapunov.exponent_deterministic(prob) - 2.0
        )
    _verdict("8", ok, "exponent shift is exactly -gamma^2/2 = -2", started, 1.0)
    assert ok


def test_criterion_9_burgers_additive_bound():
    started = time.time()
    n = 64
    u0 = HilbertVector.unit(n, 1, 0.5).coeffs
    grid = wiener.TimeGrid(1e-3, 2000)
    worst_gap = -math.inf
    for nu in (0.05, 0.5):
        for sigma in (0.25, 1.0):
            for spectxt in ("finite:1", "power:2"):
                spec = CovarianceSpectrum.parse(spectxt, n)
                prob = burgers.BurgersProblem(
                    nu, 1.0, sigma, burgers.AdditiveNoise(spec), u0
                )
                e2, moments = map_blocks(
                    partial(_burgers_block, prob, grid, RandomStream(109)), 500
                )
                assert not np.isnan(e2).any()
                stats = moments.stats()
                bound = burgers.energy_bound(
                    prob, grid.times, float(np.sum(u0**2))
                )
                gap = np.asarray(stats.mean) - bound - 3 * np.asarray(stats.stderr)
                worst_gap = max(worst_gap, float(gap.max()))
    rng = np.random.default_rng(7)
    prob = burgers.BurgersProblem(
        0.5, 1.0, 1.0, burgers.AdditiveNoise(CovarianceSpectrum.power(2.0, n)), u0
    )
    worst_skew = 0.0
    for _ in range(100):
        state = rng.standard_normal(n) / np.arange(1, n + 1)
        nl = burgers.skew_nonlinearity(prob, state)
        worst_skew = max(
            worst_skew,
            abs(float(state @ nl)) / (np.linalg.norm(state) * np.linalg.norm(nl)),
        )
    ok = worst_gap <= 0 and worst_skew <= 1e-10
    _verdict(
        "9",
        ok,
        f"8 configs dominated (worst mean-bound-3SE gap {worst_gap:.2e}); "
        f"skew orthogonality {worst_skew:.1e}",
        started,
        300.0,
    )
    assert ok


def test_criterion_10_burgers_multiplicative_and_chebyshev():
    started = time.time()
    n = 64
    u0 = HilbertVector.unit(n, 1, 0.5).coeffs
    e0 = float(np.sum(u0**2))
    nu, sigma = 0.5, 1.0
    assert sigma**2 < 2 * nu * PI2  # decaying regime
    prob = burgers.BurgersProblem(nu, 1.0, sigma, burgers.MultiplicativeNoise(), u0)
    grid = wiener.TimeGrid(1e-3, 2000)
    e2 = burgers.trace_block(prob, grid, RandomStream(110), 0, 1000)
    assert not np.isnan(e2).any()
    stats = pairwise_stats(e2)
    bound = burgers.energy_bound(prob, grid.times, e0)
    gap = np.asarray(stats.mean) - bound - 3 * np.asarray(stats.stderr)
    delta = 0.6
    cheb_ok = True
    for k in (500, 1000, 2000):
        p_hat = float((e2[:, k] >= delta**2).mean())
        se = math.sqrt(p_hat * (1 - p_hat) / e2.shape[0])
        cheb = burgers.exit_probability_bound(prob, grid.times[k], e0, delta)
        cheb_ok = cheb_ok and p_hat <= cheb + 3 * se
    ok = float(gap.max()) <= 0 and cheb_ok
    _verdict(
        "10",
        ok,
        f"bound dominated (worst gap {float(gap.max()):.2e}); exit frequencies below "
        f"Chebyshev at delta={delta}",
        started,
        300.0,
    )
    assert ok


def test_criterion_11_reproducibility(tmp_path, capsys):
    started = time.time()
    digests = {}
    base = [
        "burgers", "--noise", "additive", "--spectrum", "power:2", "--modes", "24",
        "--nu", "0.5", "--sigma", "0.25", "--dt", "0.002", "--t-final", "0.4",
        "--samples", "96", "--seed", "113",
    ]
    for w in (1, 2, 8):
        out = tmp_path / f"w{w}"
        code = cli_run(base + ["--workers", str(w), "--out", str(out)])
        assert code == 0
        digests[w] = {
            name: (out / name).read_bytes()
            for name in ("report.csv", "series_energy.csv")
        }
    capsys.readouterr()
    ok = digests[1] == digests[2] == digests[8]
    _verdict("11", ok, "data CSVs byte-identical for workers 1/2/8", started, 60.0)
    assert ok
