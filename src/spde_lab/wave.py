"""Spectral solution of the stochastic wave equation with additive noise.

Each mode obeys a forced harmonic oscillator; displacement is

    u_n(t) = [A_n - g_n I_sin(t)] cos(mu_n t) + [B_n + g_n I_cos(t)] sin(mu_n t)

with mu_n = c n pi / l, gain g_n = epsilon sqrt(q_n) / mu_n and the running
stochastic integrals I_sin = int_0^t sin(mu_n s) dW_n, I_cos likewise with
cosine.  Per time step the increment pair (dI_sin, dI_cos) is drawn from
its exact bivariate Gaussian law (closed-form antiderivatives of sin^2,
cos^2 and sin*cos), so grid marginals carry no time-discretization bias.
The energy is formed from the amplitudes p_n and q_n (the brackets above),
E = (1/2) sum_n mu_n^2 (p_n^2 + q_n^2), so no velocity is carried.

All variance/covariance statistics are Hilbert-space (L2-in-x) moments
E<u - Eu, u - Eu>; pointwise-in-x variance is not provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector
from .montecarlo import RandomStream
from .wiener import TimeGrid, running_sums

# Schur complements below this relative size collapse to a rank-1 factor.
_CHOLESKY_PIVOT_TOL = 1e-14


def _check_speed_and_length(wave_speed: float, length: float) -> None:
    if wave_speed <= 0 or length <= 0:
        raise ValueError("wave speed and length must be positive")


@dataclass(frozen=True)
class WaveProblem:
    """Wave equation setup: speed, domain, noise intensity and initial data."""

    wave_speed: float
    length: float
    epsilon: float
    spectrum: CovarianceSpectrum
    cos_amps: np.ndarray
    sin_amps: np.ndarray

    def __post_init__(self):
        _check_speed_and_length(self.wave_speed, self.length)
        a = np.asarray(self.cos_amps, dtype=float)
        b = np.asarray(self.sin_amps, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("cos_amps and sin_amps must be equal-length vectors")
        if len(self.spectrum) != a.size:
            raise ValueError("spectrum length must match the number of modes")
        object.__setattr__(self, "cos_amps", a)
        object.__setattr__(self, "sin_amps", b)

    @property
    def n_modes(self) -> int:
        return len(self.cos_amps)

    @property
    def basis(self) -> DirichletBasis:
        return DirichletBasis(self.length, self.n_modes)

    @property
    def angular_freqs(self) -> np.ndarray:
        """mu_n = c n pi / l, strictly increasing."""
        return self.wave_speed * np.arange(1, self.n_modes + 1) * np.pi / self.length

    @classmethod
    def from_initial_conditions(
        cls,
        f: HilbertVector,
        g: HilbertVector,
        *,
        wave_speed: float,
        length: float,
        epsilon: float,
        spectrum: CovarianceSpectrum,
    ) -> "WaveProblem":
        """Displacement f and velocity g at t = 0: A_n = f_n, B_n = l g_n / (c n pi)."""
        if len(f) != len(g):
            raise ValueError("f and g must share the number of modes")
        _check_speed_and_length(wave_speed, length)  # before dividing by c
        n = np.arange(1, len(f) + 1)
        b = length / (wave_speed * n * np.pi) * g.coeffs
        return cls(wave_speed, length, epsilon, spectrum, f.coeffs.copy(), b)


def _increment_factors(prob: WaveProblem, grid: TimeGrid):
    """Factors of the per-step amplitude increments dp = -g l11 z1 and
    dq = g (l21 z1 + l22 z2) drawn from two standard normals (z1, z2).

    Returns g (-l11, l22) on a last axis [steps, N, 2] and g l21 [steps, N],
    where (l11, l21, l22) is the lower Cholesky factor of the per-step
    (dI_sin, dI_cos) covariance.  Over a step [t, t+dt] its exact moments are

        var(dI_sin) = dt/2 - [sin(2 mu (t+dt)) - sin(2 mu t)] / (4 mu)
        var(dI_cos) = dt/2 + [sin(2 mu (t+dt)) - sin(2 mu t)] / (4 mu)
        cov         = [cos(2 mu t) - cos(2 mu (t+dt))] / (4 mu)
    """
    mu = prob.angular_freqs
    phase = 2 * mu * grid.times[:, np.newaxis]
    sin2, cos2 = np.sin(phase), np.cos(phase)
    sin_term = (sin2[1:] - sin2[:-1]) / (4 * mu)
    var_sin = grid.dt / 2 - sin_term
    var_cos = grid.dt / 2 + sin_term
    cov = (cos2[:-1] - cos2[1:]) / (4 * mu)
    l11 = np.sqrt(var_sin)
    l21 = cov / l11
    schur = var_cos - l21**2
    schur = np.where(schur < _CHOLESKY_PIVOT_TOL * var_cos, 0.0, schur)
    gain = prob.epsilon * np.sqrt(prob.spectrum.eigenvalues) / mu
    return np.stack([-gain * l11, gain * np.sqrt(schur)], axis=-1), gain * l21


def simulate_block(
    prob: WaveProblem, grid: TimeGrid, stream: RandomStream, start: int, stop: int, keep=None
) -> tuple[np.ndarray, np.ndarray]:
    """Trajectories, or their summaries, for samples [start, stop).

    Sample i draws from ``stream.child(i)``, so a sample's path does not
    depend on the block it falls in; the grid values are exact in
    distribution.  Without ``keep``, returns (u, v) of shape
    [batch, steps+1, n_modes].  With grid indices ``keep``, returns
    (u_keep, energies) of shapes [batch, len(keep), n_modes] and
    [batch, steps+1]: u_keep equals ``u[:, keep]`` bit for bit, and the
    energies (1/2) sum_n mu_n^2 (p_n^2 + q_n^2) match
    ``energy_block(prob, u, v)`` to rtol 1e-12.

    Both forms walk the draws in the time slices of
    ``RandomStream.block_chunks``; each slice becomes in place the
    increments of the amplitudes (p, q) = (A - g I_sin, B + g I_cos), which
    :func:`~spde_lab.wiener.running_sums` sums time-major and carries from
    slice to slice, so no output bit depends on the slicing.  Each slice's
    sums become the amplitudes and then their squares in place, and the
    energies of its rows are written transposed.  Only the amplitudes at
    the kept rows (all rows without ``keep``) are held, sample-major, and u
    is formed from them.
    """
    diagonal, a21 = _increment_factors(prob, grid)
    amps = np.stack([prob.cos_amps, prob.sin_amps], axis=-1)
    mu = prob.angular_freqs
    rows = np.arange(grid.steps + 1) if keep is None else grid.indices(keep)

    def increments(a=0):
        for z in stream.block_chunks(start, stop, (grid.steps, prob.n_modes, 2)):
            b = a + z.shape[1]  # the steps a..b-1
            dq = a21[a:b] * z[..., 0]
            z *= diagonal[a:b]
            z[..., 1] += dq
            yield z
            a = b

    half_mu2 = np.repeat(0.5 * mu**2, 2)
    pq_keep = np.empty((stop - start, rows.size, prob.n_modes, 2))
    energies = np.empty((stop - start, grid.steps + 1))
    for r0, pq in running_sums(increments()):
        pq += amps
        r1 = r0 + len(pq)
        inside = (rows >= r0) & (rows < r1)
        pq_keep[:, inside] = pq[rows[inside] - r0].swapaxes(0, 1)
        sq = np.square(pq, out=pq).reshape(*pq.shape[:2], -1)
        # Not a BLAS product, whose sums depend on a row's place in the slice.
        energies[:, r0:r1] = np.einsum("...k,k", sq, half_mu2).T
    phase = mu * grid.times[rows, np.newaxis]
    c, s = np.cos(phase), np.sin(phase)
    p, q = pq_keep[..., 0], pq_keep[..., 1]
    u = p * c + q * s
    return (u, mu * (q * c - p * s)) if keep is None else (u, energies)


def mean_coefficients(prob: WaveProblem, t: float) -> HilbertVector:
    """Modal coefficients of the mean field A_n cos(mu_n t) + B_n sin(mu_n t)."""
    mu = prob.angular_freqs
    return HilbertVector(prob.cos_amps * np.cos(mu * t) + prob.sin_amps * np.sin(mu * t))


def mean_solution(prob: WaveProblem, x, t: float):
    """Mean field value at (x, t); independent of the noise intensity."""
    return mean_coefficients(prob, t).evaluate(prob.basis, x)


def variance_closed_form(prob: WaveProblem, t: float) -> float:
    """L2 variance: the covariance at s = t, which reduces to
    sum_n (eps^2 q_n / (2 mu_n^2)) [t - sin(2 mu_n t)/(2 mu_n)]."""
    return covariance_closed_form(prob, t, t)


def covariance_closed_form(prob: WaveProblem, t: float, s: float) -> float:
    """L2 covariance of the solution at times t and s.

    sum_n (eps^2 q_n / (2 mu_n^2)) [ m cos(mu(t-s))
        + sin(mu(t+s-2m))/(2 mu) - sin(mu(t+s))/(2 mu) ],  m = min(t, s).
    """
    if t < 0 or s < 0:
        raise ValueError("times must be nonnegative")
    m = min(t, s)
    mu = prob.angular_freqs
    q = prob.spectrum.eigenvalues
    terms = (
        m * np.cos(mu * (t - s))
        + np.sin(mu * (t + s - 2 * m)) / (2 * mu)
        - np.sin(mu * (t + s)) / (2 * mu)
    )
    return float(np.sum(prob.epsilon**2 * q / (2 * mu**2) * terms))


def energy_block(prob: WaveProblem, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Spectral energies (1/2) sum_n [v_n^2 + mu_n^2 u_n^2] of batched
    trajectories, shape [batch, steps+1]."""
    mu2 = prob.angular_freqs**2
    return 0.5 * np.sum(v**2 + mu2 * u**2, axis=-1)


def initial_energy(prob: WaveProblem) -> float:
    """E(0) = (1/2) sum_n mu_n^2 (A_n^2 + B_n^2); velocity at 0 is B_n mu_n."""
    mu2 = prob.angular_freqs**2
    return float(0.5 * np.sum(mu2 * (prob.cos_amps**2 + prob.sin_amps**2)))


def mean_energy_drift(prob: WaveProblem, t: float) -> float:
    """Linear-in-time pumping rate of the mean energy, (eps^2 t / 2) Tr(Q).

    The white-in-time forcing feeds energy at this deterministic rate (the
    Ito correction of the quadratic energy functional); the mean energy of
    the exact modal solution is E(0) plus this drift.  Reported alongside
    the constant-mean-energy diagnostic so systematic discrepancies are
    visible in reports.
    """
    return 0.5 * prob.epsilon**2 * prob.spectrum.trace * t


def energy_variance_closed_form(prob: WaveProblem, t: float) -> float:
    """Var E(t): initial-data term plus the accumulated-noise term.

    sum_n eps^2 q_n [ A^2 mu^2 (t/2 - sin(2 mu t)/(4 mu))
                    + B^2 mu^2 (t/2 + sin(2 mu t)/(4 mu))
                    - (A B mu / 2) (1 - cos(2 mu t)) ]
    + sum_n eps^4 q_n^2 [ t^2/4 + (1 - cos(2 mu t)) / (8 mu^2) ].
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    mu = prob.angular_freqs
    q = prob.spectrum.eigenvalues
    a, b = prob.cos_amps, prob.sin_amps
    sin2, cos2 = np.sin(2 * mu * t), np.cos(2 * mu * t)
    data_term = prob.epsilon**2 * q * (
        a**2 * mu**2 * (t / 2 - sin2 / (4 * mu))
        + b**2 * mu**2 * (t / 2 + sin2 / (4 * mu))
        - 0.5 * a * b * mu * (1 - cos2)
    )
    noise_term = prob.epsilon**4 * q**2 * (t**2 / 4 + (1 - cos2) / (8 * mu**2))
    return float(np.sum(data_term) + np.sum(noise_term))
