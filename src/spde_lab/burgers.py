"""Stochastic Burgers solver on (0, l) with energy-bound evaluators.

Space is discretized by Galerkin truncation onto the first N Dirichlet
sine modes.  The advection term is evaluated in skew-symmetric split form

    N(u) = -(1/3) [ u u_x + (u^2)_x ]

on a collocation grid of floor(3N/2) + 1 panels (Orszag's 3/2 rule), which
dealiases every quadratic product exactly; <u, N(u)> then vanishes to
roundoff, so the discrete dynamics cannot produce spurious energy.  Time
stepping is exponential Euler: the linear part is integrated exactly in
law per mode and the nonlinearity explicitly,

    additive:        u_{k+1} = E (u_k + dt N(u_k)) + sigma sqrt(q (1 - E^2) / (2 nu lambda)) z
    multiplicative:  u_{k+1} = E (u_k + dt N(u_k)) exp(sigma sqrt(dt) z - sigma^2 dt / 2)

with E = exp(-nu lambda_n dt) and standard normals z.  Each step draws one
normal per noise gain up to the last nonzero one: at most N under additive
noise (one gain per mode), and one under multiplicative noise (one shared
gain; none at sigma = 0).

The mean-energy bounds follow from the energy inequality
d/dt E||u||^2 <= -(2 nu / c) E||u||^2 + forcing, with c the Poincare
constant of the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hilbert import CovarianceSpectrum, DirichletBasis
from .montecarlo import RandomStream
from .wiener import TimeGrid

# Abort a sample once ||u||^2 exceeds this multiple of its natural scale.
BLOWUP_FACTOR = 1e6


class StepSizeError(ValueError):
    """Requested time step violates the advective CFL limit."""


@dataclass(frozen=True)
class AdditiveNoise:
    """Q-Wiener forcing: independent increments sigma sqrt(q_n) dW_n per mode."""

    spectrum: CovarianceSpectrum


@dataclass(frozen=True)
class MultiplicativeNoise:
    """Scalar forcing sigma u dw with one shared Brownian increment."""


@dataclass(frozen=True)
class BurgersProblem:
    """Viscosity, domain, noise model and initial modal coefficients.

    ``poincare_c`` is the constant in ||u||^2 <= c ||u_x||^2; it defaults
    to the sharp interval value (l/pi)^2 and may only be loosened.
    """

    nu: float
    length: float
    sigma: float
    noise: AdditiveNoise | MultiplicativeNoise
    init_coeffs: np.ndarray
    poincare_c: float | None = None

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        arr = np.asarray(self.init_coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("init_coeffs must be a nonempty vector")
        object.__setattr__(self, "init_coeffs", arr)
        sharp = (self.length / np.pi) ** 2
        if self.poincare_c is None:
            object.__setattr__(self, "poincare_c", sharp)
        elif self.poincare_c < sharp * (1 - 1e-12):
            raise ValueError(f"poincare_c must be >= (l/pi)^2 = {sharp}")
        if isinstance(self.noise, AdditiveNoise) and len(self.noise.spectrum) != arr.size:
            raise ValueError("noise spectrum length must match the number of modes")

    @property
    def n_modes(self) -> int:
        return len(self.init_coeffs)

    @property
    def basis(self) -> DirichletBasis:
        return DirichletBasis(self.length, self.n_modes)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.basis.eigenvalues


@lru_cache(maxsize=8)
def _transforms(n_modes: int, length: float):
    """Collocation matrices for the dealiased nonlinearity.

    Nodes are the interior points of the floor(3N/2) + 1 panel trapezoid
    rule, the fewest panels that integrate every product of three modes
    up to N exactly.  Returns (values, derivs, proj_values, proj_derivs):
    ``coeffs @ values`` gives grid values and ``coeffs @ derivs`` grid
    derivatives; the projections carry the trapezoid weight w and the
    skew form's factors, so ``(u u_x) @ proj_values + (u u) @ proj_derivs``
    is -(w/3) [(u u_x) @ values.T - (u u) @ derivs.T], the modal
    coefficients of N(u) (the conservative part through integration by
    parts, <e_n, (u^2)_x> = -<e_n', u^2>).
    """
    x, w = DirichletBasis(length, n_modes).quadrature(3 * n_modes // 2 + 1)
    n = np.arange(1, n_modes + 1)
    phases = np.outer(n * np.pi / length, x[1:-1])
    values = np.sqrt(2.0 / length) * np.sin(phases)
    derivs = np.sqrt(2.0 / length) * (n * np.pi / length)[:, np.newaxis] * np.cos(phases)
    return values, derivs, (-w[1] / 3.0) * values.T, (w[1] / 3.0) * derivs.T


def skew_nonlinearity(prob: BurgersProblem, coeffs: np.ndarray) -> np.ndarray:
    """Modal coefficients of -(1/3)[u u_x + (u^2)_x], dealiased.

    Accepts a single state [N] or a batch [B, N].
    """
    values, derivs, proj_values, proj_derivs = _transforms(prob.n_modes, prob.length)
    u_grid = coeffs @ values
    ux_grid = coeffs @ derivs
    out = (u_grid * ux_grid) @ proj_values
    out += (u_grid * u_grid) @ proj_derivs
    return out


def dt_max(prob: BurgersProblem, coeffs: np.ndarray) -> float:
    """Advective CFL limit 0.25 l / (N max|u|) for the current state, with
    max|u| taken over the collocation nodes.

    Diffusion is integrated exactly, so it imposes no step restriction.
    """
    values = _transforms(prob.n_modes, prob.length)[0]
    peak = float(np.max(np.abs(coeffs @ values), initial=0.0))
    if peak == 0.0:
        return float("inf")
    return 0.25 * prob.length / (prob.n_modes * peak)


def blowup_threshold(prob: BurgersProblem, e2_init: float) -> float:
    """Energy level treated as divergence: 1e6 x (initial + asymptotic scale)."""
    asymptote = 0.0
    if isinstance(prob.noise, AdditiveNoise):
        asymptote = energy_bound(prob, np.inf, 0.0)
    return BLOWUP_FACTOR * (e2_init + asymptote + 1e-30)


def _step_factors(prob: BurgersProblem, dt: float):
    """Per-mode decay exp(-nu lambda dt) and the noise gains of one step.

    Additive noise: one gain per mode, sigma sqrt(q (1 - exp(-2 nu lambda
    dt)) / (2 nu lambda)), the exact standard deviation of the step's
    stochastic convolution; it is sigma sqrt(q dt) at nu lambda = 0.
    Multiplicative noise: one shared gain, [sigma sqrt(dt)].
    """
    rate = prob.nu * prob.eigenvalues
    decay = np.exp(-rate * dt)
    if not isinstance(prob.noise, AdditiveNoise):
        return decay, np.array([prob.sigma * np.sqrt(dt)])
    two_rate = np.where(rate > 0, 2 * rate, 1.0)
    var = np.where(rate > 0, -np.expm1(-two_rate * dt) / two_rate, dt)
    return decay, prob.sigma * np.sqrt(prob.noise.spectrum.eigenvalues * var)


def _apply_step(prob: BurgersProblem, coeffs: np.ndarray, dt: float, factors, draws: np.ndarray):
    """One exponential-Euler step for a batch [B, N]; ``factors`` are
    :func:`_step_factors` at ``dt``, with the gain [M] possibly cut to its
    leading entries, and ``draws`` [B, M] are standard normals.

    Additive noise adds gain * draws into the first M modes; multiplicative
    noise multiplies every mode by exp(draws @ gain - |gain|^2 / 2).
    """
    decay, gain = factors
    out = skew_nonlinearity(prob, coeffs)
    out *= dt
    out += coeffs
    out *= decay
    if isinstance(prob.noise, AdditiveNoise):
        out[:, : gain.size] += gain * draws
    else:
        out *= np.exp(draws @ gain - 0.5 * (gain @ gain))[:, np.newaxis]
    return out


def trace_block(
    prob: BurgersProblem, grid: TimeGrid, stream: RandomStream, start: int, stop: int
) -> np.ndarray:
    """Energy traces e2 [stop - start, steps+1] for samples [start, stop),
    keyed by sample index.

    A sample whose energy turns non-finite or crosses the blow-up threshold
    is reset to zero and its row is NaN from that step on; it never
    contaminates other rows, and the samples that diverged are
    ``np.isnan(e2[:, -1])``.  The standard normals arrive in the time
    slices of ``RandomStream.block_chunks``, so the block never holds all
    of them at once.  Each sample draws [steps, M]: one normal per step for
    each of the M gains of :func:`_step_factors` up to its last nonzero one.
    """
    limit = dt_max(prob, prob.init_coeffs)
    if grid.dt > limit:
        raise StepSizeError(f"dt={grid.dt} exceeds the advective CFL limit {limit:.3e}")
    decay, gain = _step_factors(prob, grid.dt)
    # The trailing zero gains force nothing (0 * z = 0 whatever z is), so
    # their modes draw nothing; a zero gain before the last nonzero one
    # draws, and adds 0.
    factors = (decay, np.trim_zeros(gain, "b"))
    coeffs = np.tile(prob.init_coeffs, (stop - start, 1))
    e2 = np.empty((stop - start, grid.steps + 1))
    e2[:, 0] = np.sum(coeffs**2, axis=1)
    threshold = blowup_threshold(prob, float(np.sum(prob.init_coeffs**2)))
    dead = np.zeros(stop - start, dtype=bool)
    chunks = stream.block_chunks(start, stop, (grid.steps, factors[1].size))
    step_draws = (z[:, j] for z in chunks for j in range(z.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, draws in enumerate(step_draws, 1):
            coeffs = _apply_step(prob, coeffs, grid.dt, factors, draws)
            energy = np.einsum("ij,ij->i", coeffs, coeffs)
            newly = ~dead & ((~np.isfinite(energy)) | (energy > threshold))
            if np.any(newly):
                dead |= newly
                coeffs[newly] = 0.0
            e2[:, k] = np.where(dead, np.nan, energy)
    return e2


def energy_bound(prob: BurgersProblem, t, e2_init: float):
    """Gronwall bound on E||u(t)||^2 for the problem's noise model.

    Additive:       e0 exp(-2 nu t / c)
                    + (c sigma^2 l Tr(Q) / (2 nu)) (1 - exp(-2 nu t / c)).
    Multiplicative: e0 exp((sigma^2 - 2 nu / c) t).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    c = prob.poincare_c
    if isinstance(prob.noise, AdditiveNoise):
        decay = np.exp(-2 * prob.nu * t / c)
        forcing = prob.sigma**2 * prob.length * prob.noise.spectrum.trace
        return e2_init * decay + c * forcing / (2 * prob.nu) * (1 - decay)
    return e2_init * np.exp((prob.sigma**2 - 2 * prob.nu / c) * t)


def exit_probability_bound(prob: BurgersProblem, t, e2_init: float, delta: float):
    """Chebyshev bound on P(||u(t)|| >= delta), capped at one."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return np.minimum(1.0, energy_bound(prob, t, e2_init) / delta**2)
