"""Stochastic Burgers solver on (0, l) with energy-bound evaluators.

Space is discretized by Galerkin truncation onto the first N Dirichlet
sine modes.  The advection term is evaluated in skew-symmetric split form

    N(u) = -(1/3) [ u u_x + (u^2)_x ]

on a collocation grid of 2N panels, which dealiases every quadratic
product exactly; <u, N(u)> then vanishes to roundoff, so the discrete
dynamics cannot produce spurious energy.  Time stepping integrates the
diffusion exactly per mode (factor exp(-nu lambda_n dt)), treats the
nonlinearity explicitly and adds the noise as an Euler-Maruyama
increment:

    u_{k+1} = E (u_k + dt N(u_k)) + noise increment.

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

    Nodes are the interior points of the 2N-panel trapezoid rule.  Returns
    (values, derivs, weight): ``values @ coeffs`` gives grid values,
    ``derivs @ coeffs`` grid derivatives, and ``weight * values.T @ grid``
    the projection of a grid function that vanishes at the boundary.
    """
    x, w = DirichletBasis(length, n_modes).quadrature(2 * n_modes)
    n = np.arange(1, n_modes + 1)
    phases = np.outer(x[1:-1], n * np.pi / length)
    values = np.sqrt(2.0 / length) * np.sin(phases)
    derivs = np.sqrt(2.0 / length) * (n * np.pi / length) * np.cos(phases)
    return values, derivs, w[1]


def skew_nonlinearity(prob: BurgersProblem, coeffs: np.ndarray) -> np.ndarray:
    """Modal coefficients of -(1/3)[u u_x + (u^2)_x], dealiased.

    The conservative part is projected through integration by parts
    (<e_n, (u^2)_x> = -<e_n', u^2>), so no grid differentiation of the
    square is needed.  Accepts a single state [N] or a batch [B, N].
    """
    values, derivs, weight = _transforms(prob.n_modes, prob.length)
    u_grid = coeffs @ values.T
    ux_grid = coeffs @ derivs.T
    advective = (u_grid * ux_grid) @ values
    conservative = -((u_grid * u_grid) @ derivs)
    return (-weight / 3.0) * (advective + conservative)


def dt_max(prob: BurgersProblem, coeffs: np.ndarray) -> float:
    """Advective CFL limit 0.25 l / (N max|u|) for the current state.

    Diffusion is integrated exactly, so it imposes no step restriction.
    """
    values, _, _ = _transforms(prob.n_modes, prob.length)
    peak = float(np.max(np.abs(coeffs @ values.T), initial=0.0))
    if peak == 0.0:
        return float("inf")
    return 0.25 * prob.length / (prob.n_modes * peak)


def blowup_threshold(prob: BurgersProblem, e2_init: float) -> float:
    """Energy level treated as divergence: 1e6 x (initial + asymptotic scale)."""
    asymptote = 0.0
    if isinstance(prob.noise, AdditiveNoise):
        asymptote = energy_bound(prob, np.inf, 0.0)
    return BLOWUP_FACTOR * (e2_init + asymptote + 1e-30)


def _apply_step(prob: BurgersProblem, coeffs: np.ndarray, dt: float, draws: np.ndarray):
    """One step for a batch [B, N]; draws are standard normals.

    Additive noise consumes draws of shape [B, N]; multiplicative a shape
    [B] shared scalar per sample.
    """
    decay = np.exp(-prob.nu * prob.eigenvalues * dt)
    advanced = decay * (coeffs + dt * skew_nonlinearity(prob, coeffs))
    if isinstance(prob.noise, AdditiveNoise):
        gain = prob.sigma * np.sqrt(prob.noise.spectrum.eigenvalues * dt)
        return advanced + gain * draws
    return advanced + prob.sigma * np.sqrt(dt) * draws[:, np.newaxis] * coeffs


def trace_block(
    prob: BurgersProblem, grid: TimeGrid, stream: RandomStream, start: int, stop: int
) -> np.ndarray:
    """Energy traces e2 [stop - start, steps+1] for samples [start, stop),
    keyed by sample index.

    A sample whose energy turns non-finite or crosses the blow-up threshold
    is reset to zero and its row is NaN from that step on; it never
    contaminates other rows, and the samples that diverged are
    ``np.isnan(e2[:, -1])``.  The standard normals, [steps, N] per sample
    for additive noise and [steps] for multiplicative, arrive in the time
    slices of ``RandomStream.block_chunks``, so the block never holds all
    of them at once.
    """
    limit = dt_max(prob, prob.init_coeffs)
    if grid.dt > limit:
        raise StepSizeError(f"dt={grid.dt} exceeds the advective CFL limit {limit:.3e}")
    shape = (grid.steps, prob.n_modes) if isinstance(prob.noise, AdditiveNoise) else (grid.steps,)
    coeffs = np.tile(prob.init_coeffs, (stop - start, 1))
    e2 = np.empty((stop - start, grid.steps + 1))
    e2[:, 0] = np.sum(coeffs**2, axis=1)
    threshold = blowup_threshold(prob, float(np.sum(prob.init_coeffs**2)))
    dead = np.zeros(stop - start, dtype=bool)
    chunks = stream.block_chunks(start, stop, shape)
    step_draws = (z[:, j] for z in chunks for j in range(z.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, draws in enumerate(step_draws, 1):
            coeffs = _apply_step(prob, coeffs, grid.dt, draws)
            energy = np.sum(coeffs**2, axis=1)
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
        out = e2_init * decay + c * forcing / (2 * prob.nu) * (1 - decay)
    else:
        out = e2_init * np.exp((prob.sigma**2 - 2 * prob.nu / c) * t)
    return float(out) if out.ndim == 0 else out


def exit_probability_bound(prob: BurgersProblem, t, e2_init: float, delta: float):
    """Chebyshev bound on P(||u(t)|| >= delta), capped at one."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    out = np.minimum(1.0, np.asarray(energy_bound(prob, t, e2_init)) / delta**2)
    return float(out) if out.ndim == 0 else out
