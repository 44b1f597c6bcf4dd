"""Lyapunov exponents of the linear heat-type equation on (0, 1).

Closed-form exponents: the deterministic system u_t = u_xx + alpha u decays
or grows at -lambda_{n0} + alpha, where n0 is the lowest mode present in
the initial condition; multiplying by scalar noise gamma dw shifts the
exponent by (beta - alpha) - gamma^2/2.  The path-based estimator evolves
the exact modal solution in log space (log-sum-exp across modes) so decay
over hundreds of time units never underflows, then fits the asymptotic
slope of log ||v(t)|| by least squares after a burn-in window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DirichletBasis
from .montecarlo import RandomStream
from .wiener import TimeGrid

# Relative threshold deciding which initial coefficients count as nonzero.
ACTIVE_TOL = 1e-12


@dataclass(frozen=True)
class LyapunovProblem:
    """Growth rates, noise intensity and initial coefficients on (0, 1)."""

    alpha: float
    beta: float
    gamma: float
    init_coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.init_coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("init_coeffs must be a nonempty vector")
        object.__setattr__(self, "init_coeffs", arr)

    @property
    def n_modes(self) -> int:
        return len(self.init_coeffs)

    @property
    def eigenvalues(self) -> np.ndarray:
        return DirichletBasis(1.0, self.n_modes).eigenvalues


@dataclass(frozen=True, eq=False)
class ExponentEstimate:
    """Fitted asymptotic growth rate of log ||v(t)|| over a time window, and
    the whole path ``log_norm`` it was fitted to."""

    slope: float
    stderr: float
    log_norm: np.ndarray


def _active_modes(prob: LyapunovProblem) -> np.ndarray:
    """0-based indices of the coefficients above ACTIVE_TOL * ||f||."""
    f = prob.init_coeffs
    scale = np.sqrt(np.sum(f**2))
    active = np.flatnonzero(np.abs(f) > ACTIVE_TOL * scale)
    if scale == 0 or active.size == 0:
        raise ValueError("initial condition has no active mode")
    return active


def exponent_deterministic(prob: LyapunovProblem) -> float:
    """Exponent -lambda_{n0} + alpha of the noiseless system, n0 its lowest active mode."""
    return -prob.eigenvalues[_active_modes(prob)[0]] + prob.alpha


def exponent_stochastic(prob: LyapunovProblem) -> float:
    """Deterministic exponent shifted by (beta - alpha) - gamma^2/2.

    Computed literally as deterministic exponent plus that shift, so
    ``exponent_stochastic == exponent_deterministic + shift`` holds at the
    bit level.
    """
    shift = (prob.beta - prob.alpha) - 0.5 * prob.gamma**2
    return exponent_deterministic(prob) + shift


def log_norm_path(prob: LyapunovProblem, grid: TimeGrid, stream: RandomStream) -> np.ndarray:
    """log ||v(t_k)|| along one exact modal path, length steps+1.

    Modal coefficients are exp(gamma w_t) exp((-lambda_n + beta -
    gamma^2/2) t) f_n; the norm is accumulated in log space relative to
    the slowest-decaying active mode n0, never in linear space.  Active
    modes come in increasing order, so no rate exceeds n0's and each
    exponent is at most log(f_n^2 / f_n0^2) <= 2 log(1 / ACTIVE_TOL).
    """
    active = _active_modes(prob)
    rates = -prob.eigenvalues[active] + prob.beta - 0.5 * prob.gamma**2
    log_f2 = 2 * np.log(np.abs(prob.init_coeffs[active]))
    draws = stream.generator().standard_normal(grid.steps)
    w = np.concatenate([[0.0], np.cumsum(np.sqrt(grid.dt) * draws)])
    terms = 2 * rates * grid.times[:, np.newaxis] + log_f2
    log_sq = terms[:, 0] + np.log1p(np.exp(terms[:, 1:] - terms[:, :1]).sum(axis=1))
    return prob.gamma * w + 0.5 * log_sq


def estimate_from_path(
    prob: LyapunovProblem,
    grid: TimeGrid,
    stream: RandomStream,
    t_burn: float | None = None,
) -> ExponentEstimate:
    """Least-squares slope of log ||v(t)|| over [t_burn, t_final].

    ``t_burn`` defaults to one tenth of the final time, suppressing the
    transient from subdominant modes.  The noise enters log ||v|| as
    gamma w_t, and the least-squares slope of a Brownian path over a
    window of length W has variance (6/5) / W, so the reported stderr is
    sqrt(6/5) |gamma| / sqrt(W), with W the span of the fitted grid times
    (0 for a noiseless path).
    """
    if t_burn is None:
        t_burn = 0.1 * grid.t_final
    if not grid.t_final > t_burn >= 0:
        raise ValueError("need t_final > t_burn >= 0")
    log_norm = log_norm_path(prob, grid, stream)
    keep = grid.times >= t_burn
    t = grid.times[keep]
    y = log_norm[keep]
    if t.size < 3:
        raise ValueError("window must contain at least three grid points")
    t_centered = t - t.mean()
    slope = np.sum(t_centered * y) / np.sum(t_centered**2)
    stderr = np.sqrt(6 / 5) * abs(prob.gamma) / np.sqrt(t[-1] - t[0])
    return ExponentEstimate(float(slope), float(stderr), log_norm)
