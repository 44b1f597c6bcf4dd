"""Truncated Q-Wiener paths on a uniform time grid.

Increments are stored raw (one standard N(0, dt) draw per mode per step);
the square-root eigenvalue weighting is applied at evaluation time, so one
path can be reused across spectra.  Stochastic integrals use left-endpoint
(non-anticipating) sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector
from .montecarlo import RandomStream


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t0 + k dt for k = 0..steps."""

    t0: float
    dt: float
    steps: int

    def __post_init__(self):
        if self.t0 < 0:
            raise ValueError("t0 must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    @property
    def t_final(self) -> float:
        return self.t0 + self.dt * self.steps

    def index_of(self, t: float) -> int:
        """Grid index of a time that must lie on the grid (1e-9 tolerance)."""
        k = round((t - self.t0) / self.dt)
        if not 0 <= k <= self.steps or abs(self.t0 + k * self.dt - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a grid point")
        return int(k)


@dataclass(frozen=True)
class WienerPath:
    """One realization of the first N scalar mode paths.

    ``increments[k, n]`` is the raw N(0, dt) increment of mode n+1 over
    [t_k, t_{k+1}]; the field itself is sum_n sqrt(q_n) W_n(t) e_n(x).
    """

    grid: TimeGrid
    spectrum: CovarianceSpectrum
    basis: DirichletBasis
    increments: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.increments, dtype=float)
        if arr.shape != (self.grid.steps, self.basis.n_modes):
            raise ValueError("increments must have shape [steps, n_modes]")
        object.__setattr__(self, "increments", arr)

    def modal_paths(self) -> np.ndarray:
        """Raw mode paths W_n(t_k), shape [steps+1, n_modes], zero at t0."""
        out = np.zeros((self.grid.steps + 1, self.basis.n_modes))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out

    def coefficients(self, k: int) -> HilbertVector:
        """Field coefficients sqrt(q_n) W_n(t_k) at grid index k."""
        if not 0 <= k <= self.grid.steps:
            raise ValueError("step index out of range")
        w = self.increments[:k].sum(axis=0) if k else np.zeros(self.basis.n_modes)
        return HilbertVector(np.sqrt(self.spectrum.eigenvalues) * w)


def sample_path(
    spectrum: CovarianceSpectrum,
    basis: DirichletBasis,
    grid: TimeGrid,
    stream: RandomStream,
) -> WienerPath:
    """Draw one path; bit-identical for the same stream key."""
    if len(spectrum) != basis.n_modes:
        raise ValueError("spectrum and basis must share the number of modes")
    increments = np.sqrt(grid.dt) * stream.generator().standard_normal(
        (grid.steps, basis.n_modes)
    )
    return WienerPath(grid, spectrum, basis, increments)


def sample_increments_block(
    spectrum: CovarianceSpectrum,
    basis: DirichletBasis,
    grid: TimeGrid,
    stream: RandomStream,
    start: int,
    stop: int,
) -> np.ndarray:
    """Raw increments for samples [start, stop), shape [batch, steps, N].

    Sample i draws from ``stream.child(i)`` in the same order as
    :func:`sample_path`, so ensembles are independent of how the index
    range is sharded.
    """
    if len(spectrum) != basis.n_modes:
        raise ValueError("spectrum and basis must share the number of modes")
    out = stream.block_normals(start, stop, (grid.steps, basis.n_modes))
    out *= np.sqrt(grid.dt)
    return out


def field_value(path: WienerPath, x: float, k: int) -> float:
    """Field value sum_n sqrt(q_n) W_n(t_k) e_n(x)."""
    return float(path.coefficients(k).evaluate(path.basis, x))


def ito_integral(path: WienerPath, integrand) -> HilbertVector:
    """Per-mode Ito sums sqrt(q_n) sum_k Phi_n(t_k) dW_n(t_k).

    ``integrand`` is either an array of shape [steps, n_modes] or a callable
    t -> length-N array, evaluated at left endpoints.
    """
    steps, n = path.increments.shape
    if callable(integrand):
        phi = np.stack([np.broadcast_to(integrand(t), (n,)) for t in path.grid.times[:-1]])
    else:
        phi = np.asarray(integrand, dtype=float)
        if phi.shape != (steps, n):
            raise ValueError("integrand must have shape [steps, n_modes]")
    sums = np.sum(phi * path.increments, axis=0)
    return HilbertVector(np.sqrt(path.spectrum.eigenvalues) * sums)
