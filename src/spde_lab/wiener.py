"""Uniform time grids and truncated Q-Wiener increments.

Increments are drawn raw (one N(0, dt) draw per mode per step); the
square-root eigenvalue weighting is applied at evaluation time, so one set
of draws can be reused across spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import CovarianceSpectrum, DirichletBasis
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

    def indices(self, keep) -> np.ndarray:
        """Grid indices ``keep`` as an int array; ValueError outside 0..steps."""
        keep = np.asarray(keep, dtype=int)
        if np.any((keep < 0) | (keep > self.steps)):
            raise ValueError("keep indices must lie in 0..steps")
        return keep


def sample_increments_block(
    spectrum: CovarianceSpectrum,
    basis: DirichletBasis,
    grid: TimeGrid,
    stream: RandomStream,
    start: int,
    stop: int,
) -> np.ndarray:
    """Raw N(0, dt) increments for samples [start, stop), shape
    [batch, steps, N]: ``[i - start, k, n]`` is mode n+1's increment over
    [t_k, t_{k+1}] in sample i.

    Sample i draws from ``stream.child(i)``, so ensembles are independent
    of how the index range is sharded.  The field is sum_n sqrt(q_n)
    W_n(t) e_n(x), with W_n the cumulative sums of the increments.
    """
    if len(spectrum) != basis.n_modes:
        raise ValueError("spectrum and basis must share the number of modes")
    out = stream.block_normals(start, stop, (grid.steps, basis.n_modes))
    out *= np.sqrt(grid.dt)
    return out


def running_sums(increments: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """Running sums along axis 1 of a time slice of increments [batch, r, ...]:
    r + 1 rows from zero for the first slice (``carry`` None), else r rows
    from ``carry``, the last sum of the slice before.  The carry is added
    into the first increment before the cumulative sum, so every addition
    happens in the order of one sum over all steps: slicing moves no bit.
    """
    lead = carry is None
    if not lead:
        increments[:, 0] += carry
    out = np.zeros((increments.shape[0], lead + increments.shape[1], *increments.shape[2:]))
    np.cumsum(increments, axis=1, out=out[:, lead:])
    return out
