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
    """Uniform grid t_k = k dt, k = 0..steps, from where the initial data are given."""

    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.steps + 1)

    @property
    def t_final(self) -> float:
        return self.dt * self.steps

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
    of how the index range is sharded; the ``RandomStream.block_chunks``
    slices are scaled into the result.  The field is sum_n sqrt(q_n)
    W_n(t) e_n(x), with W_n the cumulative sums of the increments.
    """
    if len(spectrum) != basis.n_modes:
        raise ValueError("spectrum and basis must share the number of modes")
    out = np.empty((stop - start, grid.steps, basis.n_modes))
    r0 = 0
    for z in stream.block_chunks(start, stop, (grid.steps, basis.n_modes)):
        np.multiply(z, np.sqrt(grid.dt), out=out[:, r0 : r0 + z.shape[1]])
        r0 += z.shape[1]
    return out


def running_sums(slices):
    """Running sums along axis 1 of consecutive increment slices [batch, r, ...].

    Yields ``(r0, sums)`` with ``sums`` the grid rows from ``r0``: r + 1
    rows from zero for the first slice, then r rows per slice.  The last sum
    of each slice is carried into the next slice's first increment (in
    place) before the cumulative sum, so every addition happens in the order
    of one sum over all steps: slicing moves no bit.
    """
    r0 = 0
    for inc in slices:
        lead = r0 == 0
        if not lead:
            inc[:, 0] += sums[:, -1]
        sums = np.zeros((inc.shape[0], lead + inc.shape[1], *inc.shape[2:]))
        np.cumsum(inc, axis=1, out=sums[:, lead:])
        yield r0, sums
        r0 += sums.shape[1]
