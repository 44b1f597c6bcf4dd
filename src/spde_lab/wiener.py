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

# Entries per grid row (batch x entries per step) from which running_sums
# adds row by row: one np.add per row costs a call each, one np.cumsum a
# fixed amount per entry, and the two cross between 512 and 640 entries
# (CHANGES.md has the table).  Both give the same bits.
_ROW_ADD_MIN_WIDTH = 512


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
    """Running sums along axis 1 of consecutive increment slices [batch, r, ...],
    laid out time-major.

    Yields ``(r0, sums)`` with ``sums`` of shape [rows, batch, ...], the grid
    rows from ``r0``: r + 1 rows from zero for the first slice, then r rows
    per slice.  Each row is the previous row plus the slice's increments at
    its step, the additions of one sum over all steps in their order, so
    slicing moves no bit.  The last row is carried into the next slice as
    this function's own copy, so a caller may overwrite ``sums`` in place.
    A row of ``_ROW_ADD_MIN_WIDTH`` entries or more is one contiguous
    ``np.add``; narrower rows take one ``np.cumsum`` over the slice, with
    the carry added to its first increment (in place), and give the same bits.
    """
    r0, carry = 0, None
    for inc in slices:
        batch, r, *rest = inc.shape
        lead = carry is None
        sums = np.empty((lead + r, batch, *rest))
        if lead:
            sums[0] = 0.0
        if inc[:, 0].size < _ROW_ADD_MIN_WIDTH:
            if not lead:
                inc[:, 0] += carry
            np.cumsum(inc, axis=1, out=sums[lead:].swapaxes(0, 1))
        else:
            for j, row in enumerate(sums[lead:]):
                if carry is None:
                    row[...] = inc[:, 0]
                else:
                    np.add(carry, inc[:, j], out=row)
                carry = row
        carry = sums[-1].copy()
        yield r0, sums
        r0 += len(sums)
