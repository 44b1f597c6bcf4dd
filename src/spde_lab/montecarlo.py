"""Reproducible random streams, the pairwise moment reduction and
closed-form-vs-Monte-Carlo comparison reports.

Every stochastic experiment in this package draws its randomness through a
:class:`RandomStream`, a value-like hierarchical key.  Ensembles are keyed
by sample index (never by worker id), so any statistic is bit-identical no
matter how samples are sharded across processes.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import json
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

Z_THRESHOLD = 3.0

# Bytes of one time slice of a block's draws (RandomStream.block_chunks) and
# of one column group of a moments merge: bounded by this, not by the ensemble.
CHUNK_BYTES = 1 << 20

# Samples per block of map_blocks.  The block layout, and so every output
# bit, depends on it and the sample count alone.
BLOCK_SIZE = 128


@dataclass(frozen=True)
class RandomStream:
    """Hierarchical key identifying an independent standard-normal stream.

    A stream is the pair (master seed, path of integer indices).  Extending
    the path with :meth:`child` yields statistically independent substreams
    (experiment id, sample index, step index, ...).  The same key always
    reproduces the same draws, regardless of evaluation order or worker
    count.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RandomStream":
        """Substream for the given extra path indices."""
        return RandomStream(self.master_seed, self.path + tuple(indices))

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator for this key."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def block_chunks(self, start: int, stop: int, shape):
        """Draws of samples [start, stop) in time slices of about ``CHUNK_BYTES``.

        ``shape`` is one sample's draw shape, a tuple with the time axis
        first.  Yields arrays ``[stop - start, r, *shape[1:]]`` whose r rows
        fill ``CHUNK_BYTES`` (at least one row; fewer in the last slice),
        read at call time.  Each sample's generator continues its stream from one
        slice to the next, so the slicing moves no draw.  This is the one
        place where ensembles key samples to substreams.
        """
        steps, *rest = shape
        rows = max(1, CHUNK_BYTES // (8 * max(1, (stop - start) * math.prod(rest))))
        gens = [self.child(i).generator() for i in range(start, stop)]
        for r0 in range(0, max(steps, 1), rows):
            out = np.empty((stop - start, min(rows, steps - r0), *rest))
            for gen, row in zip(gens, out):
                gen.standard_normal(out=row)
            yield out


class EnsembleStats(NamedTuple):
    """Mean and standard error of per-sample values, built by
    :func:`pairwise_stats` or :meth:`Moments.stats`: numpy scalars or arrays
    (elementwise statistics, e.g. one per time-grid point).  As a pair it is
    a :class:`Check` estimate.
    """

    mean: float | np.ndarray
    stderr: float | np.ndarray


class Moments(NamedTuple):
    """Sample count ``n``, mean and m2 (the sum of squared deviations from
    the mean) of per-sample values, elementwise over their trailing axes:
    what :func:`block_moments` keeps of a block and :func:`map_blocks`
    merges across blocks."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    def stats(self) -> EnsembleStats:
        """Mean and standard error sqrt(m2 / (n - 1) / n); fewer than two
        samples are a ValueError."""
        if self.n < 2:
            raise ValueError("a standard error requires at least two samples")
        stderr = np.sqrt(self.m2 / (self.n - 1) / self.n)
        return EnsembleStats(self.mean[()], stderr[()])


def _merge_tree(count: np.ndarray, mean: np.ndarray, m2: np.ndarray):
    """Pairwise merge of partial moments along the last axis: counts [k],
    means and m2s [g, k] into (mean [g], m2 [g])."""
    while mean.shape[-1] > 1:
        k = mean.shape[-1] // 2
        na, nb = count[0 : 2 * k : 2], count[1 : 2 * k : 2]
        ma, mb = mean[:, 0 : 2 * k : 2], mean[:, 1 : 2 * k : 2]
        sa, sb = m2[:, 0 : 2 * k : 2], m2[:, 1 : 2 * k : 2]
        n = na + nb
        delta = mb - ma
        merged_mean = ma + delta * (nb / n)
        merged_m2 = sa + sb + delta * delta * (na * nb / n)
        if mean.shape[-1] % 2:
            count = np.concatenate([n, count[-1:]])
            mean = np.concatenate([merged_mean, mean[:, -1:]], axis=1)
            m2 = np.concatenate([merged_m2, m2[:, -1:]], axis=1)
        else:
            count, mean, m2 = n, merged_mean, merged_m2
    return mean[:, 0], m2[:, 0]


def _merge(count: np.ndarray, means: np.ndarray, m2s: np.ndarray) -> Moments:
    """Merge k partials (counts [k], means and m2s [k, ...]) on the
    canonical pairwise tree.

    The tree runs along the first axis only, so the trailing columns are
    merged in groups of about ``CHUNK_BYTES`` and no copy of the whole
    input is made.
    """
    k, shape = len(count), means.shape[1:]
    means, m2s = means.reshape(k, -1), m2s.reshape(k, -1)
    mean, m2 = np.empty(means.shape[1]), np.empty(means.shape[1])
    group = max(1, CHUNK_BYTES // (8 * k))
    for c0 in range(0, means.shape[1], group):
        cols = slice(c0, c0 + group)
        mean[cols], m2[cols] = _merge_tree(count, means[:, cols].T.copy(), m2s[:, cols].T.copy())
    return Moments(int(count.sum()), mean.reshape(shape), m2.reshape(shape))


def block_moments(values: np.ndarray) -> Moments:
    """Moments of per-sample values (axis 0, at least one sample), merged
    on the canonical pairwise tree, whose shape depends only on the number
    of samples.

    In that tree the node at level L covering samples [i 2^L, ...) is the
    same whatever follows it, so the moments of the ``BLOCK_SIZE`` (a power
    of two) blocks of an ensemble, merged by :func:`map_blocks`, equal the
    moments of the whole ensemble bit for bit.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] < 1:
        raise ValueError("moments require at least one sample")
    # A single sample's m2 is 0: a broadcast zero, which takes no memory.
    return _merge(np.ones(vals.shape[0]), vals, np.broadcast_to(0.0, vals.shape))


def pairwise_stats(values: np.ndarray) -> EnsembleStats:
    """Reduce per-sample values (axis 0) with the canonical pairwise merge.

    The merge tree depends only on the number of samples, so the result is
    bit-identical however the samples were computed.  Values may have extra
    trailing axes; statistics are elementwise over them.  The standard
    error is sqrt(m2 / (n - 1) / n), with m2 the sum of squared deviations
    of n >= 2 samples; fewer samples are a ValueError.
    """
    return block_moments(values).stats()


@dataclass(frozen=True)
class ComparisonRow:
    """One closed-form-vs-Monte-Carlo check.

    ``z`` is (mc_mean - closed_form) / mc_stderr.  Two-sided rows pass when
    |z| <= 3; one-sided rows (upper bounds) pass when z <= 3.  A row with
    zero stderr passes only on exact agreement ("deterministic mismatch"
    otherwise, with infinite z); a non-finite estimate fails ("non-finite
    estimate", z NaN).  ``gating`` marks whether the row counts
    toward the run's exit status; diagnostic rows are reported but do not
    gate.  Built by :func:`compare`, every numeric field is a Python
    ``float`` and ``passed`` a ``bool``, so a report serializes as is.
    """

    label: str
    t: float
    closed_form: float
    mc_mean: float
    mc_stderr: float
    z: float
    passed: bool
    one_sided: bool = False
    gating: bool = True
    note: str = ""


class Check(NamedTuple):
    """One closed-form-vs-Monte-Carlo row of a report, declared as data.

    ``estimate`` is a per-sample column (any function of the samples, such
    as a squared deviation) or a precomputed (mean, stderr) pair, such as an
    :class:`EnsembleStats`.  :func:`compare` takes a check whose estimate is
    a pair, so a column is first reduced with :func:`pairwise_stats`.
    """

    label: str
    t: float
    closed_form: float
    estimate: np.ndarray | tuple[float, float]
    one_sided: bool = False
    gating: bool = True
    note: str = ""


def compare(check: Check) -> ComparisonRow:
    """Judge a check whose estimate is a pair (mean, stderr) by the
    3-sigma rule.

    This is where a report number becomes a Python value: ``t``,
    ``closed_form`` and the estimate may be numpy scalars, and every
    numeric field of the row is a ``float`` and ``passed`` a ``bool``.
    """
    t, closed_form = float(check.t), float(check.closed_form)
    mc_mean, mc_stderr = map(float, check.estimate)
    one_sided, note = check.one_sided, check.note
    if mc_stderr < 0:
        raise ValueError(f"invalid standard error {mc_stderr!r}")
    if not (math.isfinite(mc_mean) and math.isfinite(mc_stderr)):
        z, passed = math.nan, False
        note = (note + "; " if note else "") + "non-finite estimate"
    elif mc_stderr == 0.0:
        if mc_mean == closed_form:
            z, passed = 0.0, True
        elif one_sided and mc_mean < closed_form:
            z, passed = -math.inf, True
        else:
            z, passed = math.inf, False
            note = (note + "; " if note else "") + "deterministic mismatch"
    else:
        z = (mc_mean - closed_form) / mc_stderr
        passed = (z <= Z_THRESHOLD) if one_sided else (abs(z) <= Z_THRESHOLD)
    return ComparisonRow(
        check.label, t, closed_form, mc_mean, mc_stderr, z, passed, one_sided, check.gating, note
    )


@dataclass
class Report:
    """Collection of comparison rows plus run metadata."""

    rows: list[ComparisonRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        """True when every gating row passed (diagnostic rows excluded)."""
        return all(r.passed for r in self.rows if r.gating)

    def counts(self) -> dict:
        gating = [r for r in self.rows if r.gating]
        return {
            "rows": len(self.rows),
            "gating": len(gating),
            "passed": sum(r.passed for r in gating),
            "failed": sum(not r.passed for r in gating),
            "diagnostic_failed": sum(not r.passed for r in self.rows if not r.gating),
        }


def format_number(x: float) -> str:
    """Shortest round-trip decimal form, for byte-stable CSV output."""
    return format(float(x), ".17g")


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(report: Report, path) -> None:
    """Write rows as ``label,t,closed_form,mc_mean,mc_stderr,z,pass``."""
    _write_csv(
        path, ["label", "t", "closed_form", "mc_mean", "mc_stderr", "z", "pass"],
        (
            [r.label, *map(format_number, (r.t, r.closed_form, r.mc_mean, r.mc_stderr, r.z)),
             str(r.passed)]
            for r in report.rows
        ),
    )


def write_summary_json(report: Report, path) -> None:
    """Machine-readable run summary.

    The generation time lives in the single field ``generated-at`` so
    determinism checks can drop it; everything else is reproducible.
    """
    payload = dict(report.metadata)
    payload["checks"] = report.counts()
    payload["all-passed"] = report.all_passed()
    notes = [
        {"label": r.label, "t": r.t, "note": r.note} for r in report.rows if r.note
    ]
    if notes:
        payload["notes"] = notes
    payload["generated-at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_series_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns of equal length as CSV (column 1 should be t)."""
    arrays = [np.asarray(a, dtype=float) for a in columns.values()]
    if any(len(a) != len(arrays[0]) for a in arrays):
        raise ValueError("series columns must have equal length")
    _write_csv(path, list(columns), ([format_number(x) for x in row] for row in zip(*arrays)))


@functools.cache
def _openblas():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS, or None.

    ``ctypes.CDLL`` on the wheel's ``numpy.libs/libscipy_openblas64_*.so``
    returns the library numpy has already loaded, so the calls reach
    numpy's BLAS.  Another numpy build (no such file or symbol) gets None.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _set_blas_threads(n: int) -> int | None:
    """Set numpy's BLAS thread count; the previous count, or None (no-op).

    The call is skipped when the count is already ``n``: in a forked
    process it would restart OpenBLAS's thread server, which spins for
    about 0.1 s of CPU before it sleeps.
    """
    calls = _openblas()
    if calls is None:
        return None
    get, set_ = calls
    before = get()
    if before != n:
        set_(n)
    return before


@contextmanager
def _one_blas_thread():
    """Run the body on one BLAS thread, then restore the caller's count."""
    before = _set_blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _set_blas_threads(before)


def map_blocks(fn, n_samples: int, *, workers: int = 1) -> tuple[np.ndarray, Moments]:
    """Evaluate ``fn(start, stop)`` over canonical sample blocks.

    Blocks are consecutive index ranges of ``BLOCK_SIZE`` samples; the
    layout depends only on ``n_samples``, never on ``workers``, so the
    assembled output is identical for any worker count.  ``fn`` must be
    picklable when ``workers > 1`` and returns a pair: the block's rows, one
    array with the sample axis first, and the :func:`block_moments` of its
    series, the per-sample values that only their mean and standard error
    are read from.  Each block's rows are written into one preallocated
    ``[n_samples, ...]`` array, of the first block's dtype, as they arrive,
    and the blocks' moments are merged on the pairwise tree into the
    moments of all samples, bit for bit those of the whole series.  So a
    series costs O(blocks x series length) here, not O(samples x length).

    Every block runs on one BLAS thread, in this process or in each of at
    most ``min(workers, blocks)`` worker processes: the bits of a matrix
    product can depend on how BLAS splits it over threads, and ``workers``
    is the only parallelism setting.  Workers start while this process is
    at one thread, so a forked worker inherits it and its initializer has
    nothing to set; a spawned one sets it.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    starts = range(0, n_samples, BLOCK_SIZE)
    stops = [min(s + BLOCK_SIZE, n_samples) for s in starts]
    workers = min(workers, len(starts))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import

        executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_set_blas_threads, initargs=(1,)
        )
    else:
        executor = nullcontext()
    rows, moments = None, []
    with _one_blas_thread(), executor as pool:
        parts = (pool.map if pool else map)(fn, starts, stops)
        for a, b, (part, part_moments) in zip(starts, stops, parts):
            if rows is None:
                rows = np.empty((n_samples, *part.shape[1:]), part.dtype)
            rows[a:b] = part
            moments.append(part_moments)
    return rows, _merge(
        np.array([m.n for m in moments], dtype=float),
        np.stack([m.mean for m in moments]), np.stack([m.m2 for m in moments]),
    )
