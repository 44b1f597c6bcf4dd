"""In-memory span tracer wrapped around the public callables of ``spde_lab``.

The tracer patches each traced name where the package looks it up: the
module attribute for calls made through a module (``wave.simulate_block``),
the ``spde_lab.cli`` attribute for names that ``cli`` imported by value
(``map_blocks``, ``pairwise_stats`` and the writers), and the
``RandomStream.generator`` method, whose returned generator is wrapped so
that ``standard_normal`` is timed too.  Patching stays inside the process
that installs it, so the traced run uses ``--workers 1`` only.

Spans are kept in memory as ``[name, start, end, parent]`` lists, with
``parent`` the index of the enclosing span or -1, and are written out by
the caller at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    """Span and count recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` updates counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return traced


class _TimedGenerator:
    """Delegates to a numpy Generator, timing and counting ``standard_normal``."""

    def __init__(self, tracer: Tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def standard_normal(self, *args, **kwargs):
        index = self._tracer.open("montecarlo.draw")
        try:
            out = self._generator.standard_normal(*args, **kwargs)
        finally:
            self._tracer.close(index)
        self._tracer.counts["montecarlo.normals_drawn"] += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._generator, name)


def _nbytes(result) -> int:
    parts = result if isinstance(result, tuple) else (result,)
    return sum(part.nbytes for part in parts)


def _skew_flop(args, result) -> int:
    """Nominal flops of the four dense collocation matmuls on a 2N-1 point grid."""
    coeffs = args[1]
    batch = coeffs.shape[0] if coeffs.ndim == 2 else 1
    n = coeffs.shape[-1]
    return 4 * 2 * batch * n * (2 * n - 1)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced callable of ``spde_lab`` for the ``with`` body."""
    mods = {
        name: importlib.import_module(f"spde_lab.{name}")
        for name in ("cli", "montecarlo", "wave", "burgers", "heat", "wiener", "lyapunov")
    }
    cli, counts = mods["cli"], tracer.counts

    def add(key, amount):
        def after(args, result):
            counts[key] += amount(args, result)

        return after

    def written(path_arg):
        return add("montecarlo.bytes_written", lambda a, r: os.path.getsize(a[path_arg]))

    orig_map_blocks = cli.map_blocks

    @functools.wraps(orig_map_blocks)
    def map_blocks(fn, *args, **kwargs):
        # The block callables are cli's per-sample summary kernels (or a
        # solver's block function); their own time is cli self time.
        def block(start, stop):
            counts["montecarlo.blocks"] += 1
            with tracer.span("cli.block"):
                return fn(start, stop)

        with tracer.span("montecarlo.map_blocks"):
            return orig_map_blocks(block, *args, **kwargs)

    orig_generator = mods["montecarlo"].RandomStream.generator

    @functools.wraps(orig_generator)
    def generator(self):
        return _TimedGenerator(tracer, timed_generator(self))

    timed_generator = tracer.wrap("montecarlo.generator", orig_generator)

    patches = [
        (cli, "map_blocks", map_blocks),
        (mods["montecarlo"].RandomStream, "generator", generator),
        (cli, "pairwise_stats", tracer.wrap("montecarlo.pairwise_stats", cli.pairwise_stats)),
        (cli, "write_report_csv", tracer.wrap("montecarlo.write", cli.write_report_csv, written(1))),
        (cli, "write_summary_json", tracer.wrap("montecarlo.write", cli.write_summary_json, written(1))),
        (cli, "write_series_csv", tracer.wrap("montecarlo.write", cli.write_series_csv, written(0))),
    ]
    wave = mods["wave"]
    patches += [
        (wave, "simulate_block", tracer.wrap(
            "wave.simulate_block", wave.simulate_block,
            add("wave.bytes_returned", lambda a, r: _nbytes(r)))),
        (wave, "energy_block", tracer.wrap("wave.energy_block", wave.energy_block)),
    ]
    burgers = mods["burgers"]
    patches += [
        (burgers, "trace_block", tracer.wrap("burgers.trace_block", burgers.trace_block)),
        (burgers, "skew_nonlinearity", tracer.wrap(
            "burgers.skew_nonlinearity", burgers.skew_nonlinearity,
            add("burgers.nonlinearity_flop", _skew_flop))),
    ]
    for mod, name in (
        ("heat", "simulate_block"),
        ("wiener", "sample_increments_block"),
        ("lyapunov", "log_norm_path"),
        ("lyapunov", "estimate_from_path"),
    ):
        target = mods[mod]
        patches.append((target, name, tracer.wrap(f"{mod}.{name}", getattr(target, name))))

    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# Per-layer metrics: name -> (unit, kind, key).  "total" sums the durations
# of the spans named key, "self" their self times, "count" reads counter key.
LAYER_METRICS = {
    "montecarlo.generator_calls": ("count", "count", "montecarlo.generator.calls"),
    "montecarlo.generator_s": ("s", "total", "montecarlo.generator"),
    "montecarlo.normals_drawn": ("count", "count", "montecarlo.normals_drawn"),
    "montecarlo.draw_s": ("s", "total", "montecarlo.draw"),
    "montecarlo.blocks": ("count", "count", "montecarlo.blocks"),
    "montecarlo.map_blocks_s": ("s", "total", "montecarlo.map_blocks"),
    "montecarlo.pairwise_stats_calls": ("count", "count", "montecarlo.pairwise_stats.calls"),
    "montecarlo.pairwise_stats_s": ("s", "total", "montecarlo.pairwise_stats"),
    "montecarlo.write_s": ("s", "total", "montecarlo.write"),
    "montecarlo.bytes_written": ("bytes", "count", "montecarlo.bytes_written"),
    "wave.simulate_block_self_s": ("s", "self", "wave.simulate_block"),
    "wave.energy_block_s": ("s", "total", "wave.energy_block"),
    "wave.bytes_returned": ("bytes", "count", "wave.bytes_returned"),
    "burgers.skew_nonlinearity_calls": ("count", "count", "burgers.skew_nonlinearity.calls"),
    "burgers.skew_nonlinearity_s": ("s", "total", "burgers.skew_nonlinearity"),
    "burgers.trace_block_self_s": ("s", "self", "burgers.trace_block"),
    "heat.simulate_block_self_s": ("s", "self", "heat.simulate_block"),
    "wiener.sample_increments_block_self_s": ("s", "self", "wiener.sample_increments_block"),
    "lyapunov.log_norm_path_s": ("s", "total", "lyapunov.log_norm_path"),
    "lyapunov.estimate_from_path_s": ("s", "total", "lyapunov.estimate_from_path"),
    "cli.run_s": ("s", "total", "cli.run"),
}

# Counts that must repeat exactly between two traced runs of one workload.
COUNT_METRICS = [name for name, (_, kind, _) in LAYER_METRICS.items() if kind == "count"] + [
    "burgers.nonlinearity_gflop"
]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    total, own = defaultdict(float), defaultdict(float)
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        own[name] += self_s
    source = {"total": total, "self": own, "count": tracer.counts}
    out = {
        metric: (source[kind][key], unit) for metric, (unit, kind, key) in LAYER_METRICS.items()
    }
    normals = tracer.counts["montecarlo.normals_drawn"]
    out["montecarlo.draw_ns_per_normal"] = (
        1e9 * total["montecarlo.draw"] / normals if normals else 0.0, "ns"
    )
    out["burgers.nonlinearity_gflop"] = (tracer.counts["burgers.nonlinearity_flop"] / 1e9, "GFLOP")
    out["cli.self_s"] = (own["cli.run"] + own["cli.block"], "s")
    return out
