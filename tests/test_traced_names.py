"""The benchmark's tracer patches named callables of ``spde_lab``; a rename
or deletion of one of them must fail here, not only in the benchmark, and so
must a traced callable that no run reaches, whose metrics would read 0."""

import contextlib
import io
from collections import Counter
from pathlib import Path

from spde_lab import burgers, cli, heat, lyapunov, montecarlo, wave, wiener

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# A small run of each subcommand.
RUNS = {
    "wave": ["--modes", "4", "--dt", "0.05", "--t-final", "0.5", "--samples", "300"],
    "burgers": ["--modes", "8", "--dt", "0.001", "--t-final", "0.05", "--samples", "40"],
    "heat": ["--samples", "300"],
    "wiener": ["--modes", "8", "--samples", "300"],
    "lyapunov": ["--t-final", "10"],
}

# Traced, but no longer called by the CLI, so their metrics read 0.
UNREACHED = ["wave.energy_block", "wiener.sample_increments_block"]


def test_tracer_finds_every_traced_name(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    owners = [cli, montecarlo, montecarlo.RandomStream, wave, burgers, heat, wiener, lyapunov]
    before = [(owner, dict(vars(owner))) for owner in owners]
    calls = Counter()  # (traced name, subcommand) -> calls

    def counting(name, fn):
        def call(*args, **kwargs):
            calls[name, subcommand] += 1
            return fn(*args, **kwargs)

        return call

    with tracer.installed(tracer.Tracer()), contextlib.redirect_stdout(io.StringIO()):
        # The tracer restores the originals on exit, over these wrappers too.
        traced = []
        for owner, attrs in before:
            for attr, value in attrs.items():
                if vars(owner)[attr] is not value:
                    traced.append(f"{owner.__name__.rpartition('.')[2]}.{attr}")
                    setattr(owner, attr, counting(traced[-1], vars(owner)[attr]))
        for subcommand, argv in RUNS.items():
            out = tmp_path / subcommand
            assert cli.run([subcommand, *argv, "--seed", "5", "--out", str(out)]) in (0, 1)

    reached = {name for name, _ in calls}
    assert sorted(set(traced) - reached) == sorted(UNREACHED)
    # One reduction per row column; a series is reduced in its blocks, whose
    # moments map_blocks merges, so it takes no pairwise_stats call.
    pairwise = {sub: calls["cli.pairwise_stats", sub] for sub in RUNS}
    assert pairwise == {"wave": 18, "burgers": 0, "heat": 11, "wiener": 6, "lyapunov": 0}
