import argparse
import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import spde_lab
from spde_lab import cli, heat, lyapunov, montecarlo, wave, wiener
from spde_lab.cli import run
from spde_lab.hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector
from spde_lab.montecarlo import RandomStream, block_moments
from spde_lab.wiener import TimeGrid

HEAT_ARGS = [
    "heat", "--samples", "400", "--epsilon", "0.5", "--t-final", "0.2",
    "--dt", "0.05", "--seed", "9",
]


def _read_report(out_dir):
    with open(out_dir / "report.csv") as fh:
        return list(csv.DictReader(fh))


def test_unknown_subcommand_exits_2(capsys):
    assert run(["bogus"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert run(["heat", "--frobnicate", "1"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["heat", "--dt", "0.3", "--t-final", "0.2"],
        # An infinite final time is a usage error naming the flag, not an
        # OverflowError traceback (exit 1) or a NaN message.
        *([cmd, "--t-final", "inf"] for cmd in ("heat", "wave", "burgers", "lyapunov")),
        # A step count beyond float range, not an OverflowError (exit 3).
        ["heat", "--t-final", "1e300", "--dt", "1e-10"],
        # Lyapunov's derived dt, t-final / 2000, underflows to 0.
        ["lyapunov", "--t-final", "1e-321"],
    ],
    ids=["dt-above-t-final", "heat-inf", "wave-inf", "burgers-inf", "lyapunov-inf",
         "steps-overflow", "lyapunov-dt-underflow"],
)
def test_bad_grid_exits_2(argv, capsys):
    code = run(argv + ["--out", "/tmp/never"])
    assert code == 2
    assert "t-final" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["heat", "--epsilon", "inf"], "epsilon"),
        (["lyapunov", "--gamma", "nan"], "gamma"),
        (["burgers", "--sigma", "inf"], "sigma"),
        (["burgers", "--poincare-c", "inf"], "poincare-c"),
        (["wave", "--epsilon=-inf"], "epsilon"),
        (["heat", "--t-final", "inf"], "t-final"),
        (["lyapunov", "--alpha", "inf"], "alpha"),
        (["lyapunov", "--beta=-inf"], "beta"),
        (["lyapunov", "--t-burn", "nan"], "t-burn"),
        (["wiener", "--dt", "1e400"], "dt"),
    ],
)
def test_non_finite_float_flag_exits_2(tmp_path, capsys, argv, flag):
    # A float flag that is inf or nan is a usage error naming the flag, not
    # a run to the end that exits 1 as a statistical failure.
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    assert f"--{flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exits_2(tmp_path, capsys, workers):
    assert run(["wiener", "--workers", workers, "--out", str(tmp_path / "o")]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# A value outside each bounded flag's domain, at its edge, and a valid value.
# The finite-only flags (epsilon, alpha, beta, gamma, sigma, t-burn,
# poincare-c) are covered by test_non_finite_float_flag_exits_2.
DOMAIN_EDGES = [
    ("wiener", "seed", -1, 0),
    ("wiener", "workers", 0, 1),
    ("wiener", "modes", 0, 4),
    ("wiener", "samples", 1, 20),
    ("lyapunov", "mode", 0, 1),
    ("wiener", "dt", 0.0, 0.01),
    ("wiener", "t-final", 0.0, 1.0),
    ("wiener", "t-final", -1.0, 1.0),
    ("wiener", "l", 0.0, 1.0),
    ("wave", "c", 0.0, 1.0),
    ("burgers", "nu", 0.0, 0.5),
    ("burgers", "delta", 0.0, 1.0),
    ("burgers", "init-amp", 0.0, 0.5),
    ("burgers", "noise", "both", "additive"),
]


@pytest.mark.parametrize("cmd, flag, bad, good", DOMAIN_EDGES,
                         ids=[f"{c}-{f}={b}" for c, f, b, _ in DOMAIN_EDGES])
def test_value_outside_flag_domain_exits_2(tmp_path, capsys, cmd, flag, bad, good):
    # Each flag's argparse type is its domain: a value outside it exits 2
    # with argparse's message naming the flag, from the command line and
    # from a config file alike, even when a valid flag overrides the entry.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: bad}))
    text = bad if isinstance(bad, str) else json.dumps(bad)
    for argv in ([f"--{flag}={text}"], ["--config", str(cfg), f"--{flag}={good}"]):
        assert run([cmd, *argv, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"argument --{flag}" in err and "Traceback" not in err, argv
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_negative_seed_exits_2(tmp_path, capsys, monkeypatch, source):
    # SeedSequence rejects a negative seed with a ValueError (exit 3 with a
    # traceback); the seed's type rejects it first, wherever it comes from.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    argv = {"flag": ["--seed", "-1"], "config": ["--config", str(cfg)], "env": []}[source]
    if source == "env":
        monkeypatch.setenv("SPDE_LAB_SEED", "-1")
    assert run(["wiener", *argv, "--samples", "20", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_seed_beyond_64_bits_runs(tmp_path, capsys):
    seed = 2**70
    out = tmp_path / "o"
    assert run(["wiener", "--modes", "4", "--samples", "20", "--seed", str(seed),
                "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    assert json.loads((out / "config.json").read_text())["seed"] == seed


def test_every_flag_has_help():
    [subparsers] = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.help, (name, action.option_strings)


@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, target):
    # An --out that cannot be made (an existing file, or a path under one)
    # is a configuration error naming --out, not an internal error, and is
    # found before the run draws anything.
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "map_blocks", no_run)
    (tmp_path / "file").write_text("")
    assert run(["wiener", "--samples", "20", "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["wave", "--spectrum", "finite:a"], "spectrum"),
        (["wiener", "--spectrum", "power"], "spectrum"),
        (["burgers", "--spectrum", "finite:-1"], "spectrum"),
        (["burgers", "--noise", "multiplicative", "--spectrum", "finite:a"], "spectrum"),
        (["wave", "--spectrum", "finite:nan"], "spectrum"),
        (["wave", "--spectrum", "finite:1,1", "--modes", "1"], "spectrum"),
        (["burgers", "--poincare-c", "0.01"], "poincare-c"),
        (["burgers", "--dt", "0.5", "--t-final", "1", "--init-amp", "50"], "dt"),
        (["burgers", "--dt", "0.5", "--t-final", "1", "--init-amp", "50", "--workers", "2",
          "--samples", "200"], "dt"),
        (["wave", "--f-mode", "17"], "f-mode"),
        (["wave", "--g-mode", "-1"], "g-mode"),
        (["heat", "--init-mode", "9"], "init-mode"),
        (["burgers", "--init-mode", "65"], "init-mode"),
        (["heat", "--epsilon", "0"], "epsilon"),
        (["heat", "--init-mode", "0"], "init-mode"),
        (["heat", "--init-mode", "8", "--t-final", "10"], "t-final"),
    ],
    ids=[
        "spectrum-number", "spectrum-syntax", "spectrum-negative",
        "spectrum-multiplicative", "spectrum-nan",
        "spectrum-too-long", "poincare-c", "cfl", "cfl-pool", "f-mode", "g-mode",
        "heat-init-mode", "burgers-init-mode", "heat-epsilon-0", "heat-init-mode-0",
        "heat-variance-underflow",
    ],
)
def test_library_input_error_exits_2_naming_the_flag(tmp_path, capsys, argv, flag):
    # The library's ValueError on a bad input reaches the user as a
    # configuration error naming the flag, before any output is written.
    samples = [] if "--samples" in argv else ["--samples", "20"]
    code = run(argv + samples + ["--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"--{flag}" in err and "Traceback" not in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("error", [ValueError("bad"), RuntimeError("bad"), ZeroDivisionError()])
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, error):
    # Any exception that is not a ConfigError is a defect: exit 3 with its
    # traceback and "internal error" on stderr, not a usage error (2) or a
    # statistical failure (1).
    def broken(cfg):
        raise error

    monkeypatch.setitem(cli._EXPERIMENTS, "wiener", broken)
    assert run(["wiener", "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "Traceback" in err and type(error).__name__ in err
    assert not (tmp_path / "o").exists()


def test_run_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    # A grid or ensemble that does not fit in memory is a configuration
    # error naming the flags that size it, not an internal error.
    def too_large(cfg):
        raise MemoryError

    monkeypatch.setitem(cli._EXPERIMENTS, "wave", too_large)
    assert run(["wave", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    for flag in ("--samples", "--modes", "--dt", "--t-final"):
        assert flag in err
    assert "Traceback" not in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["heat", "--epsilon", "1e200"],
        ["wave", "--epsilon", "1e100", "--samples", "20"],
        ["burgers", "--sigma", "1e200", "--samples", "2", "--t-final", "0.01"],
        ["lyapunov", "--gamma", "1e200"],
        ["wave", "--c", "1e300", "--samples", "10", "--t-final", "0.02"],
        ["wave", "--l", "1e-300", "--samples", "10", "--t-final", "0.02"],
        ["lyapunov", "--t-final", "1e300"],
    ],
    ids=["heat", "wave", "burgers", "lyapunov", "wave-c", "wave-l", "lyapunov-t-final"],
)
def test_float_overflow_exits_2(argv, tmp_path, capsys):
    # A closed form's Python-float power of the noise intensity (eps^2,
    # eps^4, sigma^2, gamma^2) overflows, or a numpy array does (the wave's
    # squared frequencies at an extreme --c or --l, the Lyapunov fit's
    # squared times at an extreme --t-final): a configuration error naming
    # the flags, not an internal error or NaN rows that fail.
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "--epsilon" in err and "--sigma" in err and "--gamma" in err
    assert "--c" in err and "--l" in err and "--t-final" in err
    assert "Traceback" not in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_delta_overflow_exits_2_naming_delta(tmp_path, capsys, monkeypatch):
    # delta^2 overflows: rejected before any sample runs, naming --delta
    # rather than the noise flags.
    monkeypatch.setattr(cli, "map_blocks", lambda *a, **k: pytest.fail("the run started"))
    argv = ["burgers", "--delta", "1e200", "--samples", "2", "--t-final", "0.01"]
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "--delta" in err
    assert "Traceback" not in err and "internal error" not in err
    assert not (tmp_path / "o").exists()


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-such-flag": 1}))
    assert run(["heat", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "no-such-flag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [(None, "cannot read config file"), ("{samples: 20", "cannot read config file"),
     ("[20]", "must contain a JSON object")],
    ids=["missing", "invalid-json", "list"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run(["heat", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_write_failure_after_the_run_exits_2_naming_out(tmp_path, capsys):
    # --out passes the check before the run, but report.csv is a directory,
    # so the first write fails: a configuration error naming --out.
    out = tmp_path / "o"
    (out / "report.csv").mkdir(parents=True)
    assert run(["wiener", "--samples", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err and "internal error" not in err


def test_heat_run_outputs(tmp_path, capsys):
    out = tmp_path / "heat"
    code = run(HEAT_ARGS + ["--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = _read_report(out)
    header = list(rows[0].keys())
    assert header == ["label", "t", "closed_form", "mc_mean", "mc_stderr", "z", "pass"]
    labels = {r["label"] for r in rows}
    assert any(l.startswith("mean") for l in labels)
    assert "variance" in labels
    assert any(l.startswith("covariance") for l in labels)
    assert any(l.startswith("correlation") for l in labels)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all-passed"] is True
    assert summary["config"]["seed"] == 9
    assert "generated-at" in summary
    assert (out / "series_mean_norm.csv").exists()


def test_identical_config_reproduces_bytes(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(HEAT_ARGS + ["--out", str(out_a)]) == 0
    assert run(HEAT_ARGS + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("report.csv", "series_mean_norm.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # Summaries agree except for the timestamp and the output path itself.
    sa = json.loads((out_a / "summary.json").read_text())
    sb = json.loads((out_b / "summary.json").read_text())
    for s in (sa, sb):
        s.pop("generated-at")
        s["config"].pop("out")
    assert sa == sb


def test_config_file_equivalent_to_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"samples": 400, "epsilon": 0.5, "t-final": 0.2, "dt": 0.05, "seed": 9}
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["heat", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run(HEAT_ARGS + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


# One small run of each subcommand; Burgers' config.json holds a null
# ("poincare-c") and Lyapunov's the dt and t-burn it derived.
REPLAY_RUNS = [
    HEAT_ARGS,
    ["wave", "--modes", "4", "--dt", "0.05", "--t-final", "0.5", "--samples", "300",
     "--seed", "3"],
    ["wiener", "--modes", "4", "--samples", "300", "--seed", "3"],
    ["lyapunov", "--t-final", "5", "--gamma", "-1", "--seed", "3"],
    ["burgers", "--modes", "8", "--dt", "0.001", "--t-final", "0.05", "--samples", "40",
     "--seed", "3"],
]


def test_written_config_round_trips(tmp_path, capsys):
    for i, argv in enumerate(REPLAY_RUNS):
        out_a, out_b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert run(argv + ["--out", str(out_a)]) == 0
        assert run([argv[0], "--config", str(out_a / "config.json"), "--out", str(out_b)]) == 0
        for path in out_a.glob("*.csv"):
            assert path.read_bytes() == (out_b / path.name).read_bytes(), (argv[0], path.name)
    capsys.readouterr()


def test_config_null_means_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": None, "seed": 9, "t-final": 0.2}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["heat", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run(["heat", "--seed", "9", "--t-final", "0.2", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert json.loads((out_a / "config.json").read_text())["samples"] == 2000
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def _resolved_workers(*argv) -> int:
    """The worker count of a command-line run of ``argv``."""
    return cli._resolve_config(list(argv), cli._cpus())["workers"]


def _sized_wave(samples, modes=1, *extra):
    """A wave run of ``samples`` x 1 step x ``modes``, as flags."""
    return ["wave", "--samples", str(samples), "--modes", str(modes), "--dt", "1",
            "--t-final", "1", *extra]


@pytest.mark.parametrize(
    "affinity, cpu_count, cpus",
    [({0, 1, 2}, None, 3), (None, lambda: 3, 3), (None, lambda: None, 1)],
    ids=["affinity", "cpu_count", "unknown"],
)
def test_default_workers_pool_large_runs_only(monkeypatch, affinity, cpu_count, cpus):
    # On the command line, an unset --workers is the CPUs this process may
    # use (its affinity, or os.cpu_count where the affinity call is
    # missing), capped at the sample blocks, from _POOL_WORK samples x steps
    # x modes on; serial below it, and in a run given its argv by a program.
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", cpu_count)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    work = cli._POOL_WORK
    assert _resolved_workers(*_sized_wave(work)) == cpus
    assert _resolved_workers(*_sized_wave(work - 1)) == 1
    assert cli._resolve_config(_sized_wave(work))["workers"] == 1
    assert _resolved_workers(*_sized_wave(200, work)) == min(cpus, 2)  # two 128-sample blocks
    assert _resolved_workers("lyapunov", "--t-final", "1e6") == 1  # one path, no samples
    # An explicit count is kept, below the CPUs or above them.
    assert _resolved_workers(*_sized_wave(work, 1, "--workers", "1")) == 1
    assert _resolved_workers(*_sized_wave(200, work, "--workers", "3")) == 3
    assert _resolved_workers(*_sized_wave(2, 1, "--workers", "3")) == 3


def test_config_file_workers(tmp_path, monkeypatch):
    # A config file's "workers": null resolves like no entry; a count is kept.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = tmp_path / "cfg.json"
    for workers, expected in [(None, 2), (1, 1), (3, 3)]:
        cfg.write_text(json.dumps({"workers": workers, "samples": cli._POOL_WORK, "modes": 1,
                                   "dt": 1, "t-final": 1}))
        assert _resolved_workers("wave", "--config", str(cfg)) == expected, workers
    assert _resolved_workers("wave", "--config", str(cfg), "--workers", "1") == 1


class _RecordingPool:
    """A stand-in ``ProcessPoolExecutor`` that records its worker count and maps
    in this process, so no worker starts."""

    calls: list = []

    def __init__(self, **kwargs):
        self.calls.append(kwargs["max_workers"])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_default_workers_reach_the_pool_and_the_echo(tmp_path, capsys, monkeypatch):
    # A command-line run over the threshold (lowered here, so the run stays
    # small) pools at the resolved count, config.json and summary.json echo
    # it, and replaying config.json, passing --workers 1 or passing the argv
    # to run() writes the same data; the last two start no pool.
    monkeypatch.setattr(cli, "_POOL_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(_RecordingPool, "calls", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    argv = ["wave", "--modes", "4", "--dt", "0.05", "--t-final", "0.5", "--samples", "300",
            "--seed", "3"]
    outs = [tmp_path / name for name in "abcd"]
    monkeypatch.setattr(sys, "argv", ["spde-lab", *argv, "--out", str(outs[0])])
    assert run() == 0
    assert _RecordingPool.calls == [3]  # 300 samples are three blocks
    assert json.loads((outs[0] / "config.json").read_text())["workers"] == 3
    assert json.loads((outs[0] / "summary.json").read_text())["config"]["workers"] == 3
    assert run(["wave", "--config", str(outs[0] / "config.json"), "--out", str(outs[1])]) == 0
    assert _RecordingPool.calls == [3, 3]
    assert run(argv + ["--workers", "1", "--out", str(outs[2])]) == 0
    assert run(argv + ["--out", str(outs[3])]) == 0
    assert _RecordingPool.calls == [3, 3]
    assert json.loads((outs[3] / "config.json").read_text())["workers"] == 1
    capsys.readouterr()
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names == ["report.csv", "series_energy.csv"]
    for name in names:
        assert len({(out / name).read_bytes() for out in outs}) == 1, name


@pytest.mark.parametrize(
    "entry",
    [{"samples": [3]}, {"samples": 2.5}, {"seed": True}, {"epsilon": math.inf}, {"samples": 1},
     {"seed": -1}, {"modes": 0}],
)
def test_config_bad_value_exits_2(tmp_path, capsys, entry):
    # File values are parsed as flags: what --samples=2.5 rejects, the file
    # does too, with argparse's message and no traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert run(["heat", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "invalid" in err and next(iter(entry)) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"samples": 400, "epsilon": 0.5, "t-final": 0.2, "dt": 0.05, "seed": 9}
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["heat", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert run(["heat", "--config", str(cfg), "--seed", "10", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "report.csv").read_bytes() != (out_b / "report.csv").read_bytes()
    assert json.loads((out_b / "summary.json").read_text())["config"]["seed"] == 10


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SPDE_LAB_SEED", "9")
    args = [a for a in HEAT_ARGS if a not in ("--seed", "9")]
    assert run(args + ["--out", str(out_a)]) == 0
    monkeypatch.delenv("SPDE_LAB_SEED")
    assert run(HEAT_ARGS + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


def test_env_seed_below_config_and_flag(tmp_path, capsys, monkeypatch):
    # The seed comes from the flag, then the config file, then the
    # environment: SPDE_LAB_SEED=9 under a config seed of 10 runs seed 10,
    # and --seed 11 on top of both runs seed 11.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 400, "t-final": 0.2, "dt": 0.05, "seed": 10}))
    monkeypatch.setenv("SPDE_LAB_SEED", "9")
    for extra, seed in (([], 10), (["--seed", "11"], 11)):
        out = tmp_path / str(seed)
        assert run(["heat", "--config", str(cfg), *extra, "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["seed"] == seed
    monkeypatch.delenv("SPDE_LAB_SEED")
    for seed in (10, 11):
        out = tmp_path / f"plain{seed}"
        argv = ["heat", "--samples", "400", "--t-final", "0.2", "--dt", "0.05"]
        assert run(argv + ["--seed", str(seed), "--out", str(out)]) == 0
        want = (tmp_path / str(seed) / "report.csv").read_bytes()
        assert (out / "report.csv").read_bytes() == want
    capsys.readouterr()


def test_bad_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPDE_LAB_SEED", "abc")
    assert run(["heat", "--samples", "400", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_heat_sample_minimum(tmp_path, capsys):
    # Heat's correlation rows are batch means over min(20, samples // 2)
    # batches, so below 4 samples one batch leaves a NaN stderr: 3 samples
    # are a usage error, raised before any draw; 4 run without a warning.
    argv = ["heat", "--seed", "1", "--out"]
    assert run(argv + [str(tmp_path / "s3"), "--samples", "3"]) == 2
    err = capsys.readouterr().err
    assert "--samples" in err and "Traceback" not in err
    assert not (tmp_path / "s3").exists()
    assert run(argv + [str(tmp_path / "s4"), "--samples", "4"]) in (0, 1)
    capsys.readouterr()


def test_lyapunov_example_row(tmp_path, capsys):
    out = tmp_path / "lyap"
    code = run(
        ["lyapunov", "--alpha", "0", "--beta", "0", "--gamma", "1", "--mode", "1",
         "--t-final", "100", "--seed", "7", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    rows = {r["label"]: r for r in _read_report(out)}
    formula = float(rows["exponent_path_vs_formula"]["closed_form"])
    estimate = float(rows["exponent_path_vs_formula"]["mc_mean"])
    assert formula == pytest.approx(-math.pi**2 - 0.5, rel=1e-12)
    band = 3 * 1.0 / math.sqrt(0.9 * 100)
    assert abs(estimate - formula) <= band
    assert rows["stabilization_shift"]["pass"] == "True"
    assert (out / "series_lognorm.csv").exists()


def test_lyapunov_gamma_zero_gates_the_deterministic_path(tmp_path, capsys):
    # Without noise the path is deterministic: the row's stderr is 1e-9/3,
    # so the gate is a 1e-9 tolerance, and the note says so.
    out = tmp_path / "lyap"
    assert run(["lyapunov", "--gamma", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    row = {r["label"]: r for r in _read_report(out)}["exponent_path_vs_formula"]
    assert float(row["mc_stderr"]) == 1e-9 / 3 and row["pass"] == "True"
    notes = json.loads((out / "summary.json").read_text())["notes"]
    assert {"label": "exponent_path_vs_formula", "t": 100.0,
            "note": "tolerance 1e-9 (deterministic path)"} in notes


def test_lyapunov_shift_row_tests_the_library_identity(tmp_path, capsys, monkeypatch):
    # Here fl(fl(det + shift) - det) != shift, so comparing stoch - det with
    # the shift failed on correct code.  The row tests the library's bitwise
    # identity stoch == det + shift instead, and reports the shift when it holds.
    argv = ["lyapunov", "--alpha", "0.3", "--beta", "1.7", "--gamma", "0.9", "--t-final", "10"]
    det = lyapunov.exponent_deterministic(lyapunov.LyapunovProblem(0.3, 1.7, 0.9, [1.0]))
    shift = (1.7 - 0.3) - 0.5 * 0.9**2
    assert (det + shift) - det != shift
    assert run(argv + ["--out", str(tmp_path / "ok")]) == 0
    row = {r["label"]: r for r in _read_report(tmp_path / "ok")}["stabilization_shift"]
    assert row["pass"] == "True" and row["mc_mean"] == row["closed_form"]
    # A stochastic exponent without the Ito correction -gamma^2/2 fails the row.
    monkeypatch.setattr(
        lyapunov, "exponent_stochastic",
        lambda prob: lyapunov.exponent_deterministic(prob) + (prob.beta - prob.alpha),
    )
    assert run(argv + ["--out", str(tmp_path / "bad")]) == 1
    capsys.readouterr()
    row = {r["label"]: r for r in _read_report(tmp_path / "bad")}["stabilization_shift"]
    assert row["pass"] == "False"


def test_lyapunov_stderr_matches_slope_spread_over_paths(tmp_path, capsys):
    # The least-squares slope of gamma w over a window W has variance
    # (6/5) gamma^2 / W; the row's stderr is its square root.
    window = 10 - 1
    for gamma in ("1", "-1"):
        out = tmp_path / f"lyap{gamma}"
        argv = ["lyapunov", "--gamma", gamma, "--t-final", "10", "--seed", "7"]
        assert run(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        row = {r["label"]: r for r in _read_report(out)}["exponent_path_vs_formula"]
        stderr = float(row["mc_stderr"])
        assert stderr == pytest.approx(math.sqrt(1.2 / window), rel=1e-12)

    prob = lyapunov.LyapunovProblem(0.0, 0.0, 1.0, np.array([1.0, 0.0, 0.0, 0.0]))
    grid = TimeGrid(10 / 2000, 2000)
    slopes = [
        lyapunov.estimate_from_path(prob, grid, RandomStream(11).child(k), 1.0).slope
        for k in range(400)
    ]
    assert np.var(slopes, ddof=1) == pytest.approx(stderr**2, rel=0.15)


def test_lyapunov_stderr_uses_fitted_span(tmp_path, capsys):
    # t-burn 2.5 is off the grid (dt 7/2000): the fit starts at 2.5025, so
    # W is the fitted span 4.4975, not t-final - t-burn = 4.5.
    out = tmp_path / "lyap"
    assert run(["lyapunov", "--t-burn", "2.5", "--t-final", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    row = {r["label"]: r for r in _read_report(out)}["exponent_path_vs_formula"]
    assert float(row["mc_stderr"]) == pytest.approx(math.sqrt(1.2 / 4.4975), rel=1e-12)


@pytest.mark.parametrize(
    "window, flags",
    [
        (["--t-burn", "20", "--t-final", "10"], ["--t-burn", "--t-final"]),
        (["--t-burn", "9.999", "--t-final", "10"], ["--t-burn", "--t-final", "--dt"]),
    ],
)
def test_lyapunov_window_error_names_flags(tmp_path, capsys, window, flags):
    code = run(["lyapunov", *window, "--out", str(tmp_path / "lyap")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert all(flag in err for flag in flags)


def test_wiener_run_passes(tmp_path, capsys):
    out = tmp_path / "wiener"
    code = run(
        ["wiener", "--modes", "8", "--spectrum", "exp:0.5", "--samples", "2000",
         "--dt", "0.25", "--t-final", "1", "--seed", "3", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    assert (out / "series_norm2.csv").exists()


def test_burgers_multiplicative_run(tmp_path, capsys):
    out = tmp_path / "burg"
    code = run(
        ["burgers", "--noise", "multiplicative", "--modes", "24", "--nu", "0.5",
         "--sigma", "1", "--dt", "0.002", "--t-final", "0.5", "--samples", "200",
         "--seed", "4", "--delta", "0.6", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    labels = [r["label"] for r in _read_report(out)]
    assert "energy_vs_bound" in labels and "exit_probability" in labels
    summary = json.loads((out / "summary.json").read_text())
    assert summary["divergence-count"] == 0


def test_burgers_length_warns_of_the_printed_trace_term(tmp_path, capsys):
    # At l != 1 the additive bound keeps the printed sigma^2 l Tr(Q) term,
    # and every energy_vs_bound note says so.
    out = tmp_path / "burg"
    code = run(["burgers", "--l", "2", "--modes", "16", "--t-final", "0.05", "--samples", "20",
                "--out", str(out)])
    assert code in (0, 1)
    capsys.readouterr()
    notes = json.loads((out / "summary.json").read_text())["notes"]
    bound_notes = [n["note"] for n in notes if n["label"] == "energy_vs_bound"]
    assert len(bound_notes) == 5
    assert all("trace term sigma^2 * l * Tr(Q) as printed" in note for note in bound_notes)


def test_burgers_divergence_exits_1_with_files(tmp_path, capsys):
    # Most samples blow up: the run is a failed verdict (exit 1), not a usage
    # error, and still writes every file.
    out = tmp_path / "burg"
    code = run(
        ["burgers", "--sigma", "50", "--modes", "16", "--dt", "0.01", "--t-final", "1",
         "--samples", "20", "--seed", "7", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 1
    names = {p.name for p in out.iterdir()}
    assert names == {"report.csv", "summary.json", "config.json", "series_energy.csv"}
    rows = _read_report(out)
    summary = json.loads((out / "summary.json").read_text())
    diverged = summary["divergence-count"]
    assert diverged > 0 and summary["all-passed"] is False
    [count_row] = [r for r in rows if r["label"] == "divergence_count"]
    assert float(count_row["mc_mean"]) == diverged and count_row["pass"] == "False"
    # NaN energies fail their rows; a diverged sample counts as an exit.
    final = [r for r in rows if r["label"] == "energy_vs_bound"][-1]
    assert math.isnan(float(final["mc_mean"])) and final["pass"] == "False"
    exit_final = [r for r in rows if r["label"] == "exit_probability"][-1]
    assert float(exit_final["mc_mean"]) >= diverged / 20


def test_short_grids_repeat_no_row(tmp_path, capsys):
    # One or two steps give fewer than five distinct checkpoints: the
    # report has fewer rows, never two with the same label and time.
    flags = {
        "wiener": ["--modes", "4", "--dt", "0.01"],
        "wave": ["--modes", "4", "--dt", "0.01"],
        "heat": ["--dt", "0.05"],
        "burgers": ["--modes", "8", "--dt", "0.001"],
    }
    for steps in (1, 2):
        for cmd, argv in flags.items():
            out = tmp_path / f"{cmd}{steps}"
            t_final = f"{steps * float(argv[-1]):g}"
            code = run([cmd, *argv, "--t-final", t_final, "--samples", "40", "--out", str(out)])
            assert code in (0, 1)
            keys = [(r["label"], r["t"]) for r in _read_report(out)]
            assert len(keys) == len(set(keys)), (cmd, steps)
    capsys.readouterr()


def test_wave_example_invocation(tmp_path, capsys):
    # Flag names are part of the interface; this invocation is pinned.
    out = tmp_path / "wave1"
    code = run(
        ["wave", "--modes", "16", "--spectrum", "power:2", "--c", "1", "--l", "1",
         "--epsilon", "1", "--dt", "0.005", "--t-final", "2", "--samples", "10000",
         "--seed", "42", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    labels = {r["label"] for r in _read_report(out)}
    assert {"variance", "energy_variance", "energy_mean_vs_E0"} <= labels
    assert any(l.startswith("mean_x") for l in labels)
    assert any(l.startswith("covariance") for l in labels)


def test_wave_diagnostic_energy_row_not_gating(tmp_path, capsys):
    out = tmp_path / "wave"
    code = run(
        ["wave", "--modes", "6", "--spectrum", "power:2", "--epsilon", "1",
         "--dt", "0.05", "--t-final", "1", "--samples", "2000", "--seed", "21",
         "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    rows = _read_report(out)
    energy_rows = [r for r in rows if r["label"] == "energy_mean_vs_E0"]
    assert energy_rows and all(r["pass"] == "False" for r in energy_rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["diagnostic_failed"] == len(energy_rows)
    assert summary["all-passed"] is True


def _field_kernel(simulate, mean, prob, grid):
    means, pair_idx = cli._field_plan(grid, partial(mean, prob))
    basis_vals = prob.basis.evaluate(np.array([0.25, 0.5, 0.75]))
    return partial(cli._field_block, simulate, prob, grid, basis_vals, means, pair_idx)


def _wiener_kernel(n, grid):
    spec = CovarianceSpectrum.parse("power:2", n)
    vecs = np.random.default_rng(1).standard_normal((8, n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    pairs = list(zip(vecs[0::2], vecs[1::2]))
    return partial(cli._wiener_block, spec, DirichletBasis(1.0, n), grid, pairs, grid.steps // 2)


def _kernels(n, grid):
    wave_prob = wave.WaveProblem.from_initial_conditions(
        HilbertVector.unit(n, 1), HilbertVector(np.zeros(n)), wave_speed=1.0,
        length=1.0, epsilon=1.0, spectrum=CovarianceSpectrum.parse("power:2", n),
    )
    heat_prob = heat.HeatProblem(0.5, HilbertVector.unit(n, 1).coeffs)
    return {
        "wave": _field_kernel(wave.simulate_block, wave.mean_coefficients, wave_prob, grid),
        "heat": _field_kernel(heat.simulate_block, heat.mean_closed_form, heat_prob, grid),
        "wiener": _wiener_kernel(n, grid),
    }


@pytest.mark.parametrize("kernel", ["wave", "heat", "wiener"])
def test_block_memory_within_stated_bound(kernel):
    # A 64-mode, 2000-step block of 128 samples peaks below 24 MiB: no
    # kernel holds a [batch, steps, N] array, which would take 131 MB.
    n, steps, batch = 64, 2000, 128
    fn = _kernels(n, TimeGrid(0.001, steps))[kernel]
    tracemalloc.start()
    try:
        values, moments = fn(RandomStream(3), 0, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape[0] == moments.n == batch
    assert peak <= 24 << 20


@pytest.mark.parametrize("subcommand", ["wave", "burgers"])
def test_long_run_holds_no_samples_by_steps_array(tmp_path, capsys, subcommand):
    # Each block reduces its energy series to moments, so a series costs
    # O(blocks x steps) in the run: a 1024-sample, 2000-step run peaks below
    # one [samples, steps+1] float64 array (15.6 MiB).  A run that held the
    # series per sample would peak at about 1.4 (Burgers) to 1.7 (wave) of them.
    samples, steps = 1024, 2000
    tracemalloc.start()
    try:
        code = run([subcommand, "--modes", "4", "--dt", "0.001", "--t-final", "2",
                    "--samples", str(samples), "--workers", "1", "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code in (0, 1)
    assert peak < samples * (steps + 1) * 8


@pytest.mark.parametrize("rows", [1, 3, 7, 40])
def test_wiener_block_independent_of_chunk_rows(monkeypatch, rows):
    # Increments arrive in slices of `rows` steps (one at a time up to one
    # slice of all 40); each equals the whole-path formula on
    # sample_increments_block bit for bit.
    n, batch = 6, 5
    grid = TimeGrid(0.01, 40)
    fn = _wiener_kernel(n, grid)
    spec, basis, _, pairs, k_s = fn.args
    monkeypatch.setattr(montecarlo, "CHUNK_BYTES", 8 * batch * n * rows)
    got, moments = fn(RandomStream(14), 3, 3 + batch)
    inc = wiener.sample_increments_block(spec, basis, grid, RandomStream(14), 3, 3 + batch)
    paths = np.concatenate([np.zeros((batch, 1, n)), np.cumsum(inc, axis=1)], axis=1)
    coeff = np.sqrt(spec.eigenvalues) * paths
    norm2 = np.sum(coeff**2, axis=2)
    cols = [norm2[:, -1:] / grid.t_final, coeff[:, -1, :] @ np.full((n, 1), 1 / np.sqrt(n))]
    cols += [((coeff[:, -1] @ a) * (coeff[:, k_s] @ b))[:, np.newaxis] for a, b in pairs]
    assert np.array_equal(got, np.concatenate(cols, axis=1))
    want = block_moments(norm2)
    assert np.array_equal(moments.mean, want.mean) and np.array_equal(moments.m2, want.m2)


# Runs every subcommand through cli.run in a fresh interpreter (this test
# process has scipy loaded already) and prints the exit codes and the
# scipy / concurrent.futures modules loaded by then.
_IMPORT_PROBE = """
import json, sys
from spde_lab import cli
out, workers = sys.argv[1:]
flags = ["--workers", workers] if workers else []
runs = [
    ["wave", "--modes", "4", "--dt", "0.05", "--t-final", "0.5", "--samples", "300"],
    ["heat", "--samples", "300"],
    ["wiener", "--modes", "4", "--samples", "300"],
    ["lyapunov", "--t-final", "5"],
    ["burgers", "--modes", "8", "--dt", "0.001", "--t-final", "0.05", "--samples", "300"],
]
codes = []
for i, argv in enumerate(runs):  # as command lines, where a default may pool
    sys.argv = ["spde-lab", *argv, *flags, "--seed", "3", "--out", f"{out}/{i}"]
    codes.append(cli.run())
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("concurrent.futures")]
print(json.dumps({"codes": codes, "loaded": sorted(loaded)}))
"""


# Runs spde-lab's entry point on the given argv in a fresh interpreter and
# prints its exit code and numpy's BLAS thread count afterwards.
_MAIN_PROBE = """
import json, sys
from spde_lab import cli, montecarlo
sys.argv = ["spde-lab", *sys.argv[1:]]
try:
    cli.main()
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "threads": montecarlo._openblas()[0]()}))
"""


def test_main_keeps_one_blas_thread_after_a_pooled_run(tmp_path):
    # main sets one BLAS thread before the run, so map_blocks has no thread
    # count to restore after its pool, and OpenBLAS's thread server is not
    # restarted.
    if montecarlo._openblas() is None:
        pytest.skip("numpy's BLAS offers no thread-count call")
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(spde_lab.__file__).parents[1])
    argv = ["heat", "--samples", "300", "--workers", "2", "--seed", "3", "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-c", _MAIN_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] in (0, 1), result
    assert result["threads"] == 1, result


@pytest.mark.parametrize("workers", [None, 1, 2])
def test_cli_runs_without_scipy_or_an_idle_pool(tmp_path, workers):
    # scipy is a test dependency only, and a serial run never imports the
    # process pool: both would cost every CLI call start-up time.  Without
    # --workers (None) these small runs stay below cli._POOL_WORK, so serial.
    env = dict(os.environ, PYTHONPATH=str(Path(spde_lab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), str(workers or "")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    # Exit 1 is a gate verdict at this seed, not a crash; 2 would be a usage error.
    assert all(code in (0, 1) for code in result["codes"]), result["codes"]
    assert not any(m.split(".")[0] == "scipy" for m in result["loaded"]), result["loaded"]
    # The sampled runs have 300 samples, three blocks: --workers 2 starts a pool.
    assert ("concurrent.futures" in result["loaded"]) == (workers == 2), result["loaded"]


def test_closed_stdout_keeps_the_verdict(tmp_path):
    # The reading end is closed before the child prints (as after `| head`),
    # so its first write to stdout fails with EPIPE.  The files are written
    # by then: the exit status is the verdict, with no traceback.
    env = dict(os.environ, PYTHONPATH=str(Path(spde_lab.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "spde_lab.cli", "wiener", "--samples", "20",
             "--out", str(tmp_path)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=300,
        )
    finally:
        os.close(write_end)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert done.returncode == (0 if summary["all-passed"] else 1)
    assert done.stderr == ""
