import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spde_lab
from spde_lab import cli, lyapunov, wave
from spde_lab.cli import run
from spde_lab.hilbert import CovarianceSpectrum, HilbertVector
from spde_lab.montecarlo import RandomStream
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


def test_bad_grid_exits_2(capsys):
    code = run(["heat", "--dt", "0.3", "--t-final", "0.2", "--out", "/tmp/never"])
    assert code == 2
    assert "t-final" in capsys.readouterr().err


def test_bad_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no-such-flag": 1}))
    assert run(["heat", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "no-such-flag" in capsys.readouterr().err


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


@pytest.mark.parametrize("entry", [{"samples": [3]}, {"samples": 2.5}, {"seed": True}])
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
    grid = TimeGrid(0.0, 10 / 2000, 2000)
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


def test_wave_block_memory_within_stated_bound():
    # The _block_size docstring: a 64-mode, 2000-step wave block peaks
    # below 3/8 x _BLOCK_BYTES.
    n, steps = 64, 2000
    grid = TimeGrid(0.0, 0.001, steps)
    prob = wave.WaveProblem.from_initial_conditions(
        HilbertVector.unit(n, 1), HilbertVector(np.zeros(n)), wave_speed=1.0,
        length=1.0, epsilon=1.0, spectrum=CovarianceSpectrum.parse("power:2", n),
    )
    means, pair_idx = cli._field_plan(grid, lambda t: wave.mean_coefficients(prob, t))
    basis_vals = prob.basis.evaluate(np.array([0.25, 0.5, 0.75]))
    batch = cli._block_size(16 * steps * n)
    assert batch == 32
    tracemalloc.start()
    try:
        values = cli._field_block(
            wave.simulate_block, prob, grid, basis_vals, means, pair_idx, RandomStream(3), 0, batch
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape[0] == batch
    assert peak <= 3 / 8 * cli._BLOCK_BYTES


# Runs every subcommand through cli.run in a fresh interpreter (this test
# process has scipy loaded already) and prints the exit codes and the
# scipy / concurrent.futures modules loaded by then.
_IMPORT_PROBE = """
import json, sys
from spde_lab import cli
out, workers = sys.argv[1:]
runs = [
    ["wave", "--modes", "4", "--dt", "0.05", "--t-final", "0.5", "--samples", "300"],
    ["heat", "--samples", "300"],
    ["wiener", "--modes", "4", "--samples", "300"],
    ["lyapunov", "--t-final", "5"],
    ["burgers", "--modes", "8", "--dt", "0.001", "--t-final", "0.05", "--samples", "300"],
]
codes = [
    cli.run([*argv, "--workers", workers, "--seed", "3", "--out", f"{out}/{i}"])
    for i, argv in enumerate(runs)
]
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("concurrent.futures")]
print(json.dumps({"codes": codes, "loaded": sorted(loaded)}))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_runs_without_scipy_or_an_idle_pool(tmp_path, workers):
    # scipy is a test dependency only, and a serial run never imports the
    # process pool: both would cost every CLI call start-up time.
    env = dict(os.environ, PYTHONPATH=str(Path(spde_lab.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), str(workers)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    # Exit 1 is a gate verdict at this seed, not a crash; 2 would be a usage error.
    assert all(code in (0, 1) for code in result["codes"]), result["codes"]
    assert not any(m.split(".")[0] == "scipy" for m in result["loaded"]), result["loaded"]
    # The sampled runs have 300 samples, three blocks: --workers 2 starts a pool.
    assert ("concurrent.futures" in result["loaded"]) == (workers > 1), result["loaded"]
