"""Command-line front end: reproducible experiments with file outputs.

Each subcommand builds a problem, runs a fixed set of closed-form-vs-Monte
Carlo comparisons and writes ``report.csv``, ``summary.json`` and one or
more ``series_*.csv`` files into the output directory.  Exit status is 0
when every gating comparison passes, 1 on a statistical failure and 2 on a
usage or configuration error.

Flags are long-form kebab-case.  Every flag has a config-file equivalent:
``--config file.json`` supplies defaults from a JSON object whose keys
equal the flag names; explicit command-line values override the file.  The
environment variable ``SPDE_LAB_SEED`` is the fallback seed when neither
flag nor config provides one.

Given the same configuration and seed, the data CSVs are byte-identical
for any ``--workers`` value; ``summary.json`` embeds the wall-clock time
only in its ``generated-at`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import burgers, heat, lyapunov, wave, wiener
from .hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector
from .montecarlo import (
    RandomStream,
    Report,
    compare,
    comparison_row,
    map_blocks,
    pairwise_stats,
    write_report_csv,
    write_series_csv,
    write_summary_json,
)


class ConfigError(Exception):
    """Invalid configuration (reported on stderr, exit code 2)."""


@dataclass(frozen=True)
class Option:
    name: str
    type: type
    default: object = None
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_COMMON = [
    Option("seed", int, None, "master seed (fallback: SPDE_LAB_SEED, then 0)"),
    Option("workers", int, 1, "worker processes for ensemble sharding"),
    Option("out", str, None, "output directory (default runs/<subcommand>)"),
    Option("config", str, None, "JSON config file with flag-name keys"),
]

_OPTIONS: dict[str, list[Option]] = {
    "wiener": [
        Option("spectrum", str, "power:2", "covariance spectrum, e.g. power:2, exp:0.5, finite:1,0.5"),
        Option("modes", int, 16, "number of retained modes"),
        Option("l", float, 1.0, "domain length"),
        Option("dt", float, 0.01, "time step"),
        Option("t-final", float, 1.0, "final time"),
        Option("samples", int, 2000, "Monte Carlo sample count"),
    ],
    "wave": [
        Option("spectrum", str, "power:2"),
        Option("modes", int, 16),
        Option("c", float, 1.0, "wave speed"),
        Option("l", float, 1.0, "domain length"),
        Option("epsilon", float, 1.0, "noise intensity"),
        Option("f-mode", int, 1, "initial displacement = e_{f-mode} (0 for none)"),
        Option("g-mode", int, 0, "initial velocity = e_{g-mode} (0 for none)"),
        Option("dt", float, 0.01),
        Option("t-final", float, 2.0),
        Option("samples", int, 2000),
    ],
    "heat": [
        Option("modes", int, 8),
        Option("epsilon", float, 0.5, "multiplicative noise intensity"),
        Option("init-mode", int, 1, "initial condition = e_{init-mode}"),
        Option("dt", float, 0.05),
        Option("t-final", float, 0.25),
        Option("samples", int, 2000),
    ],
    "lyapunov": [
        Option("alpha", float, 0.0, "deterministic growth rate"),
        Option("beta", float, 0.0, "stochastic drift rate"),
        Option("gamma", float, 1.0, "noise intensity"),
        Option("mode", int, 1, "initial condition = e_mode"),
        Option("t-final", float, 100.0),
        Option("dt", float, None, "time step (default t-final / 2000)"),
        Option("t-burn", float, None, "burn-in time (default 0.1 t-final)"),
    ],
    "burgers": [
        Option("spectrum", str, "power:2", "covariance spectrum (additive noise)"),
        Option("modes", int, 64),
        Option("nu", float, 0.5, "viscosity"),
        Option("sigma", float, 0.25, "noise intensity"),
        Option("l", float, 1.0, "domain length"),
        Option("noise", str, "additive", "additive | multiplicative"),
        Option("init-mode", int, 1, "initial condition mode"),
        Option("init-amp", float, 0.5, "initial condition amplitude"),
        Option("poincare-c", float, None, "Poincare constant (default (l/pi)^2)"),
        Option("delta", float, 1.0, "exit-probability radius"),
        Option("dt", float, 1e-3),
        Option("t-final", float, 2.0),
        Option("samples", int, 500),
    ],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-lab",
        description="Stochastic-PDE simulation and closed-form verification experiments.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, options in _OPTIONS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        for opt in options + _COMMON:
            # Defaults are injected after config merging, so leave None here.
            sub.add_argument(f"--{opt.name}", type=opt.type, default=None, help=opt.help)
    return parser


def _resolve_config(args: argparse.Namespace) -> dict:
    """Merge CLI values, config-file values and hard defaults (that order)."""
    options = _OPTIONS[args.subcommand] + _COMMON
    by_name = {opt.name: opt for opt in options}
    file_values: dict[str, object] = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in raw.items():
            if key not in by_name or key == "config":
                raise ConfigError(f"unknown config key {key!r} for subcommand {args.subcommand}")
            file_values[key] = by_name[key].type(value)

    resolved = {"subcommand": args.subcommand}
    for opt in options:
        if opt.name == "config":
            continue
        cli_value = getattr(args, opt.dest)
        if cli_value is not None:
            resolved[opt.name] = cli_value
        elif opt.name in file_values:
            resolved[opt.name] = file_values[opt.name]
        else:
            resolved[opt.name] = opt.default

    if resolved["seed"] is None:
        env = os.environ.get("SPDE_LAB_SEED")
        resolved["seed"] = int(env) if env else 0
    if resolved["out"] is None:
        resolved["out"] = f"runs/{args.subcommand}"
    return resolved


def _require_positive(cfg: dict, *names: str) -> None:
    for name in names:
        if not cfg[name] > 0:
            raise ConfigError(f"--{name} must be positive (got {cfg[name]})")


def _grid(cfg: dict) -> wiener.TimeGrid:
    _require_positive(cfg, "dt", "t-final")
    steps = round(cfg["t-final"] / cfg["dt"])
    if steps < 1 or abs(steps * cfg["dt"] - cfg["t-final"]) > 1e-9 * cfg["t-final"]:
        raise ConfigError("--t-final must be an integer multiple of --dt")
    return wiener.TimeGrid(0.0, cfg["dt"], steps)


def _checkpoints(steps: int, count: int = 5) -> list[int]:
    """Evenly spaced grid indices ending at the final step."""
    return sorted({max(1, round(j * steps / count)) for j in range(1, count + 1)})


# Bytes of random draws one block may hold.
_BLOCK_BYTES = 64 << 20


def _block_size(bytes_per_sample: int) -> int:
    """Samples per block: at most 128, and at most ``_BLOCK_BYTES`` (64 MiB)
    of draws when one sample's whole-path draws cost ``bytes_per_sample``.

    A sample whose draws alone exceed the budget gets a block of its own.
    Heat and wiener blocks hold all their draws, so the budget bounds them.
    A wave block draws one time slice at a time: it holds a draw slice of
    about 2 x ``montecarlo.CHUNK_BYTES`` (1 MiB), about twelve slice arrays of
    ``CHUNK_BYTES`` and about ten [steps, n_modes] tables, so at 64 modes
    and 2000 steps (32 samples) it peaks below 3/8 x ``_BLOCK_BYTES`` =
    24 MiB.  A pure function of the configuration, so outputs stay
    byte-identical across worker counts and reruns.
    """
    return max(1, min(128, _BLOCK_BYTES // bytes_per_sample))


def _unit_or_zero(n_modes: int, mode: int) -> HilbertVector:
    if mode == 0:
        return HilbertVector(np.zeros(n_modes))
    if not 1 <= mode <= n_modes:
        raise ConfigError(f"mode index {mode} outside 1..{n_modes}")
    return HilbertVector.unit(n_modes, mode)


# --------------------------------------------------------------------------
# Per-sample summary kernels (top level so worker processes can pickle them)
# --------------------------------------------------------------------------


def _wiener_block(spec, basis, grid, vec_a, pairs, probes, stream, start, stop):
    """Per-sample wiener summaries, shape [batch, 1 + 1 + pairs + probes + steps+1]."""
    inc = wiener.sample_increments_block(spec, basis, grid, stream, start, stop)
    paths = np.concatenate(
        [np.zeros((inc.shape[0], 1, inc.shape[2])), np.cumsum(inc, axis=1)], axis=1
    )
    coeff = np.sqrt(spec.eigenvalues) * paths
    norm2 = np.sum(coeff**2, axis=2)
    cols = [norm2[:, -1:] / grid.t_final, coeff[:, -1, :] @ vec_a[:, np.newaxis]]
    for a, b, k_t, k_s in pairs:
        cols.append(((coeff[:, k_t, :] @ a) * (coeff[:, k_s, :] @ b))[:, np.newaxis])
    for ex, ey, k_t, k_s in probes:
        cols.append(((coeff[:, k_t, :] @ ex) * (coeff[:, k_s, :] @ ey))[:, np.newaxis])
    cols.append(norm2)
    return np.concatenate(cols, axis=1)


def _field_columns(u, basis_vals, means, pair_idx):
    """Field values at the final step, then the L2 deviation at each
    checkpoint, then the cross deviation of each checkpoint pair.

    ``means`` maps each checkpoint index to its mean coefficients.
    """
    devs = {k: u[:, k, :] - mean for k, mean in means.items()}
    cols = [u[:, -1, :] @ basis_vals.T]
    cols += [np.sum(dev**2, axis=1)[:, np.newaxis] for dev in devs.values()]
    cols += [np.sum(devs[k_t] * devs[k_s], axis=1)[:, np.newaxis] for k_t, k_s in pair_idx]
    return cols


def _wave_block(prob, grid, basis_vals, means, pair_idx, stream, start, stop):
    """Per-sample wave summaries: :func:`_field_columns`, then energies.

    Only u at the checkpoints and the final step is kept; the kernel reads
    it by position among the kept rows.
    """
    keep = sorted({*means, grid.steps})
    pos = {k: j for j, k in enumerate(keep)}
    u, energies = wave.simulate_block(prob, grid, stream, start, stop, keep)
    cols = _field_columns(
        u, basis_vals, {pos[k]: mean for k, mean in means.items()},
        [(pos[k_t], pos[k_s]) for k_t, k_s in pair_idx],
    )
    return np.concatenate(cols + [energies], axis=1)


def _heat_block(prob, grid, basis_vals, means, pair_idx, stream, start, stop):
    """Per-sample heat summaries: :func:`_field_columns`."""
    _, u = heat.simulate_block(prob, grid, stream, start, stop)
    return np.concatenate(_field_columns(u, basis_vals, means, pair_idx), axis=1)


def _field_checks(grid: wiener.TimeGrid, mean_coeffs):
    """Mean coefficients ``mean_coeffs(t)`` keyed by checkpoint index, and
    the three checkpoint pairs of the covariance rows."""
    k = _checkpoints(grid.steps)
    means = {kk: mean_coeffs(grid.times[kk]) for kk in k}
    return means, [(k[-1], k[len(k) // 2]), (k[-1], k[0]), (k[len(k) // 2], k[0])]


def _field_rows(values, grid, means, pair_idx, mean_x, variance, covariance):
    """``mean_x*``, ``variance`` and ``covariance_s=*`` rows; row j reads column j.

    ``values`` starts with the :func:`_field_columns` columns.  ``mean_x``
    lists the closed-form means at the final time; ``variance(t)`` and
    ``covariance(t, s)`` give the other closed forms.
    """
    t_final = grid.t_final
    rows = [
        compare(f"mean_x{i}", t_final, closed, pairwise_stats(values[:, i - 1]))
        for i, closed in enumerate(mean_x, start=1)
    ]
    for kk in means:
        t = grid.times[kk]
        rows.append(compare("variance", t, variance(t), pairwise_stats(values[:, len(rows)])))
    for k_t, k_s in pair_idx:
        t, s = grid.times[k_t], grid.times[k_s]
        rows.append(
            compare(
                f"covariance_s={s:g}", t, covariance(t, s),
                pairwise_stats(values[:, len(rows)]),
            )
        )
    return rows


# --------------------------------------------------------------------------
# Experiments
# --------------------------------------------------------------------------


def _run_wiener(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "l", "samples")
    grid = _grid(cfg)
    basis = DirichletBasis(cfg["l"], cfg["modes"])
    spec = CovarianceSpectrum.parse(cfg["spectrum"], cfg["modes"])
    stream = RandomStream(cfg["seed"])
    n = cfg["modes"]

    vec_a = np.full(n, 1.0 / np.sqrt(n))
    aux = stream.child(1).generator()
    k_t, k_s = grid.steps, max(1, grid.steps // 2)
    pairs = []
    for _ in range(3):
        a = aux.standard_normal(n)
        b = aux.standard_normal(n)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        pairs.append((a, b, k_t, k_s))
    x_probe, y_probe = 0.3 * cfg["l"], 0.7 * cfg["l"]
    probes = [(basis.evaluate(x_probe), basis.evaluate(y_probe), k_t, k_s)]

    fn = partial(_wiener_block, spec, basis, grid, vec_a, pairs, probes, stream.child(0))
    values = map_blocks(
        fn, cfg["samples"], workers=cfg["workers"], block_size=_block_size(8 * grid.steps * n)
    )
    stats = [pairwise_stats(values[:, j]) for j in range(values.shape[1])]

    report = Report(metadata={"experiment": "wiener", "config": cfg})
    t_final, t_mid = grid.t_final, grid.times[k_s]
    report.add(compare("trace_identity", t_final, spec.trace, stats[0]))
    report.add(compare("zero_mean", t_final, 0.0, stats[1]))
    col = 2
    for i, (a, b, _, _) in enumerate(pairs, start=1):
        closed = min(t_final, t_mid) * float((spec.eigenvalues * a) @ b)
        report.add(compare(f"bilinear_{i}", t_final, closed, stats[col]))
        col += 1
    kernel_val = float(np.sum(spec.eigenvalues * probes[0][0] * probes[0][1]))
    report.add(compare("kernel_identity", t_final, min(t_final, t_mid) * kernel_val, stats[col]))
    col += 1

    norm2_stats = pairwise_stats(values[:, col:])
    series = {
        "series_norm2.csv": {
            "t": grid.times,
            "closed_form": spec.trace * grid.times,
            "mc_mean": np.asarray(norm2_stats.mean),
            "mc_stderr": np.asarray(norm2_stats.stderr),
        }
    }
    return report, series


def _run_wave(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "c", "l", "samples")
    grid = _grid(cfg)
    n = cfg["modes"]
    spec = CovarianceSpectrum.parse(cfg["spectrum"], n)
    f = _unit_or_zero(n, cfg["f-mode"])
    g = _unit_or_zero(n, cfg["g-mode"])
    prob = wave.WaveProblem.from_initial_conditions(
        f, g, wave_speed=cfg["c"], length=cfg["l"], epsilon=cfg["epsilon"], spectrum=spec
    )
    stream = RandomStream(cfg["seed"])

    x_points = [i * cfg["l"] / 6 for i in range(1, 6)]
    means, pair_idx = _field_checks(grid, lambda t: wave.mean_coefficients(prob, t).coeffs)
    basis_vals = prob.basis.evaluate(np.asarray(x_points))

    fn = partial(_wave_block, prob, grid, basis_vals, means, pair_idx, stream.child(0))
    values = map_blocks(
        fn, cfg["samples"], workers=cfg["workers"], block_size=_block_size(16 * grid.steps * n)
    )

    t_final = grid.t_final
    rows = _field_rows(
        values, grid, means, pair_idx,
        [wave.mean_solution(prob, x, t_final) for x in x_points],
        partial(wave.variance_closed_form, prob), partial(wave.covariance_closed_form, prob),
    )
    report = Report(rows, metadata={"experiment": "wave", "config": cfg})
    energies = values[:, len(rows):]
    e0 = wave.initial_energy(prob)
    pumping_note = (
        "diagnostic: white-in-time forcing pumps mean energy at rate "
        "epsilon^2 Tr(Q)/2, so a constant-mean-energy comparison fails "
        "systematically; excluded from exit status"
    )
    for kk in means:
        t = grid.times[kk]
        e_stats = pairwise_stats(energies[:, kk])
        report.add(
            compare("energy_mean_vs_E0", t, e0, e_stats, gating=False, note=pumping_note)
        )
        var_stats = pairwise_stats((energies[:, kk] - e_stats.mean) ** 2)
        report.add(
            compare(
                "energy_variance", t, wave.energy_variance_closed_form(prob, t), var_stats
            )
        )

    energy_stats = pairwise_stats(energies)
    series = {
        "series_energy.csv": {
            "t": grid.times,
            "mc_mean_energy": np.asarray(energy_stats.mean),
            "mc_stderr": np.asarray(energy_stats.stderr),
            "initial_energy": np.full(grid.steps + 1, e0),
            "pumped_energy": e0 + wave.mean_energy_drift(prob, grid.times),
        }
    }
    return report, series


def _run_heat(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "samples")
    grid = _grid(cfg)
    prob = heat.HeatProblem(cfg["epsilon"], _unit_or_zero(cfg["modes"], cfg["init-mode"]).coeffs)
    stream = RandomStream(cfg["seed"])

    x_points = [0.25, 0.5, 0.75]
    means, pair_idx = _field_checks(grid, lambda t: heat.mean_closed_form(prob, t).coeffs)
    basis_vals = prob.basis.evaluate(np.asarray(x_points))

    fn = partial(_heat_block, prob, grid, basis_vals, means, pair_idx, stream.child(0))
    values = map_blocks(
        fn,
        cfg["samples"],
        workers=cfg["workers"],
        block_size=_block_size(8 * grid.steps * prob.n_modes),
    )

    t_final = grid.t_final
    mean_x = [
        float(heat.mean_closed_form(prob, t_final).evaluate(prob.basis, x)) for x in x_points
    ]
    rows = _field_rows(
        values, grid, means, pair_idx, mean_x,
        partial(heat.variance_closed_form, prob), partial(heat.covariance_closed_form, prob),
    )
    first_cov = len(x_points) + len(means)
    report = Report(rows[:first_cov], metadata={"experiment": "heat", "config": cfg})
    var_cols = dict(zip(means, values[:, len(x_points) : first_cov].T))
    # Correlation is a ratio of means, so its uncertainty comes from
    # fixed-count batch means rather than a single Welford pass.
    n_batches = min(20, values.shape[0] // 2)
    batches = np.array_split(np.arange(values.shape[0]), n_batches)
    for row, (k_t, k_s), cov_col in zip(rows[first_cov:], pair_idx, values[:, first_cov:].T):
        report.add(row)
        t, s = grid.times[k_t], grid.times[k_s]
        corr = np.array(
            [
                cov_col[idx].mean()
                / np.sqrt(var_cols[k_t][idx].mean() * var_cols[k_s][idx].mean())
                for idx in batches
            ]
        )
        closed_corr = heat.correlation_closed_form(prob, t, s)
        report.add(
            comparison_row(
                f"correlation_s={s:g}", t, closed_corr,
                float(corr.mean()), float(corr.std(ddof=1) / np.sqrt(len(corr))),
                note=f"batch-means estimate ({n_batches} batches)",
            )
        )

    mean_norm = np.array([heat.mean_closed_form(prob, t).norm() for t in grid.times])
    series = {
        "series_mean_norm.csv": {"t": grid.times, "closed_mean_norm": mean_norm}
    }
    return report, series


def _run_lyapunov(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "t-final")
    if cfg["dt"] is None:
        cfg["dt"] = cfg["t-final"] / 2000
    grid = _grid(cfg)
    if cfg["t-burn"] is None:
        cfg["t-burn"] = 0.1 * cfg["t-final"]
    if not 0 <= cfg["t-burn"] < cfg["t-final"]:
        raise ConfigError("--t-burn must lie in [0, t-final)")
    if cfg["mode"] < 1:
        raise ConfigError("--mode must be a positive mode index")

    f = HilbertVector.unit(max(cfg["mode"], 4), cfg["mode"])
    prob = lyapunov.LyapunovProblem(cfg["alpha"], cfg["beta"], cfg["gamma"], f.coeffs)
    stream = RandomStream(cfg["seed"])

    det = lyapunov.exponent_deterministic(prob)
    stoch = lyapunov.exponent_stochastic(prob)
    estimate = lyapunov.estimate_from_path(prob, grid, stream.child(0), cfg["t-burn"])

    report = Report(metadata={"experiment": "lyapunov", "config": cfg})
    report.add(
        comparison_row(
            "stabilization_shift", cfg["t-final"],
            (cfg["beta"] - cfg["alpha"]) - 0.5 * cfg["gamma"] ** 2,
            stoch - det, 0.0, note="exact arithmetic identity",
        )
    )
    # The least-squares slope of gamma times a Brownian path over a window
    # W has variance (6/5) gamma^2 / W.
    window = cfg["t-final"] - cfg["t-burn"]
    if cfg["gamma"] != 0:
        band = 3 * np.sqrt(6 / 5) * abs(cfg["gamma"]) / np.sqrt(window)
    else:
        band = 1e-9
    report.add(
        comparison_row(
            "exponent_path_vs_formula", cfg["t-final"], stoch,
            estimate.slope, band / 3,
            note="tolerance band 3*sqrt(6/5)*gamma/sqrt(t-final - t-burn)"
            if cfg["gamma"] != 0
            else "tolerance 1e-9 (deterministic path)",
        )
    )

    log_norm = lyapunov.log_norm_path(prob, grid, stream.child(0))
    series = {
        "series_lognorm.csv": {
            "t": grid.times,
            "log_norm": log_norm,
            "formula_line": log_norm[0] + stoch * grid.times,
        }
    }
    return report, series


def _run_burgers(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "nu", "l", "delta", "init-amp")
    if cfg["samples"] < 2:
        raise ConfigError("--samples must be at least 2")
    grid = _grid(cfg)
    n = cfg["modes"]
    if cfg["noise"] == "additive":
        noise = burgers.AdditiveNoise(CovarianceSpectrum.parse(cfg["spectrum"], n))
    elif cfg["noise"] == "multiplicative":
        noise = burgers.MultiplicativeNoise()
    else:
        raise ConfigError(f"--noise must be additive or multiplicative, got {cfg['noise']!r}")
    u0 = _unit_or_zero(n, cfg["init-mode"]).coeffs * cfg["init-amp"]
    try:
        prob = burgers.BurgersProblem(
            cfg["nu"], cfg["l"], cfg["sigma"], noise, u0, cfg["poincare-c"]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    stream = RandomStream(cfg["seed"])
    fn = partial(burgers.trace_block, prob, grid, stream.child(0))
    try:
        e2, diverged = map_blocks(fn, cfg["samples"], workers=cfg["workers"])
    except burgers.StepSizeError as exc:
        raise ConfigError(str(exc)) from exc
    stats = pairwise_stats(e2)
    divergence_count = int(np.sum(diverged >= 0))
    e2_init = float(np.sum(u0**2))
    if cfg["noise"] == "additive":
        bound = burgers.energy_bound_additive(prob, grid.times, e2_init)
    else:
        bound = burgers.energy_bound_multiplicative(prob, grid.times, e2_init)

    trace_note = ""
    if cfg["noise"] == "additive" and cfg["l"] != 1.0:
        trace_note = (
            "warning: bound uses the trace term sigma^2 * l * Tr(Q) as printed; "
            "the conventional Ito correction carries no l factor"
        )

    report = Report(metadata={"experiment": "burgers", "config": cfg})
    if divergence_count:
        report.add(
            comparison_row(
                "divergence_count", grid.t_final, 0.0, float(divergence_count), 0.0,
                note="samples aborted at the blow-up threshold",
            )
        )
    mean = np.asarray(stats.mean)
    stderr = np.asarray(stats.stderr)
    checkpoints = _checkpoints(grid.steps)
    for kk in checkpoints:
        report.add(
            comparison_row(
                "energy_vs_bound", grid.times[kk], float(bound[kk]),
                float(mean[kk]), float(stderr[kk]), one_sided=True, note=trace_note,
            )
        )

    for kk in (checkpoints[len(checkpoints) // 2], grid.steps):
        t = grid.times[kk]
        exits = (e2[:, kk] >= cfg["delta"] ** 2).astype(float)
        p_hat = float(exits.mean())
        se = float(np.sqrt(p_hat * (1 - p_hat) / len(exits)))
        cheb = burgers.exit_probability_bound(prob, t, e2_init, cfg["delta"])
        report.add(
            comparison_row(
                "exit_probability", t, float(cheb), p_hat, se,
                one_sided=True, note=f"binomial SE at delta={cfg['delta']:g}",
            )
        )

    report.metadata["divergence-count"] = divergence_count
    series = {
        "series_energy.csv": {
            "t": grid.times,
            "mc_mean_energy": mean,
            "mc_stderr": stderr,
            "bound": np.asarray(bound, dtype=float),
        }
    }
    return report, series


_EXPERIMENTS = {
    "wiener": _run_wiener,
    "wave": _run_wave,
    "heat": _run_heat,
    "lyapunov": _run_lyapunov,
    "burgers": _run_burgers,
}


def _print_report(report: Report) -> None:
    header = f"{'label':<28} {'t':>8} {'closed':>13} {'mc_mean':>13} {'stderr':>11} {'z':>8}  pass"
    print(header)
    print("-" * len(header))
    for r in report.rows:
        flag = "ok" if r.passed else ("FAIL" if r.gating else "flag")
        print(
            f"{r.label:<28} {r.t:>8.4g} {r.closed_form:>13.6g} {r.mc_mean:>13.6g} "
            f"{r.mc_stderr:>11.4g} {r.z:>8.3g}  {flag}"
        )
        if r.note:
            print(f"    note: {r.note}")


def run(argv=None) -> int:
    """Execute one experiment; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve_config(args)
        report, series = _EXPERIMENTS[args.subcommand](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out_dir / "report.csv")
    write_summary_json(report, out_dir / "summary.json")
    flags = {k: v for k, v in cfg.items() if k != "subcommand"}
    with open(out_dir / "config.json", "w") as fh:
        json.dump(flags, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for filename, columns in series.items():
        write_series_csv(out_dir / filename, columns)

    _print_report(report)
    counts = report.counts()
    status = "PASS" if report.all_passed() else "FAIL"
    print(f"{status}: {counts['passed']}/{counts['gating']} gating checks passed "
          f"-> {out_dir}")
    return 0 if report.all_passed() else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
