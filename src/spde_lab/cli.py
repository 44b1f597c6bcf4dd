"""Command-line front end: reproducible experiments with file outputs.

Each subcommand builds a problem, declares its closed-form-vs-Monte Carlo
comparisons as a table of :class:`Check` rows for one runner, and writes
``report.csv``, ``summary.json`` and ``series_*.csv`` into ``--out``.  Exit
status is 0 when every gating comparison passes, 1 on a statistical
failure and 2 on a usage or configuration error.

Flags are long-form kebab-case.  Every flag has a config-file equivalent:
``--config file.json`` reads a JSON object whose keys equal the flag names.
Its entries are parsed as flags placed before the command line's, so an
explicit flag overrides the file and a bad value exits 2; ``null`` leaves a
flag unset, so a run's own ``config.json`` replays it.  The environment
variable ``SPDE_LAB_SEED`` is parsed as a ``--seed`` flag placed before the
file's, so the seed comes from the flag, then the file, then the
environment, then 0.

Given the same configuration and seed, the data CSVs are byte-identical
for any ``--workers`` value; ``summary.json`` embeds the wall-clock time
only in its ``generated-at`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import burgers, heat, lyapunov, wave, wiener
from .hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector, correlation_kernel
from .montecarlo import (
    RandomStream,
    Report,
    compare,
    map_blocks,
    pairwise_stats,
    write_report_csv,
    write_series_csv,
    write_summary_json,
)


class ConfigError(Exception):
    """Invalid configuration (reported on stderr, exit code 2)."""


class Option(NamedTuple):
    name: str
    type: type
    default: object = None
    help: str = ""


_COMMON = [
    Option("seed", int, 0, "master seed (fallback: SPDE_LAB_SEED, then 0)"),
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
            sub.add_argument(f"--{opt.name}", dest=opt.name, type=opt.type, default=opt.default,
                             help=opt.help)
        sub.set_defaults(out=f"runs/{name}")
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The config file's non-null entries as ``--key=value`` flags."""
    names = {opt.name for opt in _OPTIONS[args.subcommand] + _COMMON} - {"config"}
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = sorted(raw.keys() - names)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown} for subcommand {args.subcommand}")
    return [
        f"--{key}={value if isinstance(value, str) else json.dumps(value)}"
        for key, value in raw.items() if value is not None
    ]


def _resolve_config(argv: list[str]) -> dict:
    """Parse the flags; ``SPDE_LAB_SEED`` and then a config file's entries
    are parsed as flags placed before them, so an explicit flag overrides
    the file and the file overrides the environment."""
    parser = build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get("SPDE_LAB_SEED")
    front = [f"--seed={env}"] if env else []
    if args.config is not None:
        front += _config_flags(args)
    resolved = vars(parser.parse_args(argv[:1] + front + argv[1:]))
    del resolved["config"]
    if resolved.get("samples", 2) < 2:
        raise ConfigError("--samples must be at least 2")
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


def _checkpoints(steps: int) -> list[int]:
    """Five evenly spaced grid indices ending at the final step."""
    return sorted({max(1, round(j * steps / 5)) for j in range(1, 6)})


# Bytes of random draws one block may hold.
_BLOCK_BYTES = 64 << 20


def _block_size(bytes_per_sample: int) -> int:
    """Samples per block: at most 128, and at most ``_BLOCK_BYTES`` (64 MiB)
    of ``bytes_per_sample``, one sample's cost for the block layout.

    A sample whose cost alone exceeds the budget gets a block of its own.
    Wiener's cost, 8 x steps x N, is its whole-path draws, which a block
    holds.  Heat's equal 8 x steps x N bounds its [steps+1, N] coefficient
    array, not its draws, which are [steps].  Wave's 16 x steps x N is its
    whole-path draws, but a wave block draws one time slice of about
    ``montecarlo.CHUNK_BYTES`` at a time, so the budget does not bound its
    memory: a 64-mode, 2000-step block peaks at 19.7 MiB under tracemalloc
    with 32 samples and 21.9 MiB with 128.  What it sets is the slice
    length, CHUNK_BYTES / (8 N batch) steps: at N = 64 a 128-sample block
    makes four times the generator calls of a 32-sample one.  A pure
    function of the configuration, so outputs stay byte-identical across
    worker counts and reruns.
    """
    return max(1, min(128, _BLOCK_BYTES // bytes_per_sample))


def _unit_or_zero(n_modes: int, mode: int) -> HilbertVector:
    if mode == 0:
        return HilbertVector(np.zeros(n_modes))
    if not 1 <= mode <= n_modes:
        raise ConfigError(f"mode index {mode} outside 1..{n_modes}")
    return HilbertVector.unit(n_modes, mode)


class Check(NamedTuple):
    """One closed-form-vs-Monte-Carlo row of a report, declared as data.

    ``estimate`` is a per-sample column (any function of the samples, such
    as a squared deviation), reduced with :func:`pairwise_stats`, or a
    precomputed (mean, stderr) pair.
    """

    label: str
    t: float
    closed_form: float
    estimate: np.ndarray | tuple[float, float]
    one_sided: bool = False
    gating: bool = True
    note: str = ""


def _report(cfg: dict, checks: list[Check], **metadata) -> Report:
    """The run's report: one row per check, in order, and its metadata."""
    rows = []
    for c in checks:
        estimate = c.estimate
        if not isinstance(estimate, tuple):
            stats = pairwise_stats(estimate)
            estimate = float(stats.mean), float(stats.stderr)
        rows.append(compare(c.label, c.t, c.closed_form, estimate, one_sided=c.one_sided,
                            gating=c.gating, note=c.note))
    return Report(rows, {"experiment": cfg["subcommand"], "config": cfg, **metadata})


def _mc_columns(values, mean_name: str) -> dict:
    """Series columns ``mean_name`` and ``mc_stderr`` of per-sample rows."""
    stats = pairwise_stats(values)
    return {mean_name: np.asarray(stats.mean), "mc_stderr": np.asarray(stats.stderr)}


# --------------------------------------------------------------------------
# Per-sample summary kernels (top level so worker processes can pickle them)
# --------------------------------------------------------------------------


def _wiener_block(spec, basis, grid, pairs, k_t, k_s, stream, start, stop):
    """Per-sample wiener summaries: ||W_T||^2 / T, <W_T, a> with a the unit
    vector of equal entries, then <W_t, a><W_s, b> for each pair (a, b), then
    ||W_t||^2 at every grid time."""
    inc = wiener.sample_increments_block(spec, basis, grid, stream, start, stop)
    paths = np.concatenate(
        [np.zeros((inc.shape[0], 1, inc.shape[2])), np.cumsum(inc, axis=1)], axis=1
    )
    coeff = np.sqrt(spec.eigenvalues) * paths
    norm2 = np.sum(coeff**2, axis=2)
    vec_a = np.full((coeff.shape[2], 1), 1.0 / np.sqrt(coeff.shape[2]))
    cols = [norm2[:, -1:] / grid.t_final, coeff[:, -1, :] @ vec_a]
    cols += [((coeff[:, k_t, :] @ a) * (coeff[:, k_s, :] @ b))[:, np.newaxis] for a, b in pairs]
    return np.concatenate(cols + [norm2], axis=1)


def _heat_rows(prob, grid, stream, start, stop, keep):
    """Heat coefficients at grid rows ``keep`` and no further columns, in
    the call shape of ``wave.simulate_block``."""
    _, u = heat.simulate_block(prob, grid, stream, start, stop)
    return u[:, keep], np.empty((stop - start, 0))


def _field_block(simulate, prob, grid, basis_vals, means, pair_idx, stream, start, stop):
    """Per-sample field summaries: the field at the x points at the final
    step, the L2 deviation at each checkpoint, the cross deviation of each
    checkpoint pair, then the further columns of ``simulate``.

    ``simulate`` is ``wave.simulate_block`` (energies at every step) or
    :func:`_heat_rows`: it returns u at the checkpoints and the final step
    only.  ``means`` maps each checkpoint index to its mean coefficients.
    """
    keep = sorted({*means, grid.steps})
    u, extra = simulate(prob, grid, stream, start, stop, keep)
    devs = {k: u[:, j, :] - means[k] for j, k in enumerate(keep) if k in means}
    cols = [u[:, -1, :] @ basis_vals.T]
    cols += [np.sum(dev**2, axis=1)[:, np.newaxis] for dev in devs.values()]
    cols += [np.sum(devs[k_t] * devs[k_s], axis=1)[:, np.newaxis] for k_t, k_s in pair_idx]
    return np.concatenate(cols + [extra], axis=1)


def _field_plan(grid: wiener.TimeGrid, mean):
    """Coefficients of the mean field ``mean(t)`` keyed by checkpoint index,
    and the three checkpoint pairs of the covariance checks."""
    k = _checkpoints(grid.steps)
    means = {kk: mean(grid.times[kk]).coeffs for kk in k}
    return means, [(k[-1], k[len(k) // 2]), (k[-1], k[0]), (k[len(k) // 2], k[0])]


def _field_experiment(cfg, grid, prob, simulate, bytes_per_sample, x_points, mean, variance,
                      covariance, correlation=None):
    """Per-sample :func:`_field_block` values of a wave or heat field and
    their checks: ``mean_x*`` at the final time, ``variance`` at each
    checkpoint and ``covariance_s=*`` for each checkpoint pair, each followed
    by ``correlation_s=*`` when ``correlation`` is given.  A correlation is a
    ratio of means, so its estimate comes from fixed-count batch means
    rather than one pairwise reduction.
    """
    means, pair_idx = _field_plan(grid, mean)
    basis_vals = prob.basis.evaluate(np.asarray(x_points))
    stream = RandomStream(cfg["seed"]).child(0)
    fn = partial(_field_block, simulate, prob, grid, basis_vals, means, pair_idx, stream)
    values = map_blocks(
        fn, cfg["samples"], workers=cfg["workers"], block_size=_block_size(bytes_per_sample)
    )

    n_x, n_k = len(x_points), len(means)
    var_cols = dict(zip(means, values[:, n_x : n_x + n_k].T))
    mean_final = mean(grid.t_final)
    checks = [
        Check(f"mean_x{i}", grid.t_final, mean_final.evaluate(prob.basis, x), col)
        for i, (x, col) in enumerate(zip(x_points, values.T), start=1)
    ]
    checks += [
        Check("variance", grid.times[k], variance(grid.times[k]), col)
        for k, col in var_cols.items()
    ]
    n_batches = min(20, values.shape[0] // 2)
    batches = np.array_split(np.arange(values.shape[0]), n_batches)
    for (k_t, k_s), col in zip(pair_idx, values[:, n_x + n_k :].T):
        t, s = grid.times[k_t], grid.times[k_s]
        checks.append(Check(f"covariance_s={s:g}", t, covariance(t, s), col))
        if correlation is None:
            continue
        corr = np.array(
            [
                col[idx].mean() / np.sqrt(var_cols[k_t][idx].mean() * var_cols[k_s][idx].mean())
                for idx in batches
            ]
        )
        checks.append(
            Check(
                f"correlation_s={s:g}", t, correlation(t, s),
                (float(corr.mean()), float(corr.std(ddof=1) / np.sqrt(len(corr)))),
                note=f"batch-means estimate ({n_batches} batches)",
            )
        )
    return values, checks


# --------------------------------------------------------------------------
# Experiments: each declares its checks and series
# --------------------------------------------------------------------------


def _run_wiener(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "l")
    grid = _grid(cfg)
    basis = DirichletBasis(cfg["l"], cfg["modes"])
    spec = CovarianceSpectrum.parse(cfg["spectrum"], cfg["modes"])
    stream = RandomStream(cfg["seed"])
    n = cfg["modes"]

    aux = stream.child(1).generator()
    pairs = []
    for _ in range(3):
        a, b = aux.standard_normal(n), aux.standard_normal(n)
        pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
    x_probe, y_probe = 0.3 * cfg["l"], 0.7 * cfg["l"]
    probe = (basis.evaluate(x_probe), basis.evaluate(y_probe))
    k_t, k_s = grid.steps, max(1, grid.steps // 2)

    fn = partial(
        _wiener_block, spec, basis, grid, pairs + [probe], k_t, k_s, stream.child(0)
    )
    values = map_blocks(
        fn, cfg["samples"], workers=cfg["workers"], block_size=_block_size(8 * grid.steps * n)
    )

    t_final = grid.t_final
    m = min(t_final, grid.times[k_s])
    closed = {"trace_identity": spec.trace, "zero_mean": 0.0}
    for i, (a, b) in enumerate(pairs, start=1):
        closed[f"bilinear_{i}"] = m * float((spec.eigenvalues * a) @ b)
    closed["kernel_identity"] = m * correlation_kernel(spec, basis, x_probe, y_probe)
    checks = [Check(lab, t_final, c, col) for (lab, c), col in zip(closed.items(), values.T)]

    series = {
        "series_norm2.csv": {
            "t": grid.times, "closed_form": spec.trace * grid.times,
            **_mc_columns(values[:, len(checks) :], "mc_mean"),
        }
    }
    return _report(cfg, checks), series


_PUMPING_NOTE = (
    "diagnostic: white-in-time forcing pumps mean energy at rate "
    "epsilon^2 Tr(Q)/2, so a constant-mean-energy comparison fails "
    "systematically; excluded from exit status"
)


def _run_wave(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "c", "l")
    grid = _grid(cfg)
    n = cfg["modes"]
    spec = CovarianceSpectrum.parse(cfg["spectrum"], n)
    f = _unit_or_zero(n, cfg["f-mode"])
    g = _unit_or_zero(n, cfg["g-mode"])
    prob = wave.WaveProblem.from_initial_conditions(
        f, g, wave_speed=cfg["c"], length=cfg["l"], epsilon=cfg["epsilon"], spectrum=spec
    )
    values, checks = _field_experiment(
        cfg, grid, prob, wave.simulate_block, 16 * grid.steps * n,
        [i * cfg["l"] / 6 for i in range(1, 6)],
        *(partial(fn, prob) for fn in (
            wave.mean_coefficients, wave.variance_closed_form, wave.covariance_closed_form
        )),
    )

    energies = values[:, -(grid.steps + 1) :]
    e0 = wave.initial_energy(prob)
    for kk in _checkpoints(grid.steps):
        t, e = grid.times[kk], energies[:, kk]
        checks += [
            Check("energy_mean_vs_E0", t, e0, e, gating=False, note=_PUMPING_NOTE),
            Check(
                "energy_variance", t, wave.energy_variance_closed_form(prob, t),
                (e - pairwise_stats(e).mean) ** 2,
            ),
        ]

    series = {
        "series_energy.csv": {
            "t": grid.times, **_mc_columns(energies, "mc_mean_energy"),
            "initial_energy": np.full(grid.steps + 1, e0),
            "pumped_energy": e0 + wave.mean_energy_drift(prob, grid.times),
        }
    }
    return _report(cfg, checks), series


def _run_heat(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes")
    if cfg["samples"] < 4:
        raise ConfigError("heat needs --samples of at least 4 (two correlation batches)")
    grid = _grid(cfg)
    prob = heat.HeatProblem(cfg["epsilon"], _unit_or_zero(cfg["modes"], cfg["init-mode"]).coeffs)
    _, checks = _field_experiment(
        cfg, grid, prob, _heat_rows, 8 * grid.steps * prob.n_modes, [0.25, 0.5, 0.75],
        *(partial(fn, prob) for fn in (
            heat.mean_closed_form, heat.variance_closed_form, heat.covariance_closed_form,
            heat.correlation_closed_form,
        )),
    )
    mean_norm = np.array([heat.mean_closed_form(prob, t).norm() for t in grid.times])
    return _report(cfg, checks), {
        "series_mean_norm.csv": {"t": grid.times, "closed_mean_norm": mean_norm}
    }


def _run_lyapunov(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "t-final")
    if cfg["dt"] is None:
        cfg["dt"] = cfg["t-final"] / 2000
    grid = _grid(cfg)
    if cfg["t-burn"] is None:
        cfg["t-burn"] = 0.1 * cfg["t-final"]
    if cfg["mode"] < 1:
        raise ConfigError("--mode must be a positive mode index")

    f = HilbertVector.unit(max(cfg["mode"], 4), cfg["mode"])
    prob = lyapunov.LyapunovProblem(cfg["alpha"], cfg["beta"], cfg["gamma"], f.coeffs)
    det = lyapunov.exponent_deterministic(prob)
    stoch = lyapunov.exponent_stochastic(prob)
    stream = RandomStream(cfg["seed"]).child(0)
    estimate = lyapunov.estimate_from_path(prob, grid, stream, cfg["t-burn"])

    if cfg["gamma"] != 0:
        stderr = estimate.stderr
        band_note = "tolerance band 3*sqrt(6/5)*gamma/sqrt(t-final - t-burn)"
    else:
        stderr, band_note = 1e-9 / 3, "tolerance 1e-9 (deterministic path)"
    checks = [
        Check(
            "stabilization_shift", cfg["t-final"],
            (cfg["beta"] - cfg["alpha"]) - 0.5 * cfg["gamma"] ** 2,
            (stoch - det, 0.0), note="exact arithmetic identity",
        ),
        Check(
            "exponent_path_vs_formula", cfg["t-final"], stoch,
            (estimate.slope, stderr), note=band_note,
        ),
    ]

    log_norm = estimate.log_norm
    series = {
        "series_lognorm.csv": {
            "t": grid.times,
            "log_norm": log_norm,
            "formula_line": log_norm[0] + stoch * grid.times,
        }
    }
    return _report(cfg, checks), series


def _run_burgers(cfg: dict) -> tuple[Report, dict]:
    _require_positive(cfg, "modes", "nu", "l", "delta", "init-amp")
    grid = _grid(cfg)
    n = cfg["modes"]
    if cfg["noise"] == "additive":
        noise = burgers.AdditiveNoise(CovarianceSpectrum.parse(cfg["spectrum"], n))
    elif cfg["noise"] == "multiplicative":
        noise = burgers.MultiplicativeNoise()
    else:
        raise ConfigError(f"--noise must be additive or multiplicative, got {cfg['noise']!r}")
    u0 = _unit_or_zero(n, cfg["init-mode"]).coeffs * cfg["init-amp"]
    # An invalid problem and a step above the CFL limit raise ValueError
    # (exit 2), like a ConfigError.
    prob = burgers.BurgersProblem(cfg["nu"], cfg["l"], cfg["sigma"], noise, u0, cfg["poincare-c"])
    fn = partial(burgers.trace_block, prob, grid, RandomStream(cfg["seed"]).child(0))
    e2, diverged = map_blocks(fn, cfg["samples"], workers=cfg["workers"])
    divergence_count = int(np.sum(diverged >= 0))
    e2_init = float(np.sum(u0**2))
    bound = burgers.energy_bound(prob, grid.times, e2_init)

    trace_note = ""
    if cfg["noise"] == "additive" and cfg["l"] != 1.0:
        trace_note = (
            "warning: bound uses the trace term sigma^2 * l * Tr(Q) as printed; "
            "the conventional Ito correction carries no l factor"
        )

    checks = []
    if divergence_count:
        checks.append(
            Check(
                "divergence_count", grid.t_final, 0.0, (float(divergence_count), 0.0),
                note="samples aborted at the blow-up threshold; from then on their NaN "
                "energies fail the energy_vs_bound rows and count as exits",
            )
        )
    checkpoints = _checkpoints(grid.steps)
    checks += [
        Check(
            "energy_vs_bound", grid.times[kk], float(bound[kk]), e2[:, kk],
            one_sided=True, note=trace_note,
        )
        for kk in checkpoints
    ]
    for kk in (checkpoints[len(checkpoints) // 2], grid.steps):
        t = grid.times[kk]
        p_hat = float((~(e2[:, kk] < cfg["delta"] ** 2)).astype(float).mean())
        se = float(np.sqrt(p_hat * (1 - p_hat) / len(e2)))
        checks.append(
            Check(
                "exit_probability", t,
                float(burgers.exit_probability_bound(prob, t, e2_init, cfg["delta"])),
                (p_hat, se), one_sided=True, note=f"binomial SE at delta={cfg['delta']:g}",
            )
        )

    series = {
        "series_energy.csv": {
            "t": grid.times, **_mc_columns(e2, "mc_mean_energy"),
            "bound": np.asarray(bound, dtype=float),
        }
    }
    return _report(cfg, checks, **{"divergence-count": divergence_count}), series


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
    try:
        cfg = _resolve_config(sys.argv[1:] if argv is None else list(argv))
        report, series = _EXPERIMENTS[cfg["subcommand"]](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(report, out_dir / "report.csv")
    write_summary_json(report, out_dir / "summary.json")
    flags = {k: v for k, v in cfg.items() if k != "subcommand"}
    (out_dir / "config.json").write_text(json.dumps(flags, indent=2, sort_keys=True) + "\n")
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
