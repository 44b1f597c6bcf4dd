"""Command-line front end: reproducible experiments with file outputs.

Each subcommand builds a problem, declares its closed-form-vs-Monte Carlo
comparisons as a table of :class:`Check` rows for one runner, and writes
``report.csv``, ``summary.json`` and ``series_*.csv`` into ``--out``.  Exit
status is 0 when every gating comparison passes, 1 on a statistical
failure, 2 on a usage or configuration error and 3 on an internal error:
any other exception, traceback on stderr; a closed stdout keeps the status.

A per-step series (the wave and Burgers energies, wiener's ||W_t||^2) is
reduced inside the sample block that computes it: a block returns the
per-sample columns that rows read and the moments of its series, which
:func:`map_blocks` merges.  Only a column that needs the ensemble mean or
single samples stays per sample: the checkpoint energies of the wave's
``energy_variance`` rows and Burgers' exit and divergence rows.

Flags are long-form kebab-case, each declared once in ``_FLAGS``: its
argparse type is its domain (a finite number, a lower bound), so a value
outside it exits 2 with argparse's message naming the flag.  A
:class:`ConfigError` (exit 2, naming the flags) carries the rest: rules
across flags, the library's rejection of an input, a run too large for
memory or the float range and an ``--out`` that cannot be written.  Every
flag has a config-file equivalent: ``--config file.json`` reads a JSON
object whose keys equal the flag names.  Its entries are parsed as flags
placed before the command line's, so an explicit flag overrides the file,
and an entry outside its flag's domain exits 2 even when a flag overrides
it; ``null`` leaves a flag unset, so a run's own ``config.json`` replays it.
The environment variable ``SPDE_LAB_SEED`` is parsed as a ``--seed`` flag
placed before the file's, so the seed comes from the flag, then the file,
then the environment, then 0.

Without ``--workers`` (or with a config file's ``null``), a command-line
run of at least ``_POOL_WORK`` samples x steps x modes uses the CPUs this
process may use, capped at its sample blocks; a smaller run stays in this
process, where a pool's start-up would cost more than it saves, and so
does a :func:`run` given its ``argv`` by a calling program.
``config.json`` and the config in ``summary.json`` echo the count the run
used, so a large default run's echo depends on the machine.  Given the same
configuration and seed, the data CSVs are byte-identical for any
``--workers`` value; ``summary.json`` embeds the wall-clock time only in
its ``generated-at`` field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import burgers, heat, lyapunov, wave, wiener
from .hilbert import CovarianceSpectrum, DirichletBasis, HilbertVector, correlation_kernel
from .montecarlo import (
    BLOCK_SIZE,
    Check,
    RandomStream,
    Report,
    _set_blas_threads,
    block_moments,
    compare,
    map_blocks,
    pairwise_stats,
    write_report_csv,
    write_series_csv,
    write_summary_json,
)


class ConfigError(Exception):
    """Invalid configuration (reported on stderr, exit code 2)."""


def _number(kind: type, low: float | None = None) -> Callable[[str], float]:
    """The argparse type of a numeric flag: a ``kind`` (int or float) value,
    finite if a float, at least ``low`` if an int and above it if a float.
    Any other value is a usage error naming the flag (exit 2)."""
    domain = "an integer" if kind is int else "a finite number"
    if low is not None:
        domain += f" {'>=' if kind is int else '>'} {low}"

    def parse(text: str):
        try:
            value = kind(text)
            # Ints skip np.isfinite, which raises TypeError beyond 64 bits.
            ok = kind is int or np.isfinite(value)
            ok = ok and (low is None or (value >= low if kind is int else value > low))
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be {domain}")
        return value

    return parse


def _noise(text: str) -> str:
    if text not in ("additive", "multiplicative"):
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: must be additive or multiplicative")
    return text


# The samples x steps x modes from which an unset --workers pools the run.
# Measured on 2 CPUs, wiener and wave runs break even in wall time between
# 3 and 5 x 10^6 and gain 20-37% from 6.4 x 10^6; the pool's start-up costs
# about 0.1 s of CPU, some 10% of a run of 10^7.
_POOL_WORK = 10_000_000

# Every flag's argparse type, which is its domain, and its help text.
_FLAGS: dict[str, tuple[Callable[[str], object], str]] = {
    "seed": (_number(int, 0), "master seed (fallback: SPDE_LAB_SEED, then 0)"),
    "workers": (_number(int, 1), "worker processes for ensemble sharding (default: the CPUs "
                "this process may use, capped at the sample blocks, once samples x steps x "
                f"modes reaches {_POOL_WORK:,}; else 1)"),
    "out": (str, "output directory (default runs/<subcommand>)"),
    "config": (str, "JSON config file with flag-name keys"),
    "spectrum": (str, "covariance spectrum, e.g. power:2, exp:0.5, finite:1,0.5"),
    "modes": (_number(int, 1), "number of retained modes"),
    "samples": (_number(int, 2), "Monte Carlo sample count"),
    "dt": (_number(float, 0), "time step (lyapunov's default: t-final / 2000)"),
    "t-final": (_number(float, 0), "final time"),
    "l": (_number(float, 0), "domain length"),
    "c": (_number(float, 0), "wave speed"),
    "epsilon": (_number(float), "noise intensity"),
    "f-mode": (_number(int), "initial displacement = e_{f-mode} (0 for none)"),
    "g-mode": (_number(int), "initial velocity = e_{g-mode} (0 for none)"),
    "init-mode": (_number(int), "initial condition = e_{init-mode} (0 for none)"),
    "alpha": (_number(float), "deterministic growth rate"),
    "beta": (_number(float), "stochastic drift rate"),
    "gamma": (_number(float), "noise intensity"),
    "mode": (_number(int, 1), "initial condition = e_mode"),
    "t-burn": (_number(float), "burn-in time (default 0.1 t-final)"),
    "nu": (_number(float, 0), "viscosity"),
    "sigma": (_number(float), "noise intensity"),
    "noise": (_noise, "additive | multiplicative"),
    "init-amp": (_number(float, 0), "initial condition amplitude"),
    "poincare-c": (_number(float), "Poincare constant (default (l/pi)^2)"),
    "delta": (_number(float, 0), "exit-probability radius"),
}

# Each subcommand's own flags, in --help order, and their defaults.
_DEFAULTS: dict[str, dict[str, object]] = {
    "wiener": {"spectrum": "power:2", "modes": 16, "l": 1.0, "dt": 0.01, "t-final": 1.0,
               "samples": 2000},
    "wave": {"spectrum": "power:2", "modes": 16, "c": 1.0, "l": 1.0, "epsilon": 1.0,
             "f-mode": 1, "g-mode": 0, "dt": 0.01, "t-final": 2.0, "samples": 2000},
    "heat": {"modes": 8, "epsilon": 0.5, "init-mode": 1, "dt": 0.05, "t-final": 0.25,
             "samples": 2000},
    "lyapunov": {"alpha": 0.0, "beta": 0.0, "gamma": 1.0, "mode": 1, "t-final": 100.0,
                 "dt": None, "t-burn": None},
    "burgers": {"spectrum": "power:2", "modes": 64, "nu": 0.5, "sigma": 0.25, "l": 1.0,
                "noise": "additive", "init-mode": 1, "init-amp": 0.5, "poincare-c": None,
                "delta": 1.0, "dt": 1e-3, "t-final": 2.0, "samples": 500},
}
_COMMON = {"seed": 0, "workers": None, "out": None, "config": None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-lab",
        description="Stochastic-PDE simulation and closed-form verification experiments.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, defaults in _DEFAULTS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        for flag, default in {**defaults, **_COMMON, "out": f"runs/{name}"}.items():
            kind, text = _FLAGS[flag]
            sub.add_argument(f"--{flag}", dest=flag, type=kind, default=default, help=text)
    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The config file's non-null entries as ``--key=value`` flags."""
    names = (_DEFAULTS[args.subcommand].keys() | _COMMON.keys()) - {"config"}
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


def _resolve_config(argv: list[str], cpus: int = 1) -> dict:
    """Parse the flags; ``SPDE_LAB_SEED`` and then a config file's entries
    are parsed as flags placed before them, so an explicit flag overrides
    the file and the file overrides the environment.  An unset
    ``--workers`` resolves by :func:`_workers` over ``cpus``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    env = os.environ.get("SPDE_LAB_SEED")
    front = [f"--seed={env}"] if env else []
    if args.config is not None:
        front += _config_flags(args)
    resolved = vars(parser.parse_args(argv[:1] + front + argv[1:]))
    del resolved["config"]
    resolved["workers"] = _workers(resolved, cpus)
    return resolved


def _workers(cfg: dict, cpus: int) -> int:
    """``--workers`` if set; else ``cpus``, capped at the sample blocks, for
    a run of at least ``_POOL_WORK`` samples x steps x modes, and 1 for a
    smaller run or one without samples (lyapunov)."""
    if cfg["workers"] is not None:
        return cfg["workers"]
    if "samples" not in cfg:
        return 1
    # Capped before the float product, which an int beyond the float range
    # would overflow; a valid grid has at least one step.
    work = min(cfg["samples"] * cfg["modes"], _POOL_WORK) * (cfg["t-final"] / cfg["dt"])
    if work < _POOL_WORK:
        return 1
    return min(cpus, -(-cfg["samples"] // BLOCK_SIZE))


def _cpus() -> int:
    """The CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _grid(cfg: dict) -> wiener.TimeGrid:
    try:  # a derived --dt may underflow to 0, and a ratio may overflow
        steps = round(cfg["t-final"] / cfg["dt"])
    except (ZeroDivisionError, OverflowError):
        steps = 0
    if steps < 1 or abs(steps * cfg["dt"] - cfg["t-final"]) > 1e-9 * cfg["t-final"]:
        raise ConfigError("--t-final must be an integer multiple of --dt")
    return wiener.TimeGrid(cfg["dt"], steps)


def _checkpoints(steps: int) -> list[int]:
    """Five evenly spaced grid indices ending at the final step."""
    return sorted({max(1, round(j * steps / 5)) for j in range(1, 6)})


def _unit_or_zero(cfg: dict, name: str) -> HilbertVector:
    if cfg[name] == 0:
        return HilbertVector(np.zeros(cfg["modes"]))
    if not 1 <= cfg[name] <= cfg["modes"]:
        raise ConfigError(f"--{name} {cfg[name]} outside 0..{cfg['modes']} (--modes)")
    return HilbertVector.unit(cfg["modes"], cfg[name])


def _spectrum(cfg: dict) -> CovarianceSpectrum:
    try:
        return CovarianceSpectrum.parse(cfg["spectrum"], cfg["modes"])
    except ValueError as exc:
        raise ConfigError(f"--spectrum {cfg['spectrum']!r}: {exc}") from exc


def _report(cfg: dict, checks: list[Check], **metadata) -> Report:
    """The run's report: one row per check, in order, and its metadata."""
    rows = []
    for c in checks:
        if not isinstance(c.estimate, tuple):
            c = c._replace(estimate=pairwise_stats(c.estimate))
        rows.append(compare(c))
    return Report(rows, {"experiment": cfg["subcommand"], "config": cfg, **metadata})


# --------------------------------------------------------------------------
# Per-sample summary kernels (top level so worker processes can pickle them)
# --------------------------------------------------------------------------


def _wiener_block(spec, basis, grid, pairs, k_s, stream, start, stop):
    """Per-sample wiener summaries: ||W_T||^2 / T, <W_T, a> with a the unit
    vector of equal entries, then <W_T, a><W_s, b> for each pair (a, b) with
    s the time of grid index ``k_s``; and the moments of ||W_t||^2 at every
    grid time.

    The increments arrive in the time slices of ``RandomStream.block_chunks``,
    so the block keeps only the norms and the coefficients at s and T.
    """
    n = basis.n_modes
    sqrt_q = np.sqrt(spec.eigenvalues)
    norm2 = np.empty((stop - start, grid.steps + 1))
    kept = {}
    draws = stream.block_chunks(start, stop, (grid.steps, n))
    increments = (np.multiply(z, np.sqrt(grid.dt), out=z) for z in draws)
    for r0, paths in wiener.running_sums(increments):
        r1 = r0 + paths.shape[1]
        coeff = sqrt_q * paths
        norm2[:, r0:r1] = np.sum(coeff**2, axis=2)
        kept |= {k: coeff[:, k - r0] for k in (k_s, grid.steps) if r0 <= k < r1}
    final = kept[grid.steps]
    cols = [norm2[:, -1:] / grid.t_final, final @ np.full((n, 1), 1.0 / np.sqrt(n))]
    cols += [((final @ a) * (kept[k_s] @ b))[:, np.newaxis] for a, b in pairs]
    return np.concatenate(cols, axis=1), block_moments(norm2)


def _field_block(simulate, prob, grid, basis_vals, means, pairs, stream, start, stop):
    """Per-sample field summaries: the field at the x points at the final
    step, the L2 cross deviation sum_n dev_a,n dev_b,n (dev: u less its
    mean) of each checkpoint pair (a, b), then the series of ``simulate``
    at the checkpoints; and the moments of that series at every step.

    ``simulate`` is ``wave.simulate_block`` (the energy series) or
    ``heat.simulate_block`` (an empty one): with ``keep`` it returns u at
    the checkpoints only.  ``means`` maps each checkpoint index to its mean
    coefficients; the last checkpoint is the final step.
    """
    keep = sorted(means)
    u, series = simulate(prob, grid, stream, start, stop, keep)
    devs = {k: u[:, j, :] - means[k] for j, k in enumerate(keep)}
    cols = [u[:, -1, :] @ basis_vals.T]
    cols += [np.sum(devs[a] * devs[b], axis=1)[:, np.newaxis] for a, b in pairs]
    cols += [series[:, keep]] if series.shape[1] else []
    return np.concatenate(cols, axis=1), block_moments(series)


def _burgers_block(prob, grid, keep, stream, start, stop):
    """Per-sample Burgers energies e2 at the grid indices ``keep``, and the
    moments of e2 at every step."""
    e2 = burgers.trace_block(prob, grid, stream, start, stop)
    return e2[:, keep], block_moments(e2)


def _field_plan(grid: wiener.TimeGrid, mean):
    """Coefficients of the mean field ``mean(t)`` keyed by checkpoint index,
    and the checkpoint pairs (k_t, k_s) of the second-moment columns: each
    checkpoint with itself (the variance is the covariance at s = t), then
    the distinct pairs with s != t of the covariance checks.  A grid of one
    or two steps has fewer checkpoints and so fewer pairs, never a repeat.
    """
    k = _checkpoints(grid.steps)
    means = {kk: mean(grid.times[kk]).coeffs for kk in k}
    mid = k[len(k) // 2]
    cross = dict.fromkeys([(k[-1], mid), (k[-1], k[0]), (mid, k[0])])
    return means, [(kk, kk) for kk in k] + [(a, b) for a, b in cross if a != b]


def _field_experiment(cfg, grid, prob, simulate, x_points, mean, covariance, correlation=None):
    """Per-sample :func:`_field_block` values of a wave or heat field, the
    moments of its series, and its checks: ``mean_x*`` at the final time,
    then per pair of :func:`_field_plan` a row with closed form
    ``covariance(t, s)``, labelled ``variance`` if s = t, else
    ``covariance_s=*`` followed by ``correlation_s=*`` when ``correlation``
    is given.  A correlation is a
    ratio of means, so its estimate comes from fixed-count batch means of the
    pair's column and the two variance columns, not one pairwise reduction.
    """
    means, pairs = _field_plan(grid, mean)
    basis_vals = prob.basis.evaluate(np.asarray(x_points))
    stream = RandomStream(cfg["seed"]).child(0)
    fn = partial(_field_block, simulate, prob, grid, basis_vals, means, pairs, stream)
    values, moments = map_blocks(fn, cfg["samples"], workers=cfg["workers"])

    mean_final = mean(grid.t_final)
    checks = [
        Check(f"mean_x{i}", grid.t_final, mean_final.evaluate(prob.basis, x), col)
        for i, (x, col) in enumerate(zip(x_points, values.T), start=1)
    ]
    cols = dict(zip(pairs, values[:, len(x_points) :].T))
    n_batches = min(20, values.shape[0] // 2)
    batches = np.array_split(np.arange(values.shape[0]), n_batches)
    for (k_t, k_s), col in cols.items():
        t, s = grid.times[k_t], grid.times[k_s]
        label = "variance" if k_t == k_s else f"covariance_s={s:g}"
        checks.append(Check(label, t, covariance(t, s), col))
        if correlation is None or k_t == k_s:
            continue
        var_t, var_s = cols[k_t, k_t], cols[k_s, k_s]
        corr = np.array(
            [col[idx].mean() / np.sqrt(var_t[idx].mean() * var_s[idx].mean()) for idx in batches]
        )
        checks.append(
            Check(
                f"correlation_s={s:g}", t, correlation(t, s),
                (corr.mean(), corr.std(ddof=1) / np.sqrt(len(corr))),
                note=f"batch-means estimate ({n_batches} batches)",
            )
        )
    return values, moments, checks


# --------------------------------------------------------------------------
# Experiments: each declares its checks and series
# --------------------------------------------------------------------------


def _run_wiener(cfg: dict) -> tuple[Report, dict]:
    grid = _grid(cfg)
    basis = DirichletBasis(cfg["l"], cfg["modes"])
    spec = _spectrum(cfg)
    stream = RandomStream(cfg["seed"])
    n = cfg["modes"]

    aux = stream.child(1).generator()
    pairs = []
    for _ in range(3):
        a, b = aux.standard_normal(n), aux.standard_normal(n)
        pairs.append((a / np.linalg.norm(a), b / np.linalg.norm(b)))
    x_probe, y_probe = 0.3 * cfg["l"], 0.7 * cfg["l"]
    probe = (basis.evaluate(x_probe), basis.evaluate(y_probe))
    k_s = max(1, grid.steps // 2)

    fn = partial(_wiener_block, spec, basis, grid, pairs + [probe], k_s, stream.child(0))
    values, moments = map_blocks(fn, cfg["samples"], workers=cfg["workers"])

    t_final = grid.t_final
    m = min(t_final, grid.times[k_s])
    closed = {"trace_identity": spec.trace, "zero_mean": 0.0}
    for i, (a, b) in enumerate(pairs, start=1):
        closed[f"bilinear_{i}"] = m * ((spec.eigenvalues * a) @ b)
    closed["kernel_identity"] = m * correlation_kernel(spec, basis, x_probe, y_probe)
    checks = [Check(lab, t_final, c, col) for (lab, c), col in zip(closed.items(), values.T)]

    norm2 = moments.stats()
    series = {
        "series_norm2.csv": {
            "t": grid.times, "closed_form": spec.trace * grid.times,
            "mc_mean": norm2.mean, "mc_stderr": norm2.stderr,
        }
    }
    return _report(cfg, checks), series


_PUMPING_NOTE = (
    "diagnostic: white-in-time forcing pumps mean energy at rate "
    "epsilon^2 Tr(Q)/2, so a constant-mean-energy comparison fails "
    "systematically; excluded from exit status"
)


def _run_wave(cfg: dict) -> tuple[Report, dict]:
    grid = _grid(cfg)
    f, g = _unit_or_zero(cfg, "f-mode"), _unit_or_zero(cfg, "g-mode")
    prob = wave.WaveProblem.from_initial_conditions(
        f, g, wave_speed=cfg["c"], length=cfg["l"], epsilon=cfg["epsilon"], spectrum=_spectrum(cfg)
    )
    values, moments, checks = _field_experiment(
        cfg, grid, prob, wave.simulate_block, [i * cfg["l"] / 6 for i in range(1, 6)],
        partial(wave.mean_coefficients, prob), partial(wave.covariance_closed_form, prob),
    )

    checkpoints = _checkpoints(grid.steps)
    energies = values[:, -len(checkpoints) :]
    energy = moments.stats()
    e0 = wave.initial_energy(prob)
    for j, kk in enumerate(checkpoints):
        t = grid.times[kk]
        checks += [
            Check("energy_mean_vs_E0", t, e0, (energy.mean[kk], energy.stderr[kk]),
                  gating=False, note=_PUMPING_NOTE),
            Check(
                "energy_variance", t, wave.energy_variance_closed_form(prob, t),
                (energies[:, j] - energy.mean[kk]) ** 2,
            ),
        ]

    series = {
        "series_energy.csv": {
            "t": grid.times, "mc_mean_energy": energy.mean, "mc_stderr": energy.stderr,
            "initial_energy": np.full(grid.steps + 1, e0),
            "pumped_energy": e0 + wave.mean_energy_drift(prob, grid.times),
        }
    }
    return _report(cfg, checks), series


def _run_heat(cfg: dict) -> tuple[Report, dict]:
    if cfg["samples"] < 4:
        raise ConfigError("heat needs --samples of at least 4 (two correlation batches)")
    grid = _grid(cfg)
    prob = heat.HeatProblem(cfg["epsilon"], _unit_or_zero(cfg, "init-mode").coeffs)
    if not all(heat.variance_closed_form(prob, t) > 0 for t in grid.times[_checkpoints(grid.steps)]):
        raise ConfigError("heat's correlation rows need a nonzero variance at every checkpoint: "
                          "check --epsilon, --init-mode and --t-final")
    *_, checks = _field_experiment(
        cfg, grid, prob, heat.simulate_block, [0.25, 0.5, 0.75],
        *(partial(fn, prob) for fn in (
            heat.mean_closed_form, heat.covariance_closed_form, heat.correlation_closed_form
        )),
    )
    mean_norm = np.array([heat.mean_closed_form(prob, t).norm() for t in grid.times])
    return _report(cfg, checks), {
        "series_mean_norm.csv": {"t": grid.times, "closed_mean_norm": mean_norm}
    }


def _run_lyapunov(cfg: dict) -> tuple[Report, dict]:
    if cfg["dt"] is None:
        cfg["dt"] = cfg["t-final"] / 2000
    grid = _grid(cfg)
    if cfg["t-burn"] is None:
        cfg["t-burn"] = 0.1 * cfg["t-final"]

    f = HilbertVector.unit(max(cfg["mode"], 4), cfg["mode"])
    prob = lyapunov.LyapunovProblem(cfg["alpha"], cfg["beta"], cfg["gamma"], f.coeffs)
    det = lyapunov.exponent_deterministic(prob)
    stoch = lyapunov.exponent_stochastic(prob)
    stream = RandomStream(cfg["seed"]).child(0)
    try:
        estimate = lyapunov.estimate_from_path(prob, grid, stream, cfg["t-burn"])
    except ValueError as exc:
        raise ConfigError(f"no fit window from --t-burn {cfg['t-burn']:g} to --t-final "
                          f"{cfg['t-final']:g} at --dt {cfg['dt']:g}: {exc}") from exc

    if cfg["gamma"] != 0:
        stderr = estimate.stderr
        band_note = "tolerance band 3*sqrt(6/5)*|gamma|/sqrt(W), W = span of the fitted grid times"
    else:
        stderr, band_note = 1e-9 / 3, "tolerance 1e-9 (deterministic path)"
    # stoch - det may round away from shift; stoch == det + shift is exact.
    shift = (cfg["beta"] - cfg["alpha"]) - 0.5 * cfg["gamma"] ** 2
    checks = [
        Check(
            "stabilization_shift", cfg["t-final"], shift,
            (shift if stoch == det + shift else stoch - det, 0.0),
            note="exact arithmetic identity",
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
    grid = _grid(cfg)
    additive = cfg["noise"] == "additive"
    spectrum = _spectrum(cfg)  # checked under either noise model
    noise = burgers.AdditiveNoise(spectrum) if additive else burgers.MultiplicativeNoise()
    u0 = _unit_or_zero(cfg, "init-mode").coeffs * cfg["init-amp"]
    try:  # the flags' types leave only the Poincare constant to reject
        prob = burgers.BurgersProblem(cfg["nu"], cfg["l"], cfg["sigma"], noise, u0,
                                      cfg["poincare-c"])
    except ValueError as exc:
        raise ConfigError(f"--poincare-c {cfg['poincare-c']:g}: {exc}") from exc
    if not np.isfinite(cfg["delta"] * cfg["delta"]):  # the exit rows compare e2 with delta^2
        raise ConfigError(f"--delta {cfg['delta']:g}: its square overflows the float range")
    checkpoints = _checkpoints(grid.steps)
    # The exit rows' times, the last the final one: their energies are kept per sample.
    exits = list(dict.fromkeys((checkpoints[len(checkpoints) // 2], grid.steps)))
    fn = partial(_burgers_block, prob, grid, exits, RandomStream(cfg["seed"]).child(0))
    try:
        e2, moments = map_blocks(fn, cfg["samples"], workers=cfg["workers"])
    except burgers.StepSizeError as exc:
        raise ConfigError(f"--dt {cfg['dt']:g}: {exc}") from exc
    divergence_count = int(np.sum(np.isnan(e2[:, -1])))
    e2_init = float(np.sum(u0**2))
    bound = burgers.energy_bound(prob, grid.times, e2_init)

    trace_note = ""
    if additive and cfg["l"] != 1.0:
        trace_note = (
            "warning: bound uses the trace term sigma^2 * l * Tr(Q) as printed; "
            "the conventional Ito correction carries no l factor"
        )

    checks = []
    if divergence_count:
        checks.append(
            Check(
                "divergence_count", grid.t_final, 0.0, (divergence_count, 0.0),
                note="samples aborted at the blow-up threshold; from then on their NaN "
                "energies fail the energy_vs_bound rows and count as exits",
            )
        )
    energy = moments.stats()
    checks += [
        Check(
            "energy_vs_bound", grid.times[kk], bound[kk], (energy.mean[kk], energy.stderr[kk]),
            one_sided=True, note=trace_note,
        )
        for kk in checkpoints
    ]
    for j, kk in enumerate(exits):
        t = grid.times[kk]
        p_hat = (~(e2[:, j] < cfg["delta"] ** 2)).astype(float).mean()
        se = np.sqrt(p_hat * (1 - p_hat) / len(e2))
        checks.append(
            Check(
                "exit_probability", t,
                burgers.exit_probability_bound(prob, t, e2_init, cfg["delta"]),
                (p_hat, se), one_sided=True, note=f"binomial SE at delta={cfg['delta']:g}",
            )
        )

    series = {
        "series_energy.csv": {
            "t": grid.times, "mc_mean_energy": energy.mean, "mc_stderr": energy.stderr,
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


def _check_out(out_dir: Path) -> None:
    """Reject, before the run, an ``--out`` whose nearest existing path
    (itself or a parent) is not a writable directory; create nothing, so a
    rejected run leaves no directory behind."""
    existing = out_dir
    try:
        while not existing.exists():
            existing = existing.parent
        usable = existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)
    except OSError:
        usable = False
    if not usable:
        raise ConfigError(f"cannot write --out {out_dir}: {existing} is not a writable directory")


def run(argv=None) -> int:
    """Execute one experiment; returns the process exit code.

    ``argv`` defaults to this process's command line, and only that run
    lets an unset ``--workers`` take this process's CPUs.  A program that
    passes ``argv`` runs the experiment inside itself, and its patches,
    tracers and threads need not survive pickling or a fork, so the run
    stays in its process unless the flags ask for workers.
    """
    try:
        if argv is None:
            cfg = _resolve_config(sys.argv[1:], _cpus())
        else:
            cfg = _resolve_config(list(argv))
        out_dir = Path(cfg["out"])
        _check_out(out_dir)
        try:
            with np.errstate(over="raise"):
                report, series = _EXPERIMENTS[cfg["subcommand"]](cfg)
        except MemoryError:
            raise ConfigError("the run does not fit in memory: lower --samples, --modes "
                              "or --t-final, or raise --dt") from None
        except (OverflowError, FloatingPointError):
            raise ConfigError("the run overflows the float range: lower --epsilon, --sigma, "
                              "--gamma, --c or --t-final, or raise --l") from None
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            write_report_csv(report, out_dir / "report.csv")
            write_summary_json(report, out_dir / "summary.json")
            flags = {k: v for k, v in cfg.items() if k != "subcommand"}
            (out_dir / "config.json").write_text(json.dumps(flags, indent=2, sort_keys=True) + "\n")
            for filename, columns in series.items():
                write_series_csv(out_dir / filename, columns)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {cfg['out']}: {exc}") from exc
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a defect: neither a usage error nor a statistical failure
        print(f"{traceback.format_exc()}internal error", file=sys.stderr)
        return 3

    try:
        _print_report(report)
        counts = report.counts()
        status = "PASS" if report.all_passed() else "FAIL"
        print(f"{status}: {counts['passed']}/{counts['gating']} gating checks passed "
              f"-> {out_dir}", flush=True)
    except BrokenPipeError:
        # The reader closed stdout (``| head``) after the files were written:
        # the verdict stands, and the exit-time flush goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.all_passed() else 1


def main() -> None:
    # The CLI makes no threaded BLAS call: at one thread from the start, no
    # pooled map_blocks restarts OpenBLAS's thread server when it restores.
    _set_blas_threads(1)
    sys.exit(run())


if __name__ == "__main__":
    main()
