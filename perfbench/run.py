#!/usr/bin/env python3
"""spde-lab benchmark: drives the ``spde-lab`` CLI as its users run it.

Usage, from the root of a checkout (it needs ``src/spde_lab``)::

    python3 perfbench/run.py --workload wave --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's invocations again and again for
``--seconds`` seconds, each as a fresh ``python3 -m spde_lab.cli``
subprocess, one at a time from this single process (a closed loop with one
client), and reports the end-to-end metrics from each invocation's median
over those executions.  ``--trace 1`` runs the invocations once as subprocesses (for
the rusage figures) and then in this process through ``cli.run`` with the
tracer of ``tracer.py`` installed and without it, and reports the
per-layer metrics.  Every invocation goes through the correctness gate of
``gate.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
including the environment, goes to ``.perfbench-out/`` in the checkout.

The benchmark never sets BLAS or OpenMP thread variables for the program:
the thread oversubscription they would hide is a defect worth showing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import zlib
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer as tracing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# Every invocation is killed once the run is this old, so the run ends in 180 s.
HARD_LIMIT_S = 170.0
SETUP_REPEATS = 7
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``config`` keys the pinned reference and the seed."""

    config: str
    argv: tuple[str, ...]
    # A --workers 2 rerun of the config's --workers 1 invocation (same seed);
    # its data CSVs must match that run byte for byte.
    twin: bool = False


# Why each workload exists is set out in README.md next to this file.
WORKLOADS = {
    "wave": [
        Invocation("wave-readme", (
            "wave", "--modes", "16", "--spectrum", "power:2", "--c", "1", "--l", "1",
            "--epsilon", "1", "--dt", "0.005", "--t-final", "2", "--samples", "10000",
        )),
        Invocation("wave-n64", (
            "wave", "--modes", "64", "--dt", "0.001", "--t-final", "2", "--samples", "256",
        )),
    ],
    "burgers": [
        Invocation("burgers-readme", (
            "burgers", "--noise", "additive", "--spectrum", "finite:1", "--modes", "64",
            "--nu", "0.05", "--sigma", "1", "--dt", "0.001", "--t-final", "2",
            "--samples", "500", "--workers", "1",
        )),
    ],
    "short-runs": [
        Invocation("heat-defaults", ("heat",)),
        Invocation("heat-10k", ("heat", "--samples", "10000")),
        Invocation("lyapunov-defaults", ("lyapunov",)),
        Invocation("wiener-defaults", ("wiener",)),
        Invocation("heat-defaults", ("heat", "--workers", "2"), twin=True),
        Invocation("wiener-defaults", ("wiener", "--workers", "2"), twin=True),
    ],
}


def cli_seed(workload_seed: int, config: str) -> int:
    """The ``--seed`` of a config, derived from the workload seed alone."""
    return zlib.crc32(f"{workload_seed}:{config}".encode()) & 0x7FFFFFFF


def cli_argv(inv: Invocation, seed: int, out_dir: Path) -> list[str]:
    return [*inv.argv, "--seed", str(cli_seed(seed, inv.config)), "--out", str(out_dir)]


class Bench:
    """Paths, environment and clock shared by every step of one run."""

    def __init__(self, root: Path, work: Path):
        self.root, self.work = root, work
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.env["TMPDIR"] = str(work)
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)
        for inv in (inv for invs in WORKLOADS.values() for inv in invs if not inv.twin):
            if self.reference[inv.config]["argv"] != list(inv.argv):
                raise SystemExit(f"reference.json is stale for {inv.config}; rerun pin.py")

    def spawn(self, argv: list[str], cwd: Path, stderr_path: Path) -> dict:
        """Run ``argv`` to completion; wall time, exit code and rusage."""
        budget = HARD_LIMIT_S - (time.perf_counter() - self.started)
        with open(stderr_path, "w+") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            killer = threading.Timer(max(budget, 0.0), os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return {
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "nivcsw": usage.ru_nivcsw,
            "stderr": stderr,
        }

    def judge(self, inv: Invocation, record: dict, out_dir: Path, twin_dir: Path | None):
        """Attach the gate's verdict to an invocation record."""
        problems = gate.check(
            out_dir, record["exit"], record["stderr"], self.reference[inv.config], twin_dir
        )
        record.update(config=inv.config, problems=problems)
        del record["stderr"]
        return record

    def execute(self, workload: str, seed: int, out: Path) -> list[dict]:
        """One execution of the workload, each invocation a fresh subprocess."""
        shutil.rmtree(out, ignore_errors=True)
        records, first_dir = [], {}
        for i, inv in enumerate(WORKLOADS[workload]):
            out_dir = out / f"{i}-{inv.config}"
            out_dir.mkdir(parents=True)
            argv = [sys.executable, "-m", "spde_lab.cli", *cli_argv(inv, seed, out_dir)]
            record = self.spawn(argv, out_dir, out / f"{i}.stderr")
            twin_dir = first_dir.get(inv.config) if inv.twin else None
            records.append(self.judge(inv, record, out_dir, twin_dir))
            first_dir.setdefault(inv.config, out_dir)
        return records

    def setup_times(self) -> list[float]:
        """Fresh-interpreter ``import spde_lab.cli``, several times."""
        times = []
        for _ in range(SETUP_REPEATS):
            record = self.spawn(
                [sys.executable, "-c", "import spde_lab.cli"], self.work, self.work / "setup.stderr"
            )
            if record["exit"] != 0:
                raise SystemExit(f"importing spde_lab.cli failed:\n{record['stderr']}")
            times.append(record["wall_s"])
        return times

    def environment(self) -> dict:
        """What the program runs on, as the program's own interpreter sees it."""
        probe = (
            "import json, numpy, scipy, spde_lab\n"
            "from spde_lab.montecarlo import RandomStream\n"
            "blas = numpy.__config__.CONFIG['Build Dependencies']['blas']\n"
            "print(json.dumps({'package': spde_lab.__file__, 'numpy': numpy.__version__,\n"
            "  'scipy': scipy.__version__, 'blas': f\"{blas['name']} {blas.get('version')}\",\n"
            "  'bit_generator': type(RandomStream(0).generator().bit_generator).__name__}))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=self.env, cwd=self.work,
            capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise SystemExit(f"cannot import spde_lab from {self.root / 'src'}:\n{done.stderr}")
        env = json.loads(done.stdout)
        if not Path(env["package"]).resolve().is_relative_to(self.root / "src"):
            raise SystemExit(f"spde_lab resolved to {env['package']}, not this checkout")
        digest = hashlib.sha256()
        for path in sorted((self.root / "src" / "spde_lab").glob("*.py")):
            digest.update(path.read_bytes())
        env.update(
            python=sys.version.split()[0],
            nproc=len(os.sched_getaffinity(0)),
            l3_bytes=l3_cache_bytes(),
            thread_vars={name: os.environ.get(name) for name in THREAD_VARS},
            source_sha256=digest.hexdigest(),
            commit=git_commit(self.root),
        )
        return env


def l3_cache_bytes() -> int | None:
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("K")) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            return None
    return None


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
    except FileNotFoundError:  # no git installed
        return None
    return done.stdout.strip() or None


def keep_going(start: float, done: int, seconds: float) -> bool:
    """Whether one more repeat ends at most half a repeat past ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done <= seconds


def timed_run(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics from executions filling ``seconds``."""
    setup = bench.setup_times()
    start = time.perf_counter()
    executions = [bench.execute(workload, seed, bench.work / "exec")]
    while keep_going(start, len(executions), seconds):
        executions.append(bench.execute(workload, seed, bench.work / "exec"))
    records = [r for ex in executions for r in ex]
    failed = sum(bool(r["problems"]) for r in records)

    def per_invocation(key):
        """Each invocation's median over the executions of this run."""
        return [statistics.median(r[key] for r in recs) for recs in zip(*executions)]

    metrics = {
        "wall_s": (sum(per_invocation("wall_s")), "s"),
        "cpu_s": (sum(per_invocation("cpu_s")), "s"),
        "peak_rss_mb": (max(per_invocation("rss_mb")), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "passed_frac": ((len(records) - failed) / len(records), "fraction"),
    }
    return {"attempted": len(records), "failed": failed, "metrics": metrics,
            "setup_s": setup, "executions": executions}


def in_process_pass(cli, workload: str, seed: int, out: Path, tracer=None) -> list[dict]:
    """The workload's --workers 1 invocations through ``cli.run`` in this process."""
    shutil.rmtree(out, ignore_errors=True)
    records = []
    for i, inv in enumerate(WORKLOADS[workload]):
        if inv.twin:
            continue  # same in-process work as its --workers 1 invocation
        out_dir = out / f"{i}-{inv.config}"
        out_dir.mkdir(parents=True)
        span = tracer.span("cli.run") if tracer else contextlib.nullcontext()
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with span:
                    code = cli.run(cli_argv(inv, seed, out_dir))
        except Exception:  # the gate reports it as a failed invocation
            code = None
            stderr.write(traceback.format_exc())
        wall = time.perf_counter() - start
        records.append({"exit": code, "wall_s": wall, "stderr": stderr.getvalue(),
                        "inv": inv, "out_dir": out_dir})
    return records


def traced_run(bench: Bench, workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics from traced in-process passes, plus the tracing overhead."""
    start = time.perf_counter()
    procs = bench.execute(workload, seed, bench.work / "exec")
    sys.path.insert(0, str(bench.root / "src"))
    t0 = time.perf_counter()
    import spde_lab.cli as cli
    import_s = time.perf_counter() - t0

    passes, problems = [], []
    while True:
        # Alternate which side runs first, so in-process warm-up is shared.
        tracer = tracing.Tracer()
        plain_first = len(passes) % 2 == 1
        if plain_first:
            plain = in_process_pass(cli, workload, seed, bench.work / "plain")
        with tracing.installed(tracer):
            traced = in_process_pass(cli, workload, seed, bench.work / "traced", tracer)
        if not plain_first:
            plain = in_process_pass(cli, workload, seed, bench.work / "plain")
        for rec_t, rec_p in zip(traced, plain):
            ref = bench.reference[rec_t["inv"].config]
            for rec in (rec_t, rec_p):
                bench.judge(rec["inv"], rec, rec["out_dir"], None)
            rec_t["problems"] += gate.differing_files(
                rec_t["out_dir"], rec_p["out_dir"], ref, "the untraced run"
            )
        layers = tracing.layer_metrics(tracer)
        if passes and any(layers[k] != passes[0][0][k] for k in tracing.COUNT_METRICS):
            traced[-1]["problems"].append("counts differ from the first traced pass")
        problems += [rec["problems"] for rec in traced + plain]
        passes.append((layers, sum(r["wall_s"] for r in traced), sum(r["wall_s"] for r in plain)))
        if len(passes) == 1:
            write_spans(tracer, bench.work / "spans.csv")
        if not keep_going(start, len(passes), seconds):
            break

    metrics = {
        name: (statistics.median(p[0][name][0] for p in passes), unit)
        for name, (_, unit) in passes[0][0].items()
    }
    traced_wall = statistics.median(p[1] for p in passes)
    plain_wall = statistics.median(p[2] for p in passes)
    metrics.update({
        "proc.nivcsw": (sum(r["nivcsw"] for r in procs), "count"),
        "proc.cpu_per_wall": (sum(r["cpu_s"] for r in procs) / sum(r["wall_s"] for r in procs),
                              "ratio"),
        "cli.import_s": (import_s, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1, "fraction"),
    })
    problems += [r["problems"] for r in procs]
    return {"attempted": len(problems), "failed": sum(bool(p) for p in problems),
            "metrics": metrics, "subprocess_pass": procs,
            "problems": [p for p in problems if p]}


def write_spans(tracer, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "start_s", "end_s", "parent", "self_s"])
        for span, self_s in zip(tracer.spans, tracing.self_times(tracer.spans)):
            writer.writerow([*span, self_s])


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = root / ".perfbench-out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(root, work)
    environment = bench.environment()
    result = (traced_run if trace else timed_run)(bench, workload, seed, seconds)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  environment=environment)
    with open(work / "result.json", "w") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "spde_lab" / "cli.py").is_file():
        print(f"error: {root} holds no src/spde_lab; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_one(root, name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in result["metrics"].items():
            print(f"{name:<11} {metric:<40} {value:>14.6g} {unit}")
            summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
