#!/usr/bin/env python3
"""Regenerate ``reference.json``, the pinned outputs the correctness gate uses.

Run from the root of a checkout: ``python3 perfbench/pin.py``.  Each config
of ``run.WORKLOADS`` is run in this process at two seeds.  For every
report row the pin keeps the label, whether it gates and is one-sided, and
its ``closed_form``, or ``null`` where the two seeds disagree (a closed
form built on random test directions).  Repinning is for a declared change
of the checks or the closed forms only.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run

PIN_SEEDS = (1, 2)


def capture(cli, inv: run.Invocation, seed: int) -> tuple[list, list[str]]:
    """Report rows and series file names of one in-process run."""
    reports = []
    original = cli.write_report_csv

    def keep(report, path):
        reports.append(report)
        original(report, path)

    cli.write_report_csv = keep
    try:
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(run.cli_argv(inv, seed, Path(tmp)))
            series = sorted(p.name for p in Path(tmp).glob("series_*.csv"))
    finally:
        cli.write_report_csv = original
    if code not in (0, 1):
        raise SystemExit(f"{inv.config} exited {code} at seed {seed}")
    return reports[0].rows, series


def main() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import spde_lab.cli as cli

    pins = {}
    for workload in run.WORKLOADS.values():
        for inv in workload:
            if inv.twin:
                continue
            (rows, series), (rows_b, _) = (capture(cli, inv, seed) for seed in PIN_SEEDS)
            if [r.label for r in rows] != [r.label for r in rows_b]:
                raise SystemExit(f"{inv.config}: row labels depend on the seed")
            pins[inv.config] = {
                "argv": list(inv.argv),
                "series": series,
                "rows": [
                    {
                        "label": a.label,
                        "closed_form": a.closed_form if a.closed_form == b.closed_form else None,
                        "gating": a.gating,
                        "one_sided": a.one_sided,
                    }
                    for a, b in zip(rows, rows_b)
                ],
            }
    with open(run.REFERENCE, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
