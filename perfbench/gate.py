"""Correctness gate for one ``spde-lab`` invocation.

An invocation fails when any of these holds:

* it exits with anything other than 0 or 1 (1 is a statistical failure,
  which ROADMAP item 4 counts as a false alarm, not a defect), or its
  stderr holds a traceback;
* an output file is missing or does not parse;
* its row labels differ from the pinned reference for its config;
* a ``closed_form`` differs from the pinned value beyond ``RTOL`` (closed
  forms do not depend on the random stream, except the wiener
  ``bilinear_*`` rows, whose test directions are random and are pinned as
  ``null``);
* a gating row has a non-finite z, or a z beyond ``Z_SANITY``;
* ``summary.json`` says all checks passed while the exit code says not;
* it has a ``--workers 1`` twin of the same config and seed and its data
  CSVs are not byte-identical to the twin's.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-12
# Far above the 3-sigma gate: a correct estimator almost never lands here.
Z_SANITY = 10.0
REPORT_HEADER = ["label", "t", "closed_form", "mc_mean", "mc_stderr", "z", "pass"]


def read_report(path: Path) -> list[dict]:
    """Rows of ``report.csv`` with the numbers parsed; raises ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != REPORT_HEADER:
            raise ValueError("report.csv header differs")
        rows = []
        for record in reader:
            if len(record) != len(REPORT_HEADER) or record[6] not in ("True", "False"):
                raise ValueError(f"malformed report row {record!r}")
            row = dict(zip(REPORT_HEADER, record))
            for key in REPORT_HEADER[1:6]:
                row[key] = float(row[key])
            rows.append(row)
    return rows


def read_series(path: Path) -> None:
    """Raises ValueError unless every data row is a full row of numbers."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path.name} has no header")
        n_rows = 0
        for record in reader:
            if len(record) != len(header):
                raise ValueError(f"{path.name} has a short row")
            [float(x) for x in record]
            n_rows += 1
    if n_rows == 0:
        raise ValueError(f"{path.name} has no data rows")


def data_files(reference: dict) -> list[str]:
    return ["report.csv"] + reference["series"]


def check(out_dir: Path, exit_code: int, stderr: str, reference: dict,
          twin_dir: Path | None = None) -> list[str]:
    """Reasons the invocation failed; an empty list means it passed."""
    if exit_code not in (0, 1):
        return [f"exit code {exit_code}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    try:
        rows = read_report(out_dir / "report.csv")
        for name in reference["series"]:
            read_series(out_dir / name)
        with open(out_dir / "summary.json") as fh:
            summary = json.load(fh)
        with open(out_dir / "config.json") as fh:
            json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]

    problems = []
    if summary.get("all-passed") != (exit_code == 0):
        problems.append(f"summary all-passed={summary.get('all-passed')} but exit {exit_code}")
    labels = [row["label"] for row in rows]
    pinned = reference["rows"]
    if labels != [p["label"] for p in pinned]:
        return problems + [f"row labels {labels} differ from the reference"]
    for row, pin in zip(rows, pinned):
        where = f"{row['label']} t={row['t']:g}"
        closed = pin["closed_form"]
        if closed is not None and not math.isclose(row["closed_form"], closed, rel_tol=RTOL):
            problems.append(f"{where}: closed_form {row['closed_form']!r} != pinned {closed!r}")
        z = row["z"]
        # One-sided rows check an upper bound, so any z below it is a pass.
        if pin["gating"] and (math.isnan(z) or (z if pin["one_sided"] else abs(z)) > Z_SANITY):
            problems.append(f"{where}: z={z}")
    if twin_dir is not None:
        problems += differing_files(out_dir, twin_dir, reference, "the --workers 1 run")
    return problems


def differing_files(out_dir: Path, other_dir: Path, reference: dict, other: str) -> list[str]:
    """One problem per data CSV whose bytes differ between the two runs."""
    problems = []
    for name in data_files(reference):
        try:
            same = (out_dir / name).read_bytes() == (other_dir / name).read_bytes()
        except OSError:  # a missing file differs too
            same = False
        if not same:
            problems.append(f"{name} differs from {other}")
    return problems
