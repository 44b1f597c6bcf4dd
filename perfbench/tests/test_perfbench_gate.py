import contextlib
import csv
import io
import json
import shutil

import pytest

import gate
import run

HEAT = run.WORKLOADS["short-runs"][0]


@pytest.fixture(scope="module")
def reference():
    with open(run.REFERENCE) as fh:
        return json.load(fh)[HEAT.config]


@pytest.fixture
def heat_run(tmp_path):
    import spde_lab.cli as cli

    out = tmp_path / "heat"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(run.cli_argv(HEAT, 7, out))
    return out, code


def rewrite_report(path, row, column, value):
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    records[row + 1][gate.REPORT_HEADER.index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(records)


def test_clean_run_passes(heat_run, reference):
    out, code = heat_run
    twin = out.parent / "twin"
    shutil.copytree(out, twin)
    assert gate.check(out, code, "", reference) == []
    assert gate.check(twin, code, "", reference, twin_dir=out) == []


def test_corrupted_closed_form_fails(heat_run, reference):
    out, code = heat_run
    rows = gate.read_report(out / "report.csv")
    rewrite_report(out / "report.csv", 2, "closed_form", repr(rows[2]["closed_form"] * (1 + 1e-9)))
    problems = gate.check(out, code, "", reference)
    assert len(problems) == 1 and "closed_form" in problems[0]


def test_csv_differing_from_workers_1_run_fails(heat_run, reference):
    out, code = heat_run
    twin = out.parent / "twin"
    shutil.copytree(out, twin)
    series = twin / reference["series"][0]
    series.write_text(series.read_text().replace("1", "2", 1))
    problems = gate.check(twin, code, "", reference, twin_dir=out)
    assert problems == [f"{series.name} differs from the --workers 1 run"]


@pytest.mark.parametrize("column, value", [("z", "nan"), ("z", "42.0"), ("label", "other")])
def test_bad_rows_fail(heat_run, reference, column, value):
    out, code = heat_run
    rewrite_report(out / "report.csv", 0, column, value)
    assert gate.check(out, code, "", reference)


def test_crash_and_missing_output_fail(heat_run, reference):
    out, code = heat_run
    assert gate.check(out, 2, "", reference) == ["exit code 2"]
    assert gate.check(out, code, "Traceback (most recent call last):", reference)
    (out / reference["series"][0]).unlink()
    assert gate.check(out, code, "", reference)[0].startswith("unreadable output")
