import contextlib
import io

import pytest

import tracer as tracing

SMALL_RUNS = {
    "wave": ["wave", "--modes", "4", "--dt", "0.05", "--t-final", "0.5", "--samples", "300"],
    "burgers": ["burgers", "--modes", "8", "--dt", "0.001", "--t-final", "0.05",
                "--samples", "40"],
    "heat": ["heat", "--samples", "300"],
    "wiener": ["wiener", "--modes", "8", "--samples", "300"],
    "lyapunov": ["lyapunov", "--t-final", "10"],
}


def span(name, start, end, parent):
    return [name, start, end, parent]


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 5.0, 7.0, 0),
        span("a.child", 2.0, 3.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [span("root", 0.0, 10.0, -1), span("x", 1.0, 4.0, 0), span("y", 3.0, 6.0, 0),
             span("z", 9.0, 12.0, 0)]
    # Children cover [1, 6] and [9, 10] of the root.
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def run_cli(argv, out, tracer=None):
    import spde_lab.cli as cli

    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        if tracer is not None:
            stack.enter_context(tracing.installed(tracer))
            stack.enter_context(tracer.span("cli.run"))
        code = cli.run([*argv, "--seed", "5", "--out", str(out)])
    assert code in (0, 1)
    return {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}


@pytest.mark.parametrize("name", SMALL_RUNS)
def test_traced_outputs_are_byte_identical(name, tmp_path):
    plain = run_cli(SMALL_RUNS[name], tmp_path / "plain")
    traced = run_cli(SMALL_RUNS[name], tmp_path / "traced", tracing.Tracer())
    assert "report.csv" in plain and any(n.startswith("series_") for n in plain)
    assert traced == plain


def test_patches_are_removed_afterwards(tmp_path):
    import spde_lab.cli as cli
    from spde_lab import burgers, montecarlo

    before = (cli.map_blocks, burgers.skew_nonlinearity, montecarlo.RandomStream.generator)
    run_cli(SMALL_RUNS["burgers"], tmp_path, tracing.Tracer())
    assert (cli.map_blocks, burgers.skew_nonlinearity, montecarlo.RandomStream.generator) == before


def test_counts_repeat_exactly(tmp_path):
    def counts(out):
        tracer = tracing.Tracer()
        for name, argv in SMALL_RUNS.items():
            run_cli(argv, out / name, tracer)
        metrics = tracing.layer_metrics(tracer)
        return {name: metrics[name] for name in tracing.COUNT_METRICS}

    first, second = counts(tmp_path / "a"), counts(tmp_path / "b")
    assert first == second
    assert all(value > 0 for value, _ in first.values()), first
