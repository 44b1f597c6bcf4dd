"""The benchmark's tracer patches named callables of ``spde_lab``; a rename
or deletion of one of them must fail here, not only in the benchmark."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    with tracer.installed(tracer.Tracer()):
        pass
