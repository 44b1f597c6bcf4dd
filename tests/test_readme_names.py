"""Every dotted name of a ``spde_lab`` module that README.md quotes as code
(``wave.simulate_block``, ``spde_lab.heat``, ``montecarlo.Check``) must exist, so
a rename or deletion fails here instead of leaving the README stale."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import spde_lab

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(spde_lab.__path__)}


def _module_references():
    """Dotted names in README code (inline spans and fenced blocks) whose
    first part, after an optional ``spde_lab.``, is a package module."""
    refs = []
    for code in re.findall(r"```.*?```|`[^`]+`", README.read_text(), flags=re.S):
        for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", code):
            parts = name.removeprefix("spde_lab.").split(".")
            if parts[0] in MODULES and name not in refs:
                refs.append(name)
    return refs


REFERENCES = _module_references()


def test_readme_references_are_found():
    # Inline spans, fenced blocks and the spde_lab. prefix all count.
    found = {"spde_lab.wiener", "burgers.trace_block", "wave.WaveProblem.from_initial_conditions"}
    assert found <= set(REFERENCES)


@pytest.mark.parametrize("name", REFERENCES)
def test_readme_module_name_resolves(name):
    module, *attrs = name.removeprefix("spde_lab.").split(".")
    obj = importlib.import_module(f"spde_lab.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README names {name}, but {attr} is not defined"
        obj = getattr(obj, attr)
