"""The README demos run to completion from a source checkout, and the
mutation catalogue still matches the source."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["structure_demo.py", "witness_family_demo.py"])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_catalogued_mutant_still_applies():
    # a mutant whose fragment no longer occurs exactly once, or whose
    # tests are gone, would be reported stale by scripts/mutants.py
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert (ROOT / m.path).read_text().count(m.fragment) == 1, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert not name or f"def {name}(" in (ROOT / path).read_text(), (m.name, test)
