"""The repository's scripts and benchmark against the package they use.

The benchmark's tracer names package functions by module and attribute;
a name that no longer resolves would only fail the benchmark run, so it is
checked here.  The scripts under ``scripts/`` are run once with small
arguments.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced_names():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [(spans.PACKAGE, mod, path) for mod, path, _ in spans.TRACED]


@pytest.mark.parametrize("package, module, path", traced_names())
def test_traced_name_resolves_on_the_package(package, module, path):
    obj = importlib.import_module(f"{package}.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize("argv", [
    ["eigen_family_survey.py", "--count", "2"],
    ["reconstruction_demo.py"],
    ["bundle_sweep.py", "--values", "0.3", "--grid", "100", "--points", "2"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    if "--points" in argv:          # the sweep checks as many points as asked
        count = argv[argv.index("--points") + 1]
        assert f"residuals are maxima over {count} sample points" in proc.stdout
