"""What ``import stem_match`` promises: it loads every layer module."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import stem_match

PACKAGE_PARENT = Path(stem_match.__file__).resolve().parent.parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_layers() -> tuple[str, ...]:
    """The ``LAYERS`` tuple the benchmark tracer wraps after ``import stem_match``."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS in {TRACING}")


def test_importing_the_package_loads_the_pipeline_and_every_traced_layer():
    # A fresh interpreter, so that modules imported by other tests cannot
    # stand in for the ones the package root must import itself.
    code = ("import json, sys, stem_match; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('stem_match.'))))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_PARENT)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    wanted = {f"stem_match.{name}" for name in ("pipeline", *_tracing_layers())}
    assert wanted <= loaded, sorted(wanted - loaded)
