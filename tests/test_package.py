"""What importing the package loads: the root nothing, each module what it imports.

Each test runs a fresh interpreter, so that modules imported by other tests
cannot stand in for the ones the code under test must import itself.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import stem_match

PACKAGE_PARENT = Path(stem_match.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_constant(path: Path, name: str):
    """The literal value a module assigns to ``name`` at top level."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


def _loaded_after(code: str) -> set[str]:
    """The ``stem_match`` submodules and ``numpy`` loaded once ``code`` has run."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.startswith('stem_match.') or m == 'numpy')))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_PARENT)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_module():
    assert _loaded_after("import stem_match") == set()


def test_importing_the_pipeline_loads_every_traced_layer():
    # perfbench/tracing.py imports stem_match.pipeline and then wraps the
    # functions of every module in its LAYERS.
    layers = _module_constant(PERFBENCH / "tracing.py", "LAYERS")
    wanted = {f"stem_match.{name}" for name in ("pipeline", *layers)}
    loaded = _loaded_after("import stem_match.pipeline")
    assert wanted <= loaded, sorted(wanted - loaded)


def test_benchmark_set_up_loads_only_records_labeling_and_rolemodels():
    loaded = _loaded_after(_module_constant(PERFBENCH / "run.py", "SETUP_CODE"))
    assert loaded == {"stem_match.records", "stem_match.labeling", "stem_match.rolemodels"}


def test_loading_candidates_loads_no_other_module(tmp_path):
    # Whether an industry is known is the role-model filter's to decide;
    # the reader of candidate rows needs no taxonomy.
    path = tmp_path / "candidates.jsonl"
    path.write_text(json.dumps({"id": "c1", "industry": "Basket Weaving",
                                "location_raw": "Boston, MA"}) + "\n", encoding="utf-8")
    code = ("from stem_match.records import load_candidates\n"
            f"assert [r.id for r in load_candidates({str(path)!r})] == ['c1']")
    assert _loaded_after(code) == {"stem_match.records"}
