"""What importing the package loads: the root nothing, each module what it imports.

Each import test runs a fresh interpreter, so that modules imported by other
tests cannot stand in for the ones the code under test must import itself.
The last test checks that every function the benchmark's tracer reads by
name still exists.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import stem_match

PACKAGE_PARENT = Path(stem_match.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_constant(path: Path, name: str):
    """The literal value a module assigns to ``name`` at top level, or the
    set it wraps in ``frozenset(...)``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            value = node.value
            if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "frozenset"):
                return frozenset(ast.literal_eval(value.args[0]))
            return ast.literal_eval(value)
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
            f"assert [r.id for r in load_candidates({str(path)!r}).records] == ['c1']")
    assert _loaded_after(code) == {"stem_match.records"}


def _traced_names() -> set[str]:
    """Every traced name perfbench/tracing.py reads: the string keys that
    ``Tracer.layer_metrics`` looks up in ``total``, ``calls`` and
    ``self_total``, the keys of ``COUNTERS`` and the ``METHODS`` triples."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    names = {".".join(triple) for triple in _module_constant(PERFBENCH / "tracing.py", "METHODS")}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "COUNTERS" for t in node.targets):
            names.update(ast.literal_eval(key) for key in node.value.keys)
        if isinstance(node, ast.ClassDef) and node.name == "Tracer":
            [metrics] = [f for f in node.body
                         if isinstance(f, ast.FunctionDef) and f.name == "layer_metrics"]
            names.update(
                sub.slice.value for sub in ast.walk(metrics)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id in ("total", "calls", "self_total")
                and isinstance(sub.slice, ast.Constant))
    return names


def test_every_name_the_tracer_reads_is_a_function_it_wraps():
    # The tracer's tables are defaultdicts, so a renamed or deleted function
    # reads 0 there instead of failing.
    layers = _module_constant(PERFBENCH / "tracing.py", "LAYERS")
    untraced = _module_constant(PERFBENCH / "tracing.py", "UNTRACED")
    methods = {".".join(triple) for triple in _module_constant(PERFBENCH / "tracing.py", "METHODS")}
    names = _traced_names()
    assert "records.load_students" in names and "matching.CandidateIndex.score" in names
    for name in sorted(names):
        layer, *path = name.split(".")
        assert layer in layers, name
        module = importlib.import_module(f"stem_match.{layer}")
        if len(path) == 1:
            fn = getattr(module, path[0], None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
            assert not path[0].startswith("_") and name not in untraced, name
        else:
            assert name in methods, name
            cls_name, method = path
            cls = getattr(module, cls_name, None)
            assert inspect.isclass(cls) and cls.__module__ == module.__name__, name
            assert inspect.isfunction(vars(cls).get(method)), name
