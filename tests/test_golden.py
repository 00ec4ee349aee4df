"""Every generated input and artifact of three seeded runs, pinned by sha256.

The three populations have the shapes of the benchmark's workloads, written
out here at scale 0.05 and seed 7: ``pool-heavy`` (few students, a large
pool), ``cohort-heavy`` (many students, a small pool) and ``fuzzy-vocab``
(``pool-heavy``'s shape with each tag's plural and clipped variants, and up
to six interests).  Each is generated, run through ``run_pipeline`` with the
default configuration, and every file of the inputs and of ``out_dir`` must
hash to its digest in ``tests/golden.json``; so must a second run into the
same ``out_dir``.

Every artifact is pinned, ``model.txt`` and each page included.  Training
calls no BLAS kernel, so the model's bytes do not depend on the host CPU;
one more test checks that under two OpenBLAS kernels.

A change meant to alter bytes regenerates the digests with
``PYTHONPATH=src python tests/test_golden.py`` and lists the changed files.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stem_match
from stem_match.pipeline import PipelineConfig, run_pipeline
from stem_match.synthetic import DEFAULT_INTEREST_VOCABULARY, SynthConfig, generate_synthetic

GOLDEN = Path(__file__).with_name("golden.json")

FUZZY_VOCABULARY = tuple(word for tag in DEFAULT_INTEREST_VOCABULARY
                         for word in (tag, tag + "s", tag[:-1]))

SHAPES = {
    "pool-heavy": SynthConfig(seed=7, n_students=100, n_candidates=800, planted_fraction=0.2),
    "cohort-heavy": SynthConfig(seed=7, n_students=400, n_candidates=60, planted_fraction=0.02),
    "fuzzy-vocab": SynthConfig(seed=7, n_students=50, n_candidates=400, planted_fraction=0.2,
                               interest_vocabulary=FUZZY_VOCABULARY, max_interests=6),
}


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by POSIX path relative to it."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def run_shape(name: str, root: Path) -> PipelineConfig:
    """Generate one shape's inputs under ``root`` and run the pipeline on them."""
    inputs = generate_synthetic(SHAPES[name], root / "inputs")
    config = PipelineConfig(students=inputs["students"], candidates=inputs["candidates"],
                            annotations=inputs["gt"], out_dir=root / "out")
    run_pipeline(config)
    return config


def differing(want: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


@pytest.mark.parametrize("name", SHAPES)
def test_every_input_and_artifact_matches_its_golden_digest(tmp_path, name):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    config = run_shape(name, tmp_path)
    changed = differing(want, digests(tmp_path))
    assert not changed, f"{name}: files differ from golden.json: {changed}"
    run_pipeline(config)
    changed = differing(want, digests(tmp_path))
    assert not changed, f"{name}: a rerun into the same out_dir changed files: {changed}"


def test_the_model_is_the_same_bytes_under_two_openblas_kernels(tmp_path):
    """Run the ``cohort-heavy`` shape in two processes, one with OpenBLAS's
    ``SkylakeX`` kernel and one with ``Prescott``, and compare ``model.txt``.

    ``OPENBLAS_CORETYPE`` overrides the kernel that an OpenBLAS built for
    several CPUs picks at import.  Where numpy's BLAS does not read the
    variable, both runs use the same kernel and the test passes trivially.
    """
    source_dirs = [str(Path(stem_match.__file__).parents[1]), str(Path(__file__).parent)]
    script = ("import pathlib, sys, test_golden; "
              "test_golden.run_shape('cohort-heavy', pathlib.Path(sys.argv[1]))")
    models = {}
    for kernel in ("SkylakeX", "Prescott"):
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
               "PYTHONPATH": os.pathsep.join(source_dirs + [os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", script, str(tmp_path / kernel)], env=env,
                       check=True, timeout=300)
        models[kernel] = (tmp_path / kernel / "out" / "model.txt").read_bytes()
    assert models["SkylakeX"] == models["Prescott"]


if __name__ == "__main__":
    import tempfile

    golden = {}
    for shape in SHAPES:
        with tempfile.TemporaryDirectory() as directory:
            run_shape(shape, Path(directory))
            golden[shape] = digests(Path(directory))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, golden.values()))} digests to {GOLDEN}", file=sys.stderr)
