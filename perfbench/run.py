"""Benchmark of the stem-match pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload pool-heavy --seed 1 --seconds 25 --trace 0

One run:

1. generates the workload's synthetic population from ``--seed`` (not timed)
   and computes its input descriptors;
2. with ``--trace 0``, times interpreter set-up (``import stem_match`` plus
   the bundled rules, taxonomy and majors) in several fresh processes;
3. runs ``stem_match.pipeline.run_pipeline`` end to end, one fresh worker
   process at a time (closed loop, one client), into a fresh output
   directory, until ``--seconds`` are spent.  With ``--trace 1`` untraced
   and traced workers alternate: the traced ones give the per-layer
   metrics, and the difference between the two is the tracing overhead;
4. checks every pipeline run's artifacts (``checks.py``) outside timing.

Work files go under ``.perfbench_work/`` in the repository root: inputs,
the current run's outputs, the last traced run's ``spans.jsonl`` and
``self_time.tsv``, the workload descriptor and reference artifact digests.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "planted_recall_at_k": "ratio",
}
# Set-up samples taken before each pipeline run, so that they spread over
# the whole measuring window like the pipeline runs do.
SETUP_PER_RUN = 3
SETUP_CODE = (
    "import stem_match\n"
    "from stem_match import labeling, rolemodels\n"
    "labeling.default_rules(); rolemodels.default_taxonomy(); rolemodels.default_majors()\n"
    "print('ready', flush=True)\n"
)
# Fewest pipeline runs per benchmark run, untraced and traced together.
MIN_RUNS = {False: 3, True: 2}


class RunFailed(RuntimeError):
    """A worker process failed; the message carries its error output."""


def worker_env() -> dict[str, str]:
    """Environment for child interpreters: the package source, pinned threads.

    One BLAS/OpenMP thread (at most nproc): the classifier's matrices are
    small, and idle BLAS threads spinning on a second core only add noise.
    A fixed hash seed makes every worker iterate sets and dicts of strings
    in the same order, so each run of one input does the same work.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def environment(env: dict[str, str]) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OMP_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(env: dict[str, str]) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                          env=env) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RunFailed(f"set-up process exited with code {proc.returncode}")
    return elapsed


def run_worker(job: dict, env: dict[str, str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RunFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                        else f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_digest() -> str:
    """Digest of the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for base in (SRC / "stem_match", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(path.relative_to(ROOT).as_posix().encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's population sizes (tests use a tiny scale)")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench_work")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "stem_match" / "__init__.py").is_file():
        print(f"perfbench: no stem_match package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    from tracing import STAGES, UNITS
    from workloads import WORKLOADS, describe_inputs, make_inputs

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    traced_mode = bool(args.trace)
    env = worker_env()

    # -- set-up, not timed -------------------------------------------------
    work = args.work_dir / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(workload, args.seed, work / "inputs", args.scale)
    descriptor = {"workload": workload.name, "seed": args.seed, "scale": args.scale,
                  **describe_inputs(inputs), "environment": environment(env)}
    problems: list[str] = []
    if workload.needs_mask_overlap and descriptor["mask_overlap_share"] == 0:
        problems.append(f"{workload.name}: no student has overlapping fuzzy-hit masks")
    digest_file = args.work_dir / "digests" / (
        f"{code_digest()}-{workload.name}-{args.seed}-{args.scale}.json")
    reference = (json.loads(digest_file.read_text(encoding="utf-8"))
                 if digest_file.is_file() else None)
    if not traced_mode:
        measure_setup(env)  # untimed: lets bytecode caches fill

    # -- measuring window: one pipeline process at a time ---------------------
    out_dir = work / "out"
    plain: list[dict] = []
    traced: list[dict] = []
    setup_times: list[float] = []
    failed = 0
    ranking_problems = None
    start = perf_counter()
    for run_index in itertools.count():
        use_trace = traced_mode and run_index % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        os.sync()  # flush the previous run's pages before the next run starts
        job = {
            "students": str(inputs["students"]),
            "candidates": str(inputs["candidates"]),
            "annotations": str(inputs["gt"]),
            "out_dir": str(out_dir),
            "k": workload.k,
            "run_id": f"{workload.name}-seed{args.seed}-run{run_index}",
            "trace_dir": str(work / "trace") if use_trace else None,
        }
        run_started = perf_counter()
        result = None
        try:
            if not traced_mode:
                setup_times += [measure_setup(env) for _ in range(SETUP_PER_RUN)]
            result = run_worker(job, env)
            run_problems = checks.check_report(out_dir)
            digests = checks.artifact_digests(out_dir)
            if reference is None:
                reference = digests
                digest_file.parent.mkdir(parents=True, exist_ok=True)
                digest_file.write_text(json.dumps(reference, sort_keys=True), encoding="utf-8")
            run_problems += checks.digest_problems(reference, digests)
            if ranking_problems is None:
                # Later runs' artifacts equal this run's by digest, so its
                # ranking check and planted recall stand for all of them.
                ranking_problems = checks.check_rankings(out_dir, workload.k)
                recall = checks.planted_recall(out_dir, inputs["gt"])
                report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
                descriptor["college"] = report["cohort"]["college"]
                descriptor["pairs_scored"] = (report["matching"]["students_ranked"]
                                              * report["rolemodels"]["kept"])
            run_problems += ranking_problems
        except (RunFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            run_problems = [f"run {run_index}: {exc}"]
        if result is not None:
            (traced if use_trace else plain).append(result)
        if run_problems:
            failed += 1
            problems += [problem for problem in run_problems if problem not in problems]
        # Stop when another run like this one would overrun the window, or
        # when no worker has completed at all.
        now = perf_counter()
        if run_index + 1 >= MIN_RUNS[traced_mode] and (
                (now - start) + (now - run_started) > args.seconds or not (plain or traced)):
            break
    shutil.rmtree(out_dir, ignore_errors=True)

    attempted = run_index + 1
    if not plain or (traced_mode and not traced) or ranking_problems is None:
        for problem in problems + ["no checked pipeline run to report"]:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    if recall[1] == 0:
        problems.append(f"{workload.name}: no planted student reached the college cohort")

    # -- metrics -------------------------------------------------------------
    pipeline_times = [r["pipeline_s"] for r in plain]
    if traced_mode:
        metrics = {name: statistics.median([r["layers"][name] for r in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median([r["pipeline_s"] for r in traced])
                                       - statistics.median(pipeline_times))
        rank_share = metrics["stage.rank_s"] / sum(metrics[f"stage.{s}_s"] for s in STAGES)
        descriptor["rank_share_traced"] = rank_share
        if workload.rank_majority and rank_share <= 0.5:
            problems.append(f"{workload.name}: rank is {rank_share:.0%} of the traced run, "
                            "not the majority this workload exists to show")
        units = UNITS
    else:
        metrics = {
            "pipeline_s": statistics.median(pipeline_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
            "planted_recall_at_k": recall[0] / recall[1] if recall[1] else 0.0,
        }
        units = END_TO_END_UNITS
    descriptor["planted_recall"] = {"hits": recall[0], "base": recall[1], "k": workload.k}
    descriptor["error_rate"] = {"failed": failed, "attempted": attempted}
    descriptor["samples"] = {
        "pipeline_s": pipeline_times,
        "pipeline_s_traced": [r["pipeline_s"] for r in traced],
        "setup_s": setup_times,
    }
    (work / "descriptor.json").write_text(json.dumps(descriptor, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"descriptor": descriptor}))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
