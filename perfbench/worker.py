"""Run one pipeline in this (fresh) interpreter and report what it measured.

Usage: ``python3 worker.py '<job json>'`` with ``src`` on ``PYTHONPATH``.
The job names the input files, the output directory, ``k`` and, for a
traced run, the run id and the directory for the spans file and self-time
table.  Only ``run_pipeline`` is timed; imports happen before the clock
starts.  The last line of standard output is a JSON object with
``pipeline_s``, ``peak_rss_mb`` and, when traced, ``layers``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from stem_match.pipeline import PipelineConfig, run_pipeline

from tracing import Tracer


def main(job: dict) -> dict:
    config = PipelineConfig(
        students=Path(job["students"]),
        candidates=Path(job["candidates"]),
        annotations=Path(job["annotations"]),
        out_dir=Path(job["out_dir"]),
        k=job["k"],
    )
    tracer = None
    if job.get("trace_dir"):
        tracer = Tracer(job["run_id"])
        tracer.install()
        start = perf_counter()
        tracer.call("pipeline.run_pipeline", run_pipeline, config)
    else:
        start = perf_counter()
        run_pipeline(config)
    pipeline_s = perf_counter() - start
    result = {
        "pipeline_s": pipeline_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        trace_dir = Path(job["trace_dir"])
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_dir / "spans.jsonl")
        tracer.write_self_time_table(trace_dir / "self_time.tsv")
        pages_bytes = sum(p.stat().st_size for p in (config.out_dir / "pages").iterdir())
        result["layers"] = tracer.layer_metrics(pages_bytes)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)
