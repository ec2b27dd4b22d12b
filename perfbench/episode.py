"""One episode: a fresh interpreter that runs a workload's ops in order.

Started by run.py and record.py, one process per episode:

    python3 perfbench/episode.py WORKLOAD SEED OUT_DIR RESULT_JSON TRACE

The first thing it does is import butterflylab.cli and note the monotonic
clock, so the parent can time set-up from its own spawn time. Each op calls
``cli.main(argv)`` in this process, timed with perf_counter around the call
only. With TRACE = 1 the layer wrappers are installed before the first op
and recording stops before the probe; with TRACE = 0 nothing is wrapped.
"""
import time

import butterflylab.cli as cli

IMPORT_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(workload: str, seed: str, out_dir: str, result_path: str, trace: str) -> None:
    tracer = None
    if trace == "1":
        tracer = spans.Tracer()
        tracer.install()
    ops = []
    for i, (phase, argv) in enumerate(WORKLOADS[workload]):
        if phase == "probe" and tracer is not None:
            tracer.recording = False
        out = Path(out_dir) / f"{i:02d}-{phase}-{argv[0]}"
        full = [*argv, "--seed", seed, "--out", str(out)]
        rc, error = None, None
        buf = io.StringIO()
        span = tracer.open(spans.CLI) if tracer is not None and tracer.recording else None
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = cli.main(full)
            except (Exception, SystemExit) as exc:  # an op that raises is counted as failed
                error = f"{type(exc).__name__}: {exc}"[:300]
            seconds = time.perf_counter() - t0
        if span is not None:
            tracer.close(span)
        ops.append({"phase": phase, "argv": argv, "out": str(out), "seconds": seconds,
                    "rc": rc, "error": error, "stdout": buf.getvalue()[-4000:], "span": span})
    result = {
        "import_done": IMPORT_DONE,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        by_root = tracer.self_time_by_root()
        for op in ops:
            if op["span"] is not None:
                op["self_s"] = by_root[op["span"]]
        result["missing"] = tracer.missing
        spans_path = Path(result_path).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans))
        result["spans"] = str(spans_path)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:])
