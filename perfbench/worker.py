"""One benchmark child process: a cold `import lanekit.cli`, then one job.

Usage: python3 perfbench/worker.py '<job json>'

Jobs:
  {"kind": "cli", "argv": [...]}         one CLI stage through lanekit.cli.main(argv)
  {"kind": "detector", "seed": s, "steps": n}
                                         warm-up frames, then n timed detector steps

With "spans": <path>, public lanekit functions are traced and the spans
are written to that path at the end.  The last stdout line is a JSON
result; `ready` is the CLOCK_MONOTONIC time at which the first timed
operation started, so the parent can measure set-up from launch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

_START = time.perf_counter()
import lanekit.cli  # noqa: E402  (the timed cold import)

IMPORT_S = time.perf_counter() - _START

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def run_cli(job: dict, tracer, result: dict) -> None:
    argv = job["argv"]
    out = io.StringIO()
    result["ready"] = time.monotonic()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = lanekit.cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", job.get("op"), lanekit.cli.main, argv)
    except Exception:  # the operation failed; report it instead of dying
        rc = None
        result["error"] = traceback.format_exc(limit=-3)
    result["elapsed_s"] = time.perf_counter() - start
    result["rc"] = rc
    result["stdout"] = out.getvalue()[-65536:]


def run_detector(job: dict, tracer, result: dict) -> None:
    import numpy as np

    import detector

    steps = job["steps"]
    if tracer is not None:
        tracer.op = "setup"  # the scene build is traced as set-up
    seq = detector.DetectorSequence(job["seed"], detector.WARMUP + steps)
    if tracer is not None:
        tracer.op = None
        tracer.active = False  # warm-up frames are untimed, so untraced too
    for frame in range(detector.WARMUP):
        seq.step(frame)
    if tracer is not None:
        tracer.active = True
    digest = hashlib.sha256()
    times, failures = [], []
    result["ready"] = time.monotonic()
    for frame in range(detector.WARMUP, detector.WARMUP + steps):
        try:
            start = time.perf_counter()
            if tracer is None:
                out, total, temporal_loss = seq.step(frame)
            else:
                out, total, temporal_loss = tracer.call("detector.step", frame, seq.step, frame)
            times.append(time.perf_counter() - start)
        except Exception:  # a failed step counts against failed_fraction
            failures.append(f"frame {frame}: {traceback.format_exc(limit=-2)}")
            continue
        if tracer is not None:
            tracer.active = False
        if not (np.all(np.isfinite(out)) and np.isfinite(total) and np.isfinite(temporal_loss)):
            failures.append(f"frame {frame}: non-finite output or loss")
        elif frame == detector.WARMUP:
            proposals, memory_points = seq.last_inputs
            if memory_points.shape[0] != detector.HISTORY * detector.KEEP * detector.CONTROL_POINTS:
                failures.append(f"frame {frame}: memory holds {memory_points.shape[0]} entries")
            failures.extend(f"frame {frame}: {e}" for e in detector.mask_degree_errors(proposals, memory_points))
        if tracer is not None:
            tracer.active = True
        digest.update(np.ascontiguousarray(out).tobytes())
        digest.update(np.array([total, temporal_loss], dtype=float).tobytes())
    result.update(step_s=times, failures=failures, digest=digest.hexdigest())


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("spans"):
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = {"import_s": IMPORT_S, "env": environment()}
    if job["kind"] == "cli":
        run_cli(job, tracer, result)
    elif job["kind"] == "detector":
        run_detector(job, tracer, result)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
