#!/usr/bin/env python3
"""lanekit benchmark.

Usage, from the root of a lanekit checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loop: one operation at a time, in one child process at a time):

  readme-pipeline    the six README commands on the README scene; every stage
                     in its own fresh process, timed around lanekit.cli.main(argv)
  long-drive         `autolabel` on a 300-frame scene (its `synth` is set-up);
                     at least 2 passes per run
  detector-sequence  detector steps (20 proposals x 20 control points, 64
                     channels, 8 heads, 3 x 10 x 20 = 600 memory entries); a pass
                     is one process: 3 untimed warm-up frames, then 25 timed
                     steps; exactly 4 passes (100 timed steps) per run

Every pass of a run works on the same inputs.  Passes repeat while they
fit in --seconds, within the pass counts above (at least one).
Every operation is checked; the last stdout line is the JSON result with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before it
holds per-stage timings with sample counts, quality numbers, output
fingerprints, the environment and a machine-speed calibration taken at
both ends of the run.  --trace 1 runs one untraced and one
traced pass on the same inputs, reports the difference of their wall
times as `trace.overhead_s` and fails unless their fingerprints agree.
Spans and details are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
BLAS_THREADS = "1"          # fixed, <= nproc; the bundled OpenBLAS otherwise starts one thread per core
RUN_LIMIT_S = 170.0         # the whole run, children included, ends before this
SETUP_REPEATS = 3           # long-drive generates its scene this many times for a median set-up time

README_SCENE = ["--frames", "200", "--num-lanes", "4", "--curvature", "0", "0", "5e-4",
                "--grade", "0.05", "--pixel-noise", "1.0"]
MASKS = {"lanes": 40, "points": 20, "history": 3, "keep": 10, "k_nearest": 10}
# (stage, repeats): sub-second stages repeat so that their median stays steady
README_STAGES = [("synth", 1), ("autolabel", 1), ("eval", 1), ("spline", 1),
                 ("masks", 3), ("temporal-demo", 3)]
LONG_FRAMES = 300
LABEL_RANGE_M = 250.0
DETECTOR_STEPS = 25         # timed steps per detector pass (one child process)
DETECTOR_WARMUP = 3         # untimed frames that fill the 3-frame memory (detector.WARMUP)
MIN_PASSES = {"long-drive": 2, "detector-sequence": 4}
MAX_PASSES = {"detector-sequence": 4}  # exactly 100 timed detector steps per run
CALIBRATION_REPEATS = 5     # a fixed loop timed at both ends of a run, to tell machine drift from regressions

_T0 = time.monotonic()


class BenchError(Exception):
    """The benchmark cannot run here (no lanekit source, or out of time)."""


def time_left() -> float:
    return RUN_LIMIT_S - (time.monotonic() - _T0)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONPATH=os.path.abspath("src"))
    return env


def launch(job: dict, cwd: str) -> dict:
    """Run one worker to completion; its JSON result plus launch/finish times."""
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=cwd, env=child_env(),
                              capture_output=True, text=True, timeout=max(time_left(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {job['kind']} exceeded the run time limit") from exc
    finished = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        result = {"rc": None, "error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result.update(launched=launched, finished=finished, job=job)
    return result


class Pass:
    """Operations of one pass of a workload, with their checks and fingerprints."""

    def __init__(self):
        self.children: list[dict] = []
        self.stage_s: dict[str, list[float]] = {}
        self.step_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict = {}
        self.quality: dict = {}
        self.wall_s = 0.0

    def op(self, label: str, seconds: float | None, problems: list[str]) -> None:
        self.attempted += 1
        if seconds is not None:
            self.stage_s.setdefault(label.split("#")[0], []).append(seconds)
        self.failures.extend(f"{label}: {p}" for p in problems)

    @property
    def failed(self) -> int:
        return len({f.split(":", 1)[0] for f in self.failures})


def cli_job(argv, spans_path=None, op=None) -> dict:
    return {"kind": "cli", "argv": argv, "spans": spans_path, "op": op}


def cli_problems(result: dict) -> list[str]:
    if result.get("rc") != 0:
        return [result.get("error") or f"exit code {result.get('rc')}"]
    return []


def labels_check(p: Pass, cwd: str, labels: str, gt: str) -> list[str]:
    import checks

    try:
        err, points = checks.label_error(os.path.join(cwd, labels), os.path.join(cwd, gt))
    except (OSError, ValueError, KeyError) as exc:
        return [f"label error: {exc}"]
    p.quality.update(label_err_m=err, label_err_points=points)
    if not err <= checks.LABEL_ERR_BUDGET_M:
        return [f"label_err_m {err:.4f} above the {checks.LABEL_ERR_BUDGET_M} m budget"]
    return []


def fingerprint(p: Pass, cwd: str, names) -> None:
    import checks

    for name in names:
        path = os.path.join(cwd, name)
        p.fingerprints[name] = checks.sha256_file(path) if os.path.exists(path) else None


def readme_argv(stage: str, seed: int) -> list[str]:
    if stage == "synth":
        return ["synth", "scene", *README_SCENE, "--seed", str(seed)]
    if stage == "autolabel":
        return ["autolabel", "--trajectory", "scene.trajectory.json", "--camera", "scene.camera.json",
                "--detections", "scene.detections.jsonl", "--out", "labels.jsonl"]
    if stage == "eval":
        return ["eval", "--pred", "labels.jsonl", "--gt", "scene.gt.jsonl", "--out", "report.json"]
    if stage == "spline":
        return ["spline", "--input", "scene.gt.jsonl", "--out", "fitted.jsonl", "--control-points", "20"]
    if stage == "masks":
        return ["masks", "--lanes", str(MASKS["lanes"]), "--points", str(MASKS["points"]),
                "--history", str(MASKS["history"]), "--keep", str(MASKS["keep"]),
                "--k-nearest", str(MASKS["k_nearest"]), "--seed", str(seed)]
    return ["temporal-demo", "--frames", "120", "--perturb", "0.3", "--occlusion-start", "40",
            "--occlusion-frames", "30", "--out", "trace.json", "--seed", str(seed)]


def readme_problems(p: Pass, stage: str, result: dict, cwd: str) -> list[str]:
    """Check one README stage's outputs; records quality numbers and the masks report."""
    import checks

    problems = cli_problems(result)
    if problems:
        return problems
    try:
        if stage == "autolabel":
            return labels_check(p, cwd, "labels.jsonl", "scene.gt.jsonl")
        if stage == "eval":
            report = checks.load_json(os.path.join(cwd, "report.json"))
            p.quality.update(grid_f1=report["f1"], chamfer_f1=report["chamfer"]["f1"])
            return checks.check_report(os.path.join(cwd, "report.json"), os.path.join(cwd, "labels.jsonl"),
                                       os.path.join(cwd, "scene.gt.jsonl"))
        if stage == "masks":
            p.fingerprints["masks.stdout"] = result["stdout"].strip().splitlines()[-1]
            entries = MASKS["history"] * MASKS["keep"] * MASKS["points"]
            return checks.check_masks(result["stdout"], MASKS["lanes"], MASKS["points"], entries,
                                      MASKS["k_nearest"])
        if stage == "temporal-demo":
            trace = checks.load_json(os.path.join(cwd, "trace.json"))
            return [f"non-finite {path}" for path in checks.non_finite_paths(trace)]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{stage} output: {exc!r}"]
    return []


def readme_pass(seed: int, cwd: str, spans_dir: str | None) -> Pass:
    p = Pass()
    for stage, repeats in README_STAGES:
        for rep in range(repeats):
            spans = os.path.join(spans_dir, f"{stage}-{rep}.json") if spans_dir else None
            result = launch(cli_job(readme_argv(stage, seed), spans, f"{stage}#{rep}"), cwd)
            p.children.append(result)
            p.op(f"{stage}#{rep}", result.get("elapsed_s"), readme_problems(p, stage, result, cwd))
    fingerprint(p, cwd, ["scene.trajectory.json", "scene.camera.json", "scene.detections.jsonl",
                         "scene.gt.jsonl", "labels.jsonl", "report.json", "fitted.jsonl", "trace.json"])
    p.wall_s = sum(statistics.median(times) for times in p.stage_s.values())
    return p


def long_synth(seed: int, cwd: str, spans_path: str | None) -> dict:
    argv = ["synth", "long", "--frames", str(LONG_FRAMES), "--num-lanes", "4", "--curvature", "0", "0",
            "5e-4", "--grade", "0.05", "--pixel-noise", "1.0", "--seed", str(seed),
            # travel plus the label range plus a margin, as acceptance criterion 09 sizes its scene
            "--lane-length", str(LONG_FRAMES * 1.0 + LABEL_RANGE_M + 20.0),
            "--label-range", str(LABEL_RANGE_M)]
    result = launch(cli_job(argv, spans_path, "setup"), cwd)
    if result.get("rc") != 0:
        raise BenchError(f"long-drive scene generation failed: {cli_problems(result)}")
    return result


def long_pass(seed: int, cwd: str, spans_dir: str | None) -> Pass:
    p = Pass()
    argv = ["autolabel", "--trajectory", "long.trajectory.json", "--camera", "long.camera.json",
            "--detections", "long.detections.jsonl", "--out", "labels.jsonl"]
    spans = os.path.join(spans_dir, "autolabel.json") if spans_dir else None
    result = launch(cli_job(argv, spans, "autolabel#0"), cwd)
    p.children.append(result)
    problems = cli_problems(result) or labels_check(p, cwd, "labels.jsonl", "long.gt.jsonl")
    p.op("autolabel#0", result.get("elapsed_s"), problems)
    fingerprint(p, cwd, ["long.trajectory.json", "long.camera.json", "long.detections.jsonl",
                         "long.gt.jsonl", "labels.jsonl"])
    p.wall_s = result.get("elapsed_s") or 0.0
    return p


def detector_pass(seed: int, cwd: str, spans_dir: str | None) -> Pass:
    """One child: scene, warm-up frames, then DETECTOR_STEPS timed steps; the same frames every pass."""
    p = Pass()
    spans = os.path.join(spans_dir, "detector.json") if spans_dir else None
    job = {"kind": "detector", "seed": seed, "steps": DETECTOR_STEPS, "spans": spans}
    result = launch(job, cwd)
    p.children.append(result)
    p.step_s = result.get("step_s", [])
    p.attempted = DETECTOR_STEPS
    p.failures = list(result.get("failures", []))
    if "step_s" not in result:
        p.failures.append(f"detector: {result.get('error')}")
    p.fingerprints["detector"] = result.get("digest")
    p.wall_s = sum(p.step_s)
    return p


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: machine speed, recorded but not applied."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def metric_units(trace: bool) -> dict:
    """Metric name -> unit, from BENCHMARK.json: the per-layer set when tracing."""
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank percentile; None unless at least ten samples lie above it."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] if len(ordered) - rank >= 10 else None


PASSES = {"readme-pipeline": readme_pass, "long-drive": long_pass, "detector-sequence": detector_pass}


def run(workload: str, seed: int, seconds: float, trace: bool, work: str, out_dir: str):
    calibration = [calibration_ms()]
    setup_children = []
    if workload == "long-drive":
        repeats = 1 if trace else SETUP_REPEATS
        for rep in range(repeats):
            spans = os.path.join(work, "synth.json") if trace else None
            setup_children.append(long_synth(seed, work, spans))

    one_pass = PASSES[workload]
    passes: list[Pass] = []
    span_sets = []
    if trace:
        # the same inputs, once untraced and once traced
        passes.append(one_pass(seed, work, None))
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        passes.append(one_pass(seed, work, spans_dir))
        names = sorted(os.listdir(spans_dir))
        span_files = [os.path.join(spans_dir, n) for n in names]
        if setup_children:
            span_files.insert(0, os.path.join(work, "synth.json"))
        for path in span_files:
            with open(path, "r", encoding="utf-8") as fh:
                span_sets.append(json.load(fh))
    else:
        start = time.monotonic()
        while True:
            t = time.monotonic()
            passes.append(one_pass(seed, work, None))
            took = time.monotonic() - t
            if len(passes) >= MAX_PASSES.get(workload, len(passes) + 1):
                break
            if len(passes) < MIN_PASSES.get(workload, 1):
                continue
            if time.monotonic() - start + took > seconds or time_left() < 2.0 * took + 10.0:
                break

    children = setup_children + [c for p in passes for c in p.children]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)
    correct = failed == 0

    # set-up: process start to the first timed operation of each timed child
    ready = [c["ready"] - c["launched"] for p in passes for c in p.children if "ready" in c]
    if workload == "long-drive":
        synth_s = [c["finished"] - c["launched"] for c in setup_children]
        setup = [median(synth_s) + median(ready)] if ready else []
    else:
        setup = ready
    stage_s: dict[str, list[float]] = {}
    for p in passes:
        for stage, values in p.stage_s.items():
            stage_s.setdefault(stage, []).extend(values)
    steps = [s for p in passes for s in p.step_s]

    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": len(passes),
        "env": next((c["env"] for c in children if "env" in c), None),
        "stages": {f"{name.replace('-', '_')}_s": {"value": median(v), "stat": "median", "n": len(v), "unit": "s"}
                   for name, v in stage_s.items()},
        "failed_fraction": failed / attempted if attempted else None,
        "failures": failures[:20],
        "quality": passes[0].quality,
        "fingerprints": passes[0].fingerprints,
    }
    imports = [c["import_s"] for c in children if "import_s" in c]
    if imports:
        # best of N: machine speed drifts in phases, and the fastest cold import is the steadiest
        detail["stages"]["import_s"] = {"value": min(imports), "stat": "min", "n": len(imports), "unit": "s"}
    if steps:
        p90 = percentile(steps, 90)
        detail["stages"]["detector_step_ms_p50"] = {"value": 1e3 * median(steps), "stat": "median",
                                                    "n": len(steps), "unit": "ms"}
        detail["stages"]["detector_step_ms_p90"] = {"value": None if p90 is None else 1e3 * p90, "stat": "p90",
                                                    "n": len(steps), "unit": "ms"}

    if trace:
        untraced, traced = passes
        match = untraced.fingerprints == traced.fingerprints and untraced.quality == traced.quality
        detail["fingerprints_traced"] = traced.fingerprints
        detail["fingerprints_match"] = match
        correct = correct and match
        metrics = tracing.layer_metrics(span_sets)
        metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
        with open(os.path.join(out_dir, f"{workload}-seed{seed}.spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counters"],
                       "processes": span_sets}, fh)
    else:
        metrics = {
            "setup_s": median(setup),
            "wall_s": median([p.wall_s for p in passes]),
            "peak_rss_mb": max((c.get("maxrss_mb", 0.0) for c in children), default=None),
        }
    units = metric_units(trace)
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    missing = [name for name in units if metrics[name] is None]
    if missing:
        raise BenchError(f"no measurement for {missing}: {failures[:3]}")
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    calibration.append(calibration_ms())
    detail["calibration_ms"] = {"start": calibration[0], "end": calibration[1], "repeats": CALIBRATION_REPEATS}
    detail["metrics"] = metrics
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    return detail, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, default=7, help="workload seed (7 is the README's)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker, `finally` cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join("src", "lanekit", "cli.py")):
        print("perfbench: run from the root of a lanekit checkout (src/lanekit/cli.py not found)",
              file=sys.stderr)
        return 2
    out_dir = os.path.abspath(".perfbench_out")
    work = os.path.abspath(os.path.join(".perfbench_work", f"{args.workload}-{os.getpid()}"))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), work, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
