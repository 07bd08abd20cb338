"""perfbench: the qspecht benchmark.

    python3 perfbench/run.py --workload {build,verify,oracle} --seed N --seconds S --trace {0,1}

Run it from the root of a repository checkout; it imports qspecht from `src/`
and needs nothing else.  Workloads and their pools are in `pools.py`.

A run is a closed loop with one client, one process at a time and no threads.
The seed draws the run's jobs.  A pass runs all of them back to back in a
fresh interpreter (`worker.py`), so every pass starts with cold caches.
Passes repeat while the next one fits in --seconds of measured job time; at
least one runs.  Before the passes, SETUP_STARTS interpreters start, import
qspecht, draw the jobs and exit, so that set-up is sampled several times.  A
job that outlives JOB_BUDGET_S, or a run that outlives RUN_BUDGET_S, is
killed: every job of the pass it did not finish counts as failed, and no
further pass starts.

Times are reported in reference seconds.  The CPU of a shared machine runs
the same code up to a third slower for seconds or minutes at a time, so the
worker times its own fixed loop (`worker.calibrate`) right after set-up and
before and after every job, and each time is scaled by REFERENCE_CALIB_S over
the loop's time around it: the time the job would take on this machine with
the loop at its reference speed.  The raw medians are printed with the
environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  --trace 1 runs one untraced pass and then one traced pass, and
reports the traced pass's per-layer metrics (see `tracing.py`), in raw
seconds, with the tracing overhead; its spans are written to `.perfbench/`
when the run ends.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it give every metric by
name with its unit, `fail_ratio`, and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import pools  # noqa: E402
import tracing  # noqa: E402

SETUP_STARTS = 4
JOB_BUDGET_S = 60.0
RUN_BUDGET_S = 170.0
# time of worker.calibrate() at the reference speed: about its median on an
# idle 2-vCPU Xeon VM with Python 3.11
REFERENCE_CALIB_S = 0.010


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Pass:
    """What one worker reported."""

    def __init__(self, mode: str, keys: list[str]):
        self.mode = mode
        self.keys = keys
        self.setup_s: float | None = None
        self.setup_calib_s = 0.0
        self.latencies: dict[int, float] = {}
        self.calib: dict[int, float] = {}  # loop time just before each job
        self.errors: dict[int, str] = {}
        self.done: dict | None = None
        self.killed = ""
        self.elapsed_s = 0.0

    def handle(self, message: dict):
        if "ready" in message:
            self.setup_s = message["ready"]
            self.setup_calib_s = message["calib_s"]
        elif "job" in message:
            self.latencies[message["job"]] = message["latency_s"]
            self.calib[message["job"]] = message["calib_s"]
            if message["error"] is not None:
                self.errors[message["job"]] = message["error"]
        elif "done" in message:
            self.done = message["done"]

    @property
    def complete(self) -> bool:
        return self.done is not None and len(self.latencies) == len(self.keys)

    def job_times(self) -> list[float]:
        """Latencies of the finished jobs, in reference seconds."""
        out = []
        for j, latency in sorted(self.latencies.items()):
            after = self.calib.get(j + 1) or (self.done or {}).get("calib_s") or self.calib[j]
            out.append(latency * REFERENCE_CALIB_S / ((self.calib[j] + after) / 2))
        return out

    @property
    def wall_s(self) -> float:
        return sum(self.job_times())

    @property
    def setup_ref_s(self) -> float:
        return self.setup_s * REFERENCE_CALIB_S / self.setup_calib_s

    @property
    def failed(self) -> int:
        return len(self.errors) + len(self.keys) - len(self.latencies)


def run_worker(workload: str, seed: int, mode: str, keys: list[str],
               run_deadline: float) -> Pass:
    """Start a worker and follow it until it ends or a budget runs out."""
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(spawn)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT,
    )
    run = Pass(mode, [] if mode == "setup" else keys)
    pending = b""
    last_event = spawn
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                deadline = min(last_event + JOB_BUDGET_S, run_deadline)
                timeout = deadline - time.monotonic()
                if timeout <= 0 or not selector.select(timeout):
                    run.killed = ("run over its time budget" if deadline == run_deadline
                                  else "job over its time budget")
                    break
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                *lines, pending = (pending + chunk).split(b"\n")
                for line in lines:
                    run.handle(json.loads(line))
                    last_event = time.monotonic()
    except BaseException:
        proc.kill()
        raise
    finally:
        if run.killed:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    run.elapsed_s = time.monotonic() - spawn
    if not run.killed and (proc.returncode or (mode != "setup" and run.done is None)):
        run.killed = f"worker exited with code {proc.returncode}"
    return run


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[Pass]:
    """Set-up samples, then untraced passes while the next one fits in
    `seconds` of job time (at least one); with `trace`, one untraced pass and
    then one traced pass."""
    keys = pools.draw(workload, seed)
    run_deadline = time.monotonic() + RUN_BUDGET_S
    passes = [run_worker(workload, seed, "setup", keys, run_deadline)
              for _ in range(SETUP_STARTS)]
    if any(p.killed for p in passes):
        return passes
    while True:
        mode = "trace" if trace and len(passes) > SETUP_STARTS else "run"
        passes.append(run_worker(workload, seed, mode, keys, run_deadline))
        if not passes[-1].complete or mode == "trace":
            break
        if trace:
            continue
        timed = [p for p in passes if p.mode == "run"]
        raw = [sum(p.latencies.values()) for p in timed]
        if sum(raw) + statistics.fmean(raw) > seconds:
            break
        if time.monotonic() + statistics.fmean(p.elapsed_s for p in timed) > run_deadline:
            break
    return passes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, passes: list[Pass]) -> dict:
    runs = [p for p in passes if p.mode == "run"]
    calib = [c for p in runs for c in p.calib.values()]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "caches": "cold: every pass is a fresh interpreter",
        "loop": "closed, one client, one process, no threads",
        "passes": sum(p.mode != "setup" for p in passes),
        "setup_samples": sum(p.setup_s is not None for p in passes),
        "jobs_per_pass": pools.jobs_per_run(workload),
        "tail_percentile": pools.tail_percentile(workload),
        "reference_calib_s": REFERENCE_CALIB_S,
        "calib_median_s": statistics.median(calib) if calib else None,
        "raw_wall_s": statistics.median(sum(p.latencies.values()) for p in runs)
        if runs else None,
        "raw_setup_s": statistics.median(p.setup_s for p in passes if p.setup_s is not None),
    }


def end_to_end(workload: str, passes: list[Pass]) -> dict[str, float]:
    values = {"setup_s": statistics.median(
        p.setup_ref_s for p in passes if p.setup_s is not None)}
    runs = [p for p in passes if p.mode == "run" and p.latencies]
    complete = [p for p in runs if p.complete] or runs
    if complete:
        # each statistic is taken within a pass, then the median across passes,
        # so that it does not shift with the number of passes
        values.update({
            "wall_s": statistics.median(p.wall_s for p in complete),
            "job_p50_s": statistics.median(
                statistics.median(p.job_times()) for p in complete),
            "job_tail_s": statistics.median(
                nearest_rank(p.job_times(), pools.tail_percentile(workload))
                for p in complete),
            "peak_rss_mb": statistics.median(
                p.done["peak_rss_mb"] if p.done else 0.0 for p in complete),
        })
    return values


def per_layer(workload: str, passes: list[Pass]) -> tuple[dict, list[str]]:
    untraced = [p for p in passes if p.mode == "run" and p.complete]
    traced = [p for p in passes if p.mode == "trace" and p.complete]
    if not untraced or not traced:
        return {}, ["no complete traced and untraced pass to compare"]
    metrics = tracing.layer_metrics(traced[0].done["trace"])
    metrics["trace.overhead_ratio"] = traced[0].wall_s / untraced[0].wall_s
    problems = []
    if workload == "build":
        expected = sum(pools.shape_size(key) - 1 for key in traced[0].keys)
        if metrics["specht.generator_matrix_calls"] != expected:
            problems.append(
                f"self-check: traced {metrics['specht.generator_matrix_calls']} "
                f"generator_matrix calls, the jobs made {expected}")
    return metrics, problems


def write_spans(workload: str, seed: int, env: dict, traced: Pass):
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "jobs": traced.keys, "environment": env,
           "summary": traced.done["trace"],
           "span_fields": ["name", "start_s", "end_s", "child_s", "parent", "job"],
           "spans": traced.done["spans"]}
    (out / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qspecht benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(pools.POOLS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the worker is stopped too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "qspecht" / "__init__.py").is_file():
        print(f"error: no qspecht sources under {ROOT / 'src'}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    if not any(p.setup_s is not None for p in passes):
        print(f"error: the worker never got ready ({passes[-1].killed})", file=sys.stderr)
        return 1

    env = environment(args.workload, passes)
    problems = [f"{p.mode} worker: {p.killed}" for p in passes if p.killed]
    for p in passes:
        problems += [f"job {p.keys[j]}: {msg}" for j, msg in sorted(p.errors.items())]
    if args.trace:
        values, trace_problems = per_layer(args.workload, passes)
        problems += trace_problems
        env["trace_overhead_ratio"] = values.get("trace.overhead_ratio")
        traced = [p for p in passes if p.mode == "trace" and p.done]
        if traced:
            write_spans(args.workload, args.seed, env, traced[0])
    else:
        values = end_to_end(args.workload, passes)

    jobs = [p for p in passes if p.mode != "setup"]
    attempted = sum(len(p.keys) for p in jobs) if jobs else pools.jobs_per_run(args.workload)
    failed = sum(p.failed for p in jobs) if jobs else attempted
    metrics = {}
    for metric in declared:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        else:
            problems.append(f"metric {metric['name']} was not measured")

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {env['jobs_per_pass']} jobs a pass, "
          f"{env['passes']} passes")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_ratio':32s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
