"""One pass of a perfbench run, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWN_TIME

`run.py` starts a fresh worker for every pass over the run's jobs, so the
package's memo, matrix caches and `lru_cache`s start empty each time.  The
worker imports qspecht from `src/`, draws the run's jobs from the seed and
reports its set-up time, counted from SPAWN_TIME, a `time.monotonic()`
reading taken just before the interpreter was started.  MODE `setup` stops
there; `run` and `trace` (with the hooks of `tracing.py`) then run the jobs
back to back.  Each job is timed on its own; its output is checked right
after, outside the timed region.

Around the jobs the worker times `calibrate()`, a fixed loop of its own, so
that `run.py` can scale every time to a reference CPU speed.

Protocol: one JSON object per line on stdout, in this order:
`{"ready": setup_s, "calib_s": ..}`, one
`{"job": index, "latency_s": .., "error": .., "calib_s": ..}` per job (error is
null when the output is correct; calib_s is timed just before the job), then
`{"done": {"peak_rss_mb": .., "calib_s": .., "trace": .., "spans": ..}}`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "build_digests.json"
CALIBRATION_ROUNDS = 120


def calibrate() -> float:
    """Seconds a fixed reference loop takes: the speed the CPU gives jobs now.

    The loop does what the package spends its time on, without calling it:
    sparse polynomial products in dicts, exact rational arithmetic, and
    building and hashing small tuples.  The cyclic collector is off while it
    runs, so the package's heap does not slow it down.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        seen = set()
        for i in range(CALIBRATION_ROUNDS):
            poly = {e: (e * 7 + i) % 11 - 5 for e in range(-4, 5)}
            product: dict = {}
            for e1, c1 in poly.items():
                for e2, c2 in poly.items():
                    product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
            total = Fraction(0)
            for c in product.values():
                total += Fraction(c, c % 5 + 2)
            seen.add((total, tuple(sorted(product.items()))))
        return time.perf_counter() - start
    finally:
        gc.enable()


def matrix_digest(m) -> str:
    return hashlib.sha256(str(m).encode()).hexdigest()[:16]


def two_row_shapes(Q, n: int):
    return [Q.Partition((n - k, k) if k else (n,)) for k in range(n // 2 + 1)]


# --- build: every h_i of a multi-row shape -----------------------------------

def build_input(Q, shape: str, p):
    return Q.Partition.parse(shape), Q.GENERIC if p is None else Q.root_of_unity(p)


def build_run(Q, job):
    shape, domain = job
    return [Q.generator_matrix(shape, i, domain) for i in range(1, shape.n)]


def build_check(Q, key, job, matrices, reference):
    want = reference[key]
    got = [matrix_digest(m) for m in matrices]
    bad = [i + 1 for i, (a, b) in enumerate(zip(got, want)) if a != b]
    if len(got) != len(want) or bad:
        return f"str(h_i) differs from the reference for i in {bad or 'count'}"
    return None


# --- verify: the CLI verify command, in-process -------------------------------

def verify_input(Q, shape: str, p):
    return ["verify", "--shape", shape, "--json"]


def verify_run(Q, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = Q.cli.main(argv)
    return code, buf.getvalue()


def verify_check(Q, key, argv, output, reference):
    code, text = output
    result = json.loads(text).get("result")
    if code != 0 or result != "pass":
        return f"verify exited {code} with result {result!r}"
    return None


# --- oracle: full two-row root-of-unity analysis of one (lambda, p) ----------

def oracle_input(Q, shape: str, p):
    lam = Q.Partition.parse(shape)
    candidates = [mu for mu in two_row_shapes(Q, lam.n) if mu != lam]
    return lam, p, candidates


def oracle_run(Q, job):
    lam, p, candidates = job
    report = Q.analyze(lam, p)
    p_root = Q.enumerate_p_root_standard(lam, p)
    hits, generators = [], ()
    for mu in candidates:
        if not Q.is_p_regular(mu, p):
            continue
        kernel = Q.find_submodule_generators(lam, mu, p)
        if kernel:
            hits.append(mu)
            if mu == report.submodule_shape:
                generators = kernel
    closure = Q.submodule_dimension(lam, generators, p) if report.reducible else None
    return report, len(p_root), hits, closure


def oracle_check(Q, key, job, output, reference):
    report, p_root_count, hits, closure = output
    expected_hits = [report.submodule_shape] if report.reducible else []
    if hits != expected_hits:
        return f"oracle hits {[str(h) for h in hits]}, expected {[str(h) for h in expected_hits]}"
    if p_root_count != report.quotient_dim:
        return f"{p_root_count} p-root tableaux, quotient dimension {report.quotient_dim}"
    if report.reducible:
        if closure != report.submodule_dim:
            return f"closure dimension {closure}, submodule dimension {report.submodule_dim}"
        if report.submodule_dim + report.quotient_dim != report.specht_dim:
            return "submodule + quotient dimensions differ from the Specht dimension"
    return None


WORKLOADS = {
    "build": (build_input, build_run, build_check),
    "verify": (verify_input, verify_run, verify_check),
    "oracle": (oracle_input, oracle_run, oracle_check),
}


def load_reference(workload: str) -> dict:
    if workload != "build":
        return {}
    return json.loads(REFERENCE.read_text())


def main(argv: list[str]) -> int:
    workload, seed, mode, spawn_time = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import qspecht as Q
    import qspecht.cli  # noqa: F401  (the verify jobs call Q.cli.main)

    import pools

    make_input, run_job, check_job = WORKLOADS[workload]
    keys = pools.draw(workload, seed)
    jobs = [make_input(Q, *pools.parse_key(key)) for key in keys]
    setup_s = time.monotonic() - spawn_time

    proto = sys.stdout

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": setup_s, "calib_s": calibrate()})
    if mode == "setup":
        return 0
    reference = load_reference(workload)
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.install(Q)
        run_job = tracer.span("bench.job", run_job)

    for index, (key, job) in enumerate(zip(keys, jobs)):
        if tracer is not None:
            tracer.job = index
        error = None
        calib = calibrate()
        start = time.perf_counter()
        try:
            output = run_job(Q, job)
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            latency = time.perf_counter() - start
            traceback.print_exc()
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            latency = time.perf_counter() - start
            try:
                error = check_job(Q, key, job, output, reference)
            except Exception as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
            del output
        send({"job": index, "latency_s": latency, "error": error, "calib_s": calib})

    done = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "calib_s": calibrate()}
    if tracer is not None:
        done["trace"] = tracer.summary()
        done["spans"] = tracer.spans
    send({"done": done})
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
