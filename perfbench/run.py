"""pillarmix benchmark.

    python3 perfbench/run.py --workload ptq_eval --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json:

- setup_s: the median of several set-ups (data generation, pillarizing,
  model build, calibration: everything before the timed loop); one runs
  before the loop, the others on throwaway instances between passes;
- throughput_per_s: work items per second through the entry point, from the
  median pass over the calls of one group (for ptq_eval, one call of each
  plan); the items are plan x scene evaluations (ptq_eval), training
  samples (qat_finetune) and (n, seed) points (calib_sweep);
- peak_rss_mb: peak resident memory of this process after the timed loop;
- success_rate: 1 - failed / attempted, where the operations and the
  correctness checks after the loop are attempted;
- fp16_sqnr_db, int8_sqnr_db, mixed_sqnr_db: median per-scene SQNR of the
  head outputs against FP32 under FP16, INT8 and "FP16: 1", computed after
  the timed loop (see workloads._quality).

Both times are host-normalized: the benchmark runs hostprobe.probe() before
and after every set-up and every pass, and scales each by
``hostprobe.REFERENCE_S`` over the mean of its two probes, so that they read
as on a host where one probe takes REFERENCE_S seconds. Shared hosts drift
in speed by up to 2x over minutes; the probe slows with them and the program
does not affect the probe. The raw wall-clock figures and the probe times
are in the record.

With ``--trace 1`` the metrics are the per-layer metrics, derived from spans
recorded around pillarmix's public functions (see tracing.py).

The line before the result, and the file
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, hold the full record:
environment, median and tail latency, checks and output digests. A traced
run also writes its spans to ``perfbench/out/<workload>-seed<seed>.spans.npz``.

Smoke test of all three workloads at tiny sizes:
``python3 -m pytest -q perfbench/test_smoke.py``.
"""

from __future__ import annotations

import os

# BLAS would start one thread per core; pin it before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import hostprobe

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

# setup_s is the median of this many set-ups, spread evenly over the run so
# that they meet the same quiet and busy stretches as the timed calls
SETUP_REPEATS = 9
TRACE_BASELINE_SHARE = 1 / 3  # share of a traced run spent measuring untraced throughput
PERCENTILES = (50, 75, 90, 95, 99)


def tail_latency(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it (ms)."""
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"unit": "ms", "samples": n, "median": statistics.median(ordered) * 1e3,
           "tail_percentile": None, "tail": None}
    for p in PERCENTILES:
        if n - math.ceil(p / 100 * n) >= 10:
            out["tail_percentile"] = p
            out["tail"] = ordered[math.ceil(p / 100 * n) - 1] * 1e3
    return out


def normalized(elapsed: float, probe_before: float, probe_after: float) -> float:
    """``elapsed`` as it would read on the reference host (see hostprobe)."""
    return elapsed * hostprobe.REFERENCE_S / ((probe_before + probe_after) / 2)


def timed_loop(wl, seconds: float, tracer=None, first_op: int = 0, between=None, between_count: int = 0) -> dict:
    """Run calls for at least ``seconds``, in whole passes over the group.

    Each call is timed on its own; checks run after the clock stops. A host
    probe runs before the first pass and after every pass. With a tracer,
    each call is one root span and its spans carry the call's id.
    ``between`` is called ``between_count`` times, spread evenly over the
    run, between passes and outside the timed calls.
    Returns latencies, work items per second from the median host-normalized
    pass, and operation counts.
    """
    latencies, problems, passes, norm = [], [], [], []
    probes = [hostprobe.probe()]
    before = probes[0]
    attempted = failed = 0
    started = time.perf_counter()
    deadline = started + seconds
    interval = seconds / (between_count + 1)
    done_between = 0
    k = first_op
    while not passes or time.perf_counter() < deadline:
        if done_between < between_count and time.perf_counter() >= started + interval * (done_between + 1):
            between()
            done_between += 1
            before = hostprobe.probe()
        pass_time = 0.0
        for _ in range(wl.group):
            if tracer is not None:
                tracer.current_op = k
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(f"bench.{wl.entry}"):
                        result = wl.run(k)
                else:
                    result = wl.run(k)
                elapsed = time.perf_counter() - start
                bad, found = wl.check(k, result)
            except Exception as exc:  # an operation that raises counts as failed
                elapsed = time.perf_counter() - start
                bad, found = wl.ops_per_call, [f"op {k}: {type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.current_op = -1
            latencies.append(elapsed)
            pass_time += elapsed
            attempted += wl.ops_per_call
            failed += bad
            problems.extend(found)
            k += 1
        after = hostprobe.probe()
        passes.append(pass_time)
        norm.append(normalized(pass_time, before, after))
        probes.append(after)
        before = after
    for _ in range(between_count - done_between):
        between()
    items = wl.items_per_call * wl.group
    return {"latencies": latencies, "rate": items / statistics.median(norm),
            "raw_rate": items / statistics.median(passes), "probes": probes,
            "attempted": attempted, "failed": failed, "problems": problems, "calls": k - first_op}


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = REPO / ".git" / "HEAD"
    commit = "unknown: not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = REPO / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
            else:
                packed = REPO / ".git" / "packed-refs"
                lines = packed.read_text().splitlines() if packed.is_file() else []
                commit = next((l.split()[0] for l in lines if l.endswith(" " + ref[5:])), ref)
    source = hashlib.sha256()
    for path in sorted((REPO / "src" / "pillarmix").rglob("*.py")):
        source.update(path.relative_to(REPO).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """One benchmark run; returns (full record, result line)."""
    import tracing
    import workloads

    sizes = sizes or workloads.Sizes()
    wl = workloads.WORKLOADS[name]()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed)}

    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl.setup(seed, sizes, tracer.span)
        finally:
            tracer.restore()
        baseline = timed_loop(wl, seconds * TRACE_BASELINE_SHARE)
        tracer.install()
        try:
            loop = timed_loop(wl, seconds * (1 - TRACE_BASELINE_SHARE), tracer, first_op=baseline["calls"])
        finally:
            tracer.restore()
        derived = tracing.derive(tracer, loop["attempted"], baseline["rate"] / loop["rate"])
        for key in ("attempted", "failed", "problems"):
            loop[key] = baseline[key] + loop[key]
    else:
        setup_times, setup_norm = [], []

        def timed_setup(target):
            before = hostprobe.probe()
            start = time.perf_counter()
            target.setup(seed, sizes)
            elapsed = time.perf_counter() - start
            setup_times.append(elapsed)
            setup_norm.append(normalized(elapsed, before, hostprobe.probe()))

        timed_setup(wl)
        loop = timed_loop(wl, seconds, between=lambda: timed_setup(workloads.WORKLOADS[name]()),
                          between_count=SETUP_REPEATS - 1)
        record["setup"] = {"unit": "s", "raw": setup_times, "normalized": setup_norm,
                           "raw_median": statistics.median(setup_times)}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    finish = wl.finish()
    check_failures = [label for label, ok in finish["checks"] if not ok]
    attempted = loop["attempted"] + len(finish["checks"])
    failed = loop["failed"] + len(check_failures)
    record.update({
        "latency": tail_latency(loop["latencies"]),
        "latencies_ms": [t * 1e3 for t in loop["latencies"]],
        "operations": {"calls": loop["calls"], "attempted": loop["attempted"], "failed": loop["failed"],
                       "work_items_per_call": wl.items_per_call, "throughput_per_s": loop["rate"],
                       "raw_throughput_per_s": loop["raw_rate"]},
        "host_probe": {"unit": "s", "reference_s": hostprobe.REFERENCE_S, "samples": loop["probes"],
                       "median": statistics.median(loop["probes"])},
        "problems": loop["problems"][:20] + check_failures,
        "checks": [[label, bool(ok)] for label, ok in finish["checks"]],
        "digests": finish["digests"],
        "quality": {k: v for k, v in finish.items() if k not in ("checks", "digests")},
    })

    if trace:
        if not (derived["checks"]["nested"] and derived["checks"]["self_le_wall"]):
            failed += 1
            record["problems"].append(f"trace integrity: {derived['checks']}")
        attempted += 1
        spans_path = OUT / f"{name}-seed{seed}.spans.npz"
        tracer.write(spans_path)
        record["tracing"] = {"spans_file": spans_path.relative_to(REPO).as_posix(),
                           "untraced": derived["untraced"], "missing_names": derived["missing_names"],
                           "checks": derived["checks"], "traced_rate": loop["rate"],
                           "untraced_rate": baseline["rate"]}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in derived["metrics"].items()}
    else:
        sqnr = finish["sqnr"]
        metrics = {
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "throughput_per_s": {"value": loop["rate"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "fp16_sqnr_db": {"value": sqnr["fp16"], "unit": "dB"},
            "int8_sqnr_db": {"value": sqnr["int8"], "unit": "dB"},
            "mixed_sqnr_db": {"value": sqnr["mixed"], "unit": "dB"},
        }
    # the workload's own names for its untraced rate and outcome, as record data
    record["named"] = {wl.rate_name: {"value": (baseline if trace else loop)["rate"], "unit": "1/s"},
                       "error_rate": {"value": failed / attempted, "unit": "ratio"}}
    if "final_loss" in finish:
        record["named"]["final_loss"] = {"value": finish["final_loss"], "unit": "loss"}
    record["metrics"] = metrics
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("ptq_eval", "qat_finetune", "calib_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (REPO / "src" / "pillarmix" / "__init__.py").is_file():
        print(f"perfbench: no pillarmix sources under {REPO / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
