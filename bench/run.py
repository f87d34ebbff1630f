"""Benchmark of the ginigcn trainer and explainer.

    python3 bench/run.py --workload {train,eval_bulk,explain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The run sets up the workload several times (reporting the median set-up
time), then repeats identical rounds of calls into the program for S
seconds, checks every output, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
program's public functions are wrapped in spans and the metrics are per-layer
self times and counts per round. A record of the run (machine facts, source
revision, samples) is written to ``bench/out/``.
"""

import os

# One thread in all: the process itself, with single-threaded BLAS. Set
# before numpy loads, so the BLAS library reads it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3


def _git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    """sha256 over the program's source files, stable across checkouts."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _machine_facts(np) -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except Exception:  # older numpy: no dict form of the build config
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "eval_bulk", "explain"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "ginigcn" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'ginigcn'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            state = workload.setup()
            setup_s.append(time.perf_counter() - start)
        if tracer:
            tracer.phase = tracing.CHECK
        problems = workload.prepare(state)
        rounds, last_output = [], None
        loop_start = time.perf_counter()
        while not rounds or time.perf_counter() - loop_start < args.seconds:
            if tracer:
                tracer.begin_round()
            rnd = workload.round(state)
            if tracer:
                tracer.end_round()
            if rnd.output is not None:
                problems += workload.check(state, rnd.output)
                last_output = rnd.output
            # Checked outputs are dropped, so the live heap (and the garbage
            # collector's work) stays the same from round to round.
            rnd.output = None
            rounds.append(rnd)
    finally:
        if tracer:
            tracer.uninstall()

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    whole = [r for r in rounds if not r.failed]
    # Per-call latency percentiles, taken within each round, median over rounds.
    p50, p99 = (np.median([np.percentile(r.times_ns, [50, 99]) for r in whole], axis=0) / 1e6
                if whole else (float("nan"),) * 2)
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "mol_per_s": (statistics.median(
            workload.molecules_per_round * 1e9 / sum(r.times_ns) for r in whole)
            if whole else float("nan"), "molecules/s"),
        "heldout_mae": (workload.heldout_mae(state, last_output) if last_output is not None
                        else float("nan"), "atoms"),
    }
    if tracer:
        per_layer, trace_problems = tracer.metrics(SETUP_REPS)
        problems += trace_problems
        metrics = {name: {"value": v, "unit": "s" if name.endswith(".s") else
                          "bytes" if name.endswith(".bytes") else "count"}
                   for name, v in per_layer.items()}
        np.savez_compressed(OUT / f"trace-{args.workload}-seed{args.seed}.npz",
                            names=np.array(tracer.names), columns=np.array(tracing.COLUMNS),
                            spans=tracer.spans())
    else:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in end_to_end.items()}

    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    for e in errors[:20]:
        print(f"bench: operation failed: {e}", file=sys.stderr)
    record = {
        "args": vars(args),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "machine": _machine_facts(np),
        "setup_s": setup_s,
        "rounds": len(rounds),
        "latency_samples": sum(len(r.times_ns) for r in rounds),
        "round_op_s": [sum(r.times_ns) / 1e9 for r in rounds],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        # Recorded, not reported: see "End-to-end metrics" in bench/README.md.
        "latency_ms_p50": float(p50),
        "latency_ms_p99": float(p99),
        "problems": problems[:100],
        "errors": errors[:100],
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("# " + json.dumps({k: record[k] for k in
                             ("git_sha", "source_sha256", "machine", "rounds", "latency_samples")}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
