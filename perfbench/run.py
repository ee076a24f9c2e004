"""svtkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload estimate|sve|glh|entry --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; svtkit is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` a separate run carries the per-layer
metrics.  Lines before it, starting with ``#``, give every metric by name
and unit, the environment and the sha256 of the generated inputs.  The full
record, spans included, goes to ``perfbench/out/``.  README.md explains the
workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate", "sve", "glh", "entry")
# Set-up is timed in this many fresh processes (the measuring one included)
# and reported as their median; a glh set-up builds 16 filters cold.
SETUP_RUNS = {"estimate": 5, "sve": 5, "glh": 3, "entry": 5}
DEADLINE_S = 170.0
HELD_OUT_SEED = 424242  # reserved for checking claims; never used to tune
BLAS_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def run_worker(mode, args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), str(args.trace)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} process exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values):
    """Nearest-rank 90th percentile: at least 90% of the values are at or
    below it, so a run of 100 solves has ten beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def plausible(failed, attempted, fail_prob):
    """False when ``failed`` failures in ``attempted`` solves are less likely
    than 1e-6 under the promised per-solve failure probability."""
    if failed == 0:
        return True
    if fail_prob == 0.0:
        return False
    def log_pmf(k):
        return (math.lgamma(attempted + 1) - math.lgamma(k + 1)
                - math.lgamma(attempted - k + 1) + k * math.log(fail_prob)
                + (attempted - k) * math.log1p(-fail_prob))
    tail = sum(math.exp(log_pmf(k)) for k in range(failed, attempted + 1))
    return tail >= 1e-6


def environment(measure):
    commit = "unavailable (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "svtkit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), **measure["versions"],
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


def end_to_end(measure, setups):
    durations = measure["durations"]
    return {
        "solves_per_s": len(durations) / sum(durations),
        "solve_s_p50": statistics.median(durations),
        "solve_s_p90": p90(durations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measure["peak_rss_mb"],
        "success_rate": 1.0 - measure["failed"] / measure["attempted"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "svtkit" / "__init__.py").is_file():
        print(f"perfbench: no svtkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = run_worker("measure", args, deadline)
        if args.trace:
            metrics, declared = measure["layers"], spec["per_layer"]
        else:
            setups = [measure["setup_s"]] + [
                run_worker("setup", args, deadline)["setup_s"]
                for _ in range(SETUP_RUNS[args.workload] - 1)]
            metrics, declared = end_to_end(measure, setups), spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = measure["attempted"], measure["failed"]
    correct = plausible(failed, attempted, measure["fail_prob"])
    env = environment(measure)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "held_out_seed": HELD_OUT_SEED, "env": env,
              "inputs_sha256": measure["digest"], "correct": correct,
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted, "metrics": metrics,
              "worker": {k: v for k, v in measure.items() if k != "versions"}}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} held_out_seed={HELD_OUT_SEED}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# inputs_sha256={measure['digest']}")
    beyond = sum(1 for d in measure["durations"] if d > p90(measure["durations"]))
    print(f"# solves={attempted} failed={failed} error_rate={failed / attempted:.6g} "
          f"(ratio) beyond_p90={beyond} min_solves={measure['min_solves']}")
    if measure.get("missing"):
        print("# missing wrapped functions: " + ", ".join(measure["missing"]))
    for m in declared:
        value = metrics[m["name"]]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"# {m['name']} = {shown} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]],
                                              "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
