"""Steadiness and repeatability checks for the benchmark, from the repo root.

    python3 perfbench/check.py spread --workload W --seeds 1-10 [--sets 2]
    python3 perfbench/check.py repeat --workload W --seed N

``spread`` runs the untraced benchmark once per seed and prints, for each
end-to-end metric, the median and the interquartile range as a share of the
median (``statistics.quantiles(values, n=4)``) beside the metric's bound.
With ``--sets 2`` it repeats the seeds and also prints how far the second
median moved from the first, in the metric's worse direction.

``repeat`` runs the traced benchmark twice and the untraced one once on one
seed.  Every per-layer count (each metric whose unit is not ``s``, except
the timed ``trace.overhead_ratio``) and the input digest must match exactly
between the two traced runs.  It also prints the tracing overhead: the traced
mean solve time over the untraced one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(l.split("=", 1)[1] for l in lines if l.startswith("# inputs_sha256="))
    result = json.loads(lines[-1])
    return digest, result


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args, spec):
    sets = []
    for n in range(args.sets):
        values = {}
        for seed in args.seeds:
            _, result = bench(args.workload, seed, 0, spec["run_seconds"])
            print(f"set {n + 1} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        sets.append(values)
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        line = f"{args.workload:9s} {name:14s} bound {bound:.2f}"
        medians = []
        for values in sets:
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            iqr = (q3 - q1) / med
            medians.append(med)
            line += f" | median {med:.6g} iqr/median {iqr:.4f}"
            if name != "setup_s" and iqr > bound / 3:
                line += " (above bound/3)"
                ok = ok and iqr <= bound
        if len(medians) > 1:
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            line += f" | second median worse by {worse:+.4f}"
            ok = ok and worse <= bound
        print(line)
    return ok


def repeat(args, spec):
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
    runs = [bench(args.workload, args.seed, 1, spec["run_seconds"]) for _ in range(2)]
    same = runs[0][0] == runs[1][0]
    print(f"input digest {'matches' if same else 'DIFFERS'}: {runs[0][0]}")
    for name in counts:
        a, b = (r[1]["metrics"][name]["value"] for r in runs)
        same = same and a == b
        print(f"{name:34s} {a!r:>24} {b!r:>24} {'same' if a == b else 'DIFFERENT'}")
    _, plain = bench(args.workload, args.seed, 0, spec["run_seconds"])
    traced = statistics.mean(r[1]["metrics"]["trace.solve_s_mean"]["value"]
                             for r in runs)
    overhead = traced * plain["metrics"]["solves_per_s"]["value"] - 1.0
    print(f"tracing overhead on {args.workload}: {overhead:+.3%} of the mean solve time")
    return same


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("spread", "repeat"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = (spread if args.mode == "spread" else repeat)(args, spec)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
