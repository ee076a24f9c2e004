"""One benchmark process, started by run.py.

    python3 perfbench/worker.py setup|measure WORKLOAD SEED SECONDS TRACE

Both modes time set-up: importing svtkit (with numpy and scipy) plus one
warm-up solve; generating inputs is not timed.  ``measure`` then runs the
closed loop: one caller, the next solve starts when the previous one
returns, until the solves add up to SECONDS and at least the workload's
``min_solves`` are done.  Only the solve calls are timed.  Outputs are
checked against the oracle after the loop.  With TRACE 1 the loop runs with
the wrappers of spans.py installed.  The last line of stdout is one JSON
object.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    mode, name, seed, seconds, trace = argv[1], argv[2], int(argv[3]), \
        float(argv[4]), argv[5] == "1"
    t0 = time.perf_counter()
    import numpy
    import scipy
    import svtkit
    import workloads
    import_s = time.perf_counter() - t0

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(svtkit.__file__).resolve().parent.parent != src:
        sys.exit(f"svtkit imported from {svtkit.__file__}, not from {src}")

    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()  # before the warm-up, so it sees which specs repeat

    wl = workloads.WORKLOADS[name](seed)
    warm = wl.warmup()
    t = time.perf_counter()
    try:
        wl.solve(warm)
    except wl.expected_errors:
        pass
    warmup_s = time.perf_counter() - t
    result = {"setup_s": import_s + warmup_s, "import_s": import_s,
              "warmup_s": warmup_s}
    if mode == "setup":
        print(json.dumps(result))
        return

    if tracer:
        tracer.reset()
    insts, outs, durations = [], [], []
    timed = 0.0
    while timed < seconds or len(durations) < wl.min_solves:
        i = len(durations)
        inst = wl.instance(i)
        if tracer:
            tracer.solve = i
        t = time.perf_counter()
        try:
            out = wl.solve(inst)
        except wl.expected_errors:
            out = None
        dt = time.perf_counter() - t
        if tracer:
            tracer.solve = None
        timed += dt
        durations.append(dt)
        insts.append(inst)
        outs.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    failed = [i for i, (inst, out) in enumerate(zip(insts, outs))
              if not wl.check(inst, out)]
    result.update(
        durations=durations, attempted=len(durations), failed=len(failed),
        failed_solves=failed[:20], fail_prob=wl.fail_prob,
        min_solves=wl.min_solves, peak_rss_mb=peak_rss_mb, digest=wl.digest(),
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__})
    if tracer:
        costs = [wl.costs(out) if out is not None else (0, 0) for out in outs]
        layers = tracer.metrics(len(durations), wl.min_solves, costs)
        layers["trace.solve_s_mean"] = timed / len(durations)
        spans_per_solve = len(tracer.spans) / len(durations)
        layers["trace.overhead_ratio"] = (spans_per_solve * tracer.span_cost()
                                          / layers["trace.solve_s_mean"])
        result.update(layers=layers, missing=tracer.missing, spans=[
            [s.name, s.start - t0, s.end - t0, s.self_s, s.parent, s.solve, s.error]
            for s in tracer.spans])
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
