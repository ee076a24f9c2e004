"""Command-line interface.

Subcommands: ``estimate`` (bilinear-form estimation), ``sve``
(singular-value interval decision), ``glh-decide`` / ``glh-estimate``
(guided ground-energy problems), ``gen-kitaev`` (instance generator),
``oracle-check`` (cross-validation against the dense oracle over a
fixture directory) and ``bench`` (query-cost scaling sweep).

Every run prints a line-oriented ``key=value`` report (optionally also
written to a file).  Reports are reproducible bit-for-bit for a fixed
seed, except for the trailing ``wall_time_s`` entry.  Exit codes:
0 success, 1 result produced with warnings, 2 input error, 3 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from . import access, hamiltonian, kitaev, oracle, rand, svt, sve
from .access import QueryVector, distorted_sampler, exact_sampler
from .errors import (ConfigError, ConstructionError, InvalidSamplerError,
                     ParseError, SizeError)
from .polynomial import load_polynomial
from .svt import EstimatorConfig, QueryCounter

__all__ = ["main"]

BENCH_PROBES = 4  # svt_entry calls per bench point; its cost is the worst


class Report:
    def __init__(self):
        self._lines = []

    def add(self, key, value):
        if isinstance(value, float):
            value = repr(value)
        self._lines.append(f"{key}={value}")

    def emit(self, out_path=None):
        text = "\n".join(self._lines) + "\n"
        sys.stdout.write(text)
        if out_path:
            Path(out_path).write_text(text)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _load_sampled(path, zeta: float, seed: int):
    values = access.load_vector(path)
    if zeta > 0.0:
        return distorted_sampler(values, zeta, seed=seed)
    return exact_sampler(values)


def _common_flags(p):
    p.add_argument("--fail-prob", type=float, default=0.01)
    p.add_argument("--zeta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)


def _cmd_estimate(args) -> int:
    A = access.load_matrix(args.matrix)
    u = QueryVector(access.load_vector(args.u))
    v = _load_sampled(args.v, args.zeta, args.seed + 1)
    P = load_polynomial(args.poly)
    cfg = EstimatorConfig.for_target(args.eps, args.fail_prob, zeta=args.zeta,
                                     seed=args.seed)
    res = svt.estimate_bilinear(A, u, v, P, cfg)
    print(f"{res.value.real!r} {res.value.imag!r}")
    rep = Report()
    rep.add("command", "estimate")
    for name in ("matrix", "u", "v", "poly"):
        rep.add(f"digest_{name}", _digest(getattr(args, name)))
    rep.add("eps", args.eps)
    rep.add("fail_prob", args.fail_prob)
    rep.add("zeta", args.zeta)
    rep.add("seed", args.seed)
    rep.add("samples_per_batch", res.samples)
    rep.add("batches", res.batches)
    rep.add("total_samples", res.total_samples)
    rep.add("unique_entries", res.unique_indices)
    rep.add("degree", res.degree)
    rep.add("operator", res.operator)
    rep.add("row_fetches", res.counter.row_fetches)
    rep.add("entry_probes", res.counter.entry_probes)
    rep.add("value_re", res.value.real)
    rep.add("value_im", res.value.imag)
    rep.add("wall_time_s", res.elapsed_s)
    rep.emit(args.out)
    return 0


def _cmd_sve(args) -> int:
    t0 = time.perf_counter()
    A = access.load_matrix(args.matrix)
    guide = _load_sampled(args.guide, args.zeta, args.seed + 1)
    problem = sve.SveProblem(matrix=A, guide=guide, t1=args.t1, t2=args.t2,
                             theta1=args.theta1, theta2=args.theta2,
                             delta=args.delta)
    res = sve.decide_singular_interval(problem, fail_prob=args.fail_prob,
                                       seed=args.seed)
    print(res.decision)
    rep = Report()
    rep.add("command", "sve")
    rep.add("digest_matrix", _digest(args.matrix))
    rep.add("digest_guide", _digest(args.guide))
    for name in ("t1", "t2", "theta1", "theta2", "delta", "fail_prob",
                 "zeta", "seed"):
        rep.add(name, getattr(args, name))
    rep.add("decision", res.decision)
    rep.add("estimate_re", res.estimate.real)
    rep.add("estimate_im", res.estimate.imag)
    rep.add("decision_threshold", res.decision_threshold)
    rep.add("margin", res.margin)
    rep.add("degree", res.degree)
    rep.add("total_samples", res.estimator.total_samples)
    rep.add("row_fetches", res.estimator.counter.row_fetches)
    rep.add("entry_probes", res.estimator.counter.entry_probes)
    for w in res.warnings:
        rep.add("warning", w)
    rep.add("wall_time_s", time.perf_counter() - t0)
    rep.emit(args.out)
    return 1 if res.warnings else 0


def _glh_problem(args, need):
    H = hamiltonian.load_hamiltonian(args.hamiltonian)
    guide = _load_sampled(args.guide, args.zeta, args.seed + 1)
    kwargs = dict(hamiltonian=H, guide=guide, delta=args.delta)
    if need == "decision":
        kwargs.update(a=args.a, b=args.b)
    else:
        kwargs.update(eps=args.eps)
    return hamiltonian.GlhProblem(**kwargs)


def _cmd_glh_decide(args) -> int:
    t0 = time.perf_counter()
    problem = _glh_problem(args, "decision")
    res = hamiltonian.decide_glh(problem, fail_prob=args.fail_prob)
    print(res.decision)
    rep = Report()
    rep.add("command", "glh-decide")
    rep.add("digest_hamiltonian", _digest(args.hamiltonian))
    rep.add("digest_guide", _digest(args.guide))
    for name in ("a", "b", "delta", "fail_prob", "zeta", "seed"):
        rep.add(name, getattr(args, name))
    rep.add("decision", res.decision)
    rep.add("estimate_re", res.sve.estimate.real)
    rep.add("margin", res.sve.margin)
    rep.add("degree", res.sve.degree)
    rep.add("total_samples", res.sve.estimator.total_samples)
    rep.add("entry_probes", res.sve.estimator.counter.entry_probes)
    for w in res.sve.warnings:
        rep.add("warning", w)
    rep.add("wall_time_s", time.perf_counter() - t0)
    rep.emit(args.out)
    return 1 if res.sve.warnings else 0


def _cmd_glh_estimate(args) -> int:
    t0 = time.perf_counter()
    problem = _glh_problem(args, "estimate")
    res = hamiltonian.estimate_ground_energy(problem, fail_prob=args.fail_prob,
                                             seed=args.seed)
    print(repr(res.value))
    rep = Report()
    rep.add("command", "glh-estimate")
    rep.add("digest_hamiltonian", _digest(args.hamiltonian))
    rep.add("digest_guide", _digest(args.guide))
    for name in ("eps", "delta", "fail_prob", "zeta", "seed"):
        rep.add(name, getattr(args, name))
    rep.add("estimate", res.value)
    rep.add("interval_lo", res.interval[0])
    rep.add("interval_hi", res.interval[1])
    rep.add("scan_steps", res.scan_steps)
    rep.add("outcomes", ",".join(res.outcomes))
    rep.add("degree", res.degree)
    rep.add("margin_min", res.margin_min)
    rep.add("wall_time_s", time.perf_counter() - t0)
    rep.emit(args.out)
    return 0


def _cmd_gen_kitaev(args) -> int:
    t0 = time.perf_counter()
    circuit = kitaev.load_circuit(args.circuit)
    instance = kitaev.build_gadget(circuit, args.input, args.idle,
                                   delta_weight=args.delta_weight)
    prefix = Path(args.out_prefix)
    ham_path = prefix.with_suffix(".ham")
    guide_path = prefix.with_suffix(".guide")
    hamiltonian.save_hamiltonian(ham_path, instance.hamiltonian)
    access.save_vector(guide_path, instance.guide.base.dense())
    rep = Report()
    rep.add("command", "gen-kitaev")
    rep.add("digest_circuit", _digest(args.circuit))
    rep.add("input", "".join(str(b) for b in instance.x))
    rep.add("idle", instance.n_idle)
    rep.add("gates_total", instance.m_total)
    rep.add("delta_weight", instance.delta_weight)
    rep.add("alpha", instance.alpha)
    rep.add("alpha_prime", instance.alpha_prime)
    rep.add("beta_prime", instance.beta_prime)
    rep.add("normalization", instance.normalization)
    rep.add("no_case", instance.no_case)
    rep.add("guide_overlap_target", instance.guide_overlap_target)
    rep.add("hamiltonian_file", str(ham_path))
    rep.add("guide_file", str(guide_path))
    rep.add("wall_time_s", time.perf_counter() - t0)
    rep.emit(args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    t0 = time.perf_counter()
    fixtures = Path(args.fixtures)
    stems = sorted(p.stem for p in fixtures.glob("*.matrix"))
    if not stems:
        raise ParseError(f"no *.matrix fixtures found in {fixtures}")
    rep = Report()
    rep.add("command", "oracle-check")
    all_ok = True
    for stem in stems:
        A = access.load_matrix(fixtures / f"{stem}.matrix")
        u_vals = access.load_vector(fixtures / f"{stem}.u")
        P = load_polynomial(fixtures / f"{stem}.poly")
        u = QueryVector(u_vals)
        exact = oracle.exact_svt_apply(A.to_dense(), P, u_vals)
        n = A.ncols
        idx = np.unique(np.linspace(1, n, min(n, 16), dtype=int))
        got = np.array([svt.svt_entry(A, u, P, int(i)) for i in idx])
        err = float(np.abs(got - exact[idx - 1]).max())
        scale = max(1.0, float(np.abs(exact).max()))
        ok = err <= 1e-9 * scale
        all_ok &= ok
        rep.add(stem, f"{'PASS' if ok else 'FAIL'} maxerr={err!r}")
    rep.add("result", "PASS" if all_ok else "FAIL")
    rep.add("wall_time_s", time.perf_counter() - t0)
    rep.emit(args.out)
    return 0 if all_ok else 3


def _parse_sweep(spec: str) -> dict:
    """Grammar 's=2..4,d=1..3,n=16..256': s and d step by 1, n doubles."""
    out = {}
    for part in spec.split(","):
        try:
            key, rng = part.split("=")
            lo, hi = rng.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ParseError(f"bad sweep component '{part}'") from None
        if key not in ("s", "d", "n") or lo > hi or lo < 1:
            raise ParseError(f"bad sweep component '{part}'")
        if key == "n":
            vals, v = [], lo
            while v <= hi:
                vals.append(v)
                v *= 2
        else:
            vals = list(range(lo, hi + 1))
        out[key] = vals
    for key, default in (("s", [2, 3, 4]), ("d", [1, 2, 3]), ("n", [64])):
        out.setdefault(key, default)
    return out


def bench_point(s: int, d: int, n: int, seed: int) -> dict:
    """Worst per-call query cost of svt_entry over BENCH_PROBES entries of
    a random instance."""
    rng = np.random.default_rng(seed)
    A = rand.random_sparse_matrix(rng, n, n, s)
    u = QueryVector(rand.random_unit_vector(rng, n))
    P = rand.random_even_polynomial(rng, d)
    idx = rng.integers(1, n + 1, size=BENCH_PROBES)
    worst = QueryCounter()
    for i in idx:
        counter = QueryCounter()
        svt.svt_entry(A, u, P, int(i), counter=counter)
        if counter.entry_probes > worst.entry_probes:
            worst = counter
    bound = s ** (2 * d)
    return {"s": s, "d": d, "n": n, "row_fetches": worst.row_fetches,
            "entry_probes": worst.entry_probes, "bound": bound,
            "ratio": worst.entry_probes / bound}


def _cmd_bench(args) -> int:
    t0 = time.perf_counter()
    sweep = _parse_sweep(args.sweep)
    rows = []
    for s in sweep["s"]:
        for d in sweep["d"]:
            for n in sweep["n"]:
                rows.append(bench_point(s, d, n, args.seed))
    csv_lines = ["s,d,n,row_fetches,entry_probes,bound,ratio"]
    for r in rows:
        csv_lines.append(
            f"{r['s']},{r['d']},{r['n']},{r['row_fetches']},"
            f"{r['entry_probes']},{r['bound']},{r['ratio']!r}")
    csv_text = "\n".join(csv_lines) + "\n"
    rep = Report()
    rep.add("command", "bench")
    rep.add("sweep", args.sweep)
    rep.add("seed", args.seed)
    rep.add("points", len(rows))
    rep.add("cost_constant", max(r["ratio"] for r in rows))
    rep.add("wall_time_s", time.perf_counter() - t0)
    rep.emit(None)
    sys.stdout.write(csv_text)
    if args.out:
        Path(args.out).write_text(csv_text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="svtkit",
        description="classical singular value transformation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate v^dag P(sqrt(A^dag A)) u")
    p.add_argument("--matrix", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--eps", type=float, required=True)
    _common_flags(p)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("sve", help="decide singular value in interval")
    p.add_argument("--matrix", required=True)
    p.add_argument("--guide", required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--t2", type=float, required=True)
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--theta2", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _common_flags(p)
    p.set_defaults(fn=_cmd_sve)

    p = sub.add_parser("glh-decide", help="decide ground energy below a / above b")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--guide", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _common_flags(p)
    p.set_defaults(fn=_cmd_glh_decide)

    p = sub.add_parser("glh-estimate", help="estimate the ground energy")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--guide", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    _common_flags(p)
    p.set_defaults(fn=_cmd_glh_estimate)

    p = sub.add_parser("gen-kitaev", help="generate a guided instance from a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--input", required=True, help="input bit string")
    p.add_argument("--idle", type=int, required=True,
                   help="pre-idle length (power of two)")
    p.add_argument("--delta-weight", type=float, default=None)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_gen_kitaev)

    p = sub.add_parser("oracle-check", help="cross-validate fixtures against the dense oracle")
    p.add_argument("--fixtures", required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("bench", help="query-cost scaling sweep")
    p.add_argument("--sweep", default="s=2..4,d=1..3,n=16..64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(fn=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError, OSError, ConfigError, SizeError,
            ConstructionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidSamplerError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
