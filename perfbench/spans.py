"""Spans around svtkit's public functions, for the traced run.

Each wrapped call records a span (name, start, end, self time, parent span,
solve index) in memory.  Self time is the span's duration minus the wrapped
child spans inside it.  A function is wrapped in every module namespace it
is called through, because ``sve`` and ``hamiltonian`` import some of them
by name.  A wrapped function that no longer exists is listed in ``missing``
and the metrics that need it are reported as null.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from dataclasses import dataclass
from time import perf_counter


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _request_note(tracer, args, kwargs, out):
    spec = _arg(args, kwargs, 0, "spec")
    key = (spec, kwargs.get("degree_cap"), kwargs.get("grid"), args[1:])
    repeat = key in tracer.seen_specs
    tracer.seen_specs.add(key)
    return {"degree": out.degree, "repeat": repeat}


def _contract_note(tracer, args, kwargs, out):
    return {"unique": out.unique_indices, "samples": out.total_samples}


def _decide_note(tracer, args, kwargs, out):
    problem = _arg(args, kwargs, 0, "problem")
    gap = abs(out.estimate.real - problem.decision_threshold)
    return {"margin": gap / problem.eps}


# (module, attribute, span name, note taken from the call's result)
WRAPS = [
    ("svtkit.polynomial", "build_threshold", "build", None),
    ("svtkit.polynomial", "build_sign_approx", "sign_approx", None),
    ("svtkit.polynomial", "verify_threshold", "certify",
     lambda t, a, k, out: {"passed": out.passed}),
    ("svtkit.sve", "build_threshold_cached", "request", _request_note),
    ("svtkit.svt", "svt_entries", "apply", None),
    ("svtkit.svt", "svt_entry", "apply", None),
    ("svtkit.svt", "estimate_bilinear", "contract", _contract_note),
    ("svtkit.sve", "estimate_bilinear", "contract", _contract_note),
    ("svtkit.access", "SampledVector.sample_many", "sample",
     lambda t, a, k, out: {"size": int(_arg(a, k, 2, "size"))}),
    ("svtkit.sve", "decide_singular_interval", "decide", _decide_note),
    ("svtkit.hamiltonian", "decide_singular_interval", "decide", _decide_note),
    ("svtkit.hamiltonian", "assemble_sparse", "assemble", None),
    ("svtkit.hamiltonian", "estimate_ground_energy", "scan", None),
]

# Span names each per-layer metric needs.  A time is a self time, so it also
# needs the spans nested inside it; otherwise their time would land in it.
NEEDS = {
    "polynomial.build_s": {"build", "sign_approx", "certify"},
    "polynomial.builds": {"build"},
    "polynomial.requests": {"request"},
    "polynomial.hit_ratio": {"request", "build"},
    "polynomial.repeat_spec_ratio": {"request"},
    "polynomial.certify_attempts": {"certify"},
    "polynomial.certify_pass_ratio": {"certify"},
    "polynomial.sign_approx_s": {"sign_approx"},
    "polynomial.certify_s": {"certify"},
    "polynomial.degree_p50": {"request"},
    "svt.apply_s": {"apply"},
    "svt.apply_calls": {"apply"},
    "svt.contract_s": {"contract", "apply", "sample"},
    "access.sample_s": {"sample"},
    "access.samples": {"sample"},
    "svt.unique_ratio": {"contract"},
    "sve.decide_s": {"decide", "request", "contract", "build", "sign_approx",
                     "certify", "apply", "sample"},
    "sve.decisions": {"decide"},
    "sve.margin_min": {"decide"},
    "hamiltonian.assemble_s": {"assemble"},
    "hamiltonian.scan_s": {"scan", "assemble", "decide"},
    "hamiltonian.decisions_per_solve": {"scan", "decide"},
    "hamiltonian.inconsistent": {"scan"},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    parent: int | None
    solve: int | None
    note: dict | None
    error: str | None


class Tracer:
    """Installs the wrappers of WRAPS and collects their spans."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.seen_specs: set = set()  # survives reset, so repeats count from set-up
        self.missing: list[str] = []       # wrapped functions that no longer exist
        self.missing_spans: set[str] = set()
        self.solve: int | None = None
        self._open: list[list] = []   # [span index, child seconds]
        self._restore: list = []

    def install(self):
        for module_name, attr, name, note in WRAPS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                self.missing_spans.add(name)
                continue
            setattr(owner, fn_name, self._wrap(fn, name, note))
            self._restore.append((owner, fn_name, fn))

    def uninstall(self):
        for owner, fn_name, fn in reversed(self._restore):
            setattr(owner, fn_name, fn)
        self._restore.clear()

    def reset(self):
        """Drop the spans recorded so far (the untimed warm-up)."""
        assert not self._open, "reset inside an open span"
        self.spans.clear()

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            parent = tracer._open[-1][0] if tracer._open else None
            tracer._open.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, name, start, perf_counter(), parent, None,
                              type(exc).__name__)
                raise
            end = perf_counter()
            info = note(tracer, args, kwargs, out) if note else None
            tracer._close(frame, name, start, end, parent, info, None)
            return out

        return wrapper

    def _close(self, frame, name, start, end, parent, note, error):
        self._open.pop()
        duration = end - start
        if self._open:
            self._open[-1][1] += duration
        self.spans[frame[0]] = Span(name, start, end, duration - frame[1], parent,
                                    self.solve, note, error)

    @staticmethod
    def span_cost(calls: int = 20_000) -> float:
        """Seconds one wrapper adds to a call, timed on a no-op."""
        def noop(*args, **kwargs):
            return None

        wrapped = Tracer()._wrap(noop, "noop", None)
        times = []
        for fn in (noop, wrapped):
            start = perf_counter()
            for _ in range(calls):
                fn(1, size=2)
            times.append(perf_counter() - start)
        return max(0.0, (times[1] - times[0]) / calls)

    def metrics(self, solves: int, window: int, costs: list) -> dict:
        """Per-layer metrics of a traced run of ``solves`` solves.

        Times are self seconds per solve over every solve.  Counts, ratios
        and distributions cover the first ``window`` solves, whose inputs are
        the same in every run of a seed, so they repeat exactly.  ``costs``
        holds (entry probes, row fetches) for each solve.  A ratio whose base
        is 0 reads 0.
        """
        spans = [s for s in self.spans if s.solve is not None]
        win = [s for s in spans if s.solve < window]

        def self_s(*names):
            return sum(s.self_s for s in spans if s.name in names) / solves

        def count(name):
            return sum(1 for s in win if s.name == name)

        def notes(name, key):
            return [s.note[key] for s in win if s.name == name and s.note]

        def ratio(num, den):
            return num / den if den else 0.0

        def inside(span, name):
            parent = span.parent
            while parent is not None:
                if self.spans[parent].name == name:
                    return True
                parent = self.spans[parent].parent
            return False

        built = {s.parent for s in win if s.name == "build"}
        requests = [i for i, s in enumerate(self.spans) if s.name == "request"
                    and s.solve is not None and s.solve < window]
        hits = sum(1 for i in requests if i not in built)
        passed = notes("certify", "passed")
        degrees = notes("request", "degree")
        margins = notes("decide", "margin")
        contract = [s.note for s in win if s.name == "contract" and s.note]
        scans = [s for s in win if s.name == "scan"]
        in_scan = sum(1 for s in win if s.name == "decide" and inside(s, "scan"))
        out = {
            "polynomial.build_s": self_s("build"),
            "polynomial.builds": count("build") / window,
            "polynomial.requests": len(requests) / window,
            "polynomial.hit_ratio": ratio(hits, len(requests)),
            "polynomial.repeat_spec_ratio": ratio(sum(notes("request", "repeat")),
                                                  len(requests)),
            "polynomial.certify_attempts": len(passed) / window,
            "polynomial.certify_pass_ratio": ratio(sum(passed), len(passed)),
            "polynomial.sign_approx_s": self_s("sign_approx"),
            "polynomial.certify_s": self_s("certify"),
            "polynomial.degree_p50": statistics.median(degrees) if degrees else 0.0,
            "svt.apply_s": self_s("apply"),
            "svt.apply_calls": count("apply") / window,
            "svt.entry_probes": sum(c[0] for c in costs[:window]) / window,
            "svt.row_fetches": sum(c[1] for c in costs[:window]) / window,
            "svt.contract_s": self_s("contract"),
            "access.sample_s": self_s("sample"),
            "access.samples": sum(notes("sample", "size")) / window,
            "svt.unique_ratio": ratio(sum(c["unique"] for c in contract),
                                      sum(c["samples"] for c in contract)),
            "sve.decide_s": self_s("decide"),
            "sve.decisions": count("decide") / window,
            "sve.margin_min": min(margins) if margins else 0.0,
            "hamiltonian.assemble_s": self_s("assemble"),
            "hamiltonian.scan_s": self_s("scan"),
            "hamiltonian.decisions_per_solve": in_scan / window,
            "hamiltonian.inconsistent": sum(1 for s in scans
                                            if s.error == "InconsistencyError")
            / window,
            "trace.spans": len(win) / window,
        }
        for metric, needs in NEEDS.items():
            if needs & self.missing_spans:
                out[metric] = None
        return out
