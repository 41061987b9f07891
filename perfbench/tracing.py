"""Span tracing around the calls into each circmds layer, from outside the package.

The tracer replaces module attributes that callers look up at call time
(for example `verify.inverse` or `props.det`) with timing wrappers and puts
the originals back afterwards.  A span is named `<module>.<function>` after
the module that defines the function, whichever module calls it.  Spans are
aggregated in memory by (group, name, parent): a scan pass crosses these
boundaries about a million times, so single spans are never stored.  Self
time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# caller module -> attributes it looks up at call time; the span name comes
# from the module that defines the function.  Trivial O(n) helpers
# (transpose, diag_trace, interleaved_sums, is_nonperiodic) stay unwrapped:
# their cost would be mostly wrapper overhead.
TRACED_ATTRIBUTES = {
    "verify": (
        "run_suite", "build", "inverse", "diagonal_scaling_solve", "is_mds",
        "is_involutory", "is_orthogonal", "power_scalar",
    ),
    "props": (
        "classify", "classification_json", "build", "inverse", "det", "submatrix",
        "is_mds", "diagonal_scaling_solve", "is_involutory", "is_orthogonal",
        "power_scalar",
    ),
}


def _mds_outcome(verdict) -> str:
    if verdict.witness is None:
        return "pass"
    size = len(verdict.witness[0])
    return {1: "reject_1x1", 2: "reject_2x2"}.get(size, "reject_kxk")


def _found_outcome(pair) -> str:
    return "found" if pair is not None else "none"


# span name -> classifier of the wrapped function's return value
OUTCOMES = {
    "props.is_mds": _mds_outcome,
    "props.diagonal_scaling_solve": _found_outcome,
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    outcomes: Counter = field(default_factory=Counter)


class Tracer:
    """Aggregated spans of the calls made while `installed()` is active."""

    def __init__(self):
        self.spans: dict[tuple[str, str, str], SpanStats] = {}
        self.group = ""
        # frames are [span name, summed duration of direct children]
        self._stack: list[list] = [["", 0.0]]

    def wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        outcome = OUTCOMES.get(name)

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                key = (self.group, name, parent[0])
                stats = spans.get(key)
                if stats is None:
                    stats = spans[key] = SpanStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                stats.raised += raised
            if outcome is not None:
                stats.outcomes[outcome(result)] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap TRACED_ATTRIBUTES of `modules` (caller name -> module object)."""
        saved = []
        try:
            for caller, attrs in TRACED_ATTRIBUTES.items():
                module = modules[caller]
                for attr in attrs:
                    fn = getattr(module, attr)
                    span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(span, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def by_name(self) -> dict[str, SpanStats]:
        """Spans summed over groups and parents."""
        out: dict[str, SpanStats] = {}
        for (_, name, _), stats in self.spans.items():
            acc = out.setdefault(name, SpanStats())
            acc.calls += stats.calls
            acc.total_s += stats.total_s
            acc.self_s += stats.self_s
            acc.raised += stats.raised
            acc.outcomes.update(stats.outcomes)
        return out

    def table(self) -> list[dict]:
        """Every (group, name, parent) aggregate, for the trace dump."""
        return [
            {"group": g, "name": n, "parent": p or None, "calls": s.calls,
             "total_s": s.total_s, "self_s": s.self_s, "raised": s.raised,
             "outcomes": dict(sorted(s.outcomes.items()))}
            for (g, n, p), s in sorted(self.spans.items())
        ]


@contextmanager
def counting_field_ops(field_class):
    """Count calls of `GF2m.mul` and `GF2m.inv` by patching the class.

    Yields a dict that holds the counts once the block exits.  Matrix code
    binds `gf.mul` per call, so the patched methods are the ones it uses.
    """
    orig_mul, orig_inv = field_class.mul, field_class.inv
    mul_count, inv_count = itertools.count(), itertools.count()

    def mul(self, a, b, _tick=mul_count.__next__):
        _tick()
        return orig_mul(self, a, b)

    def inv(self, a, _tick=inv_count.__next__):
        _tick()
        return orig_inv(self, a)

    counts: dict[str, int] = {}
    field_class.mul, field_class.inv = mul, inv
    try:
        yield counts
    finally:
        field_class.mul, field_class.inv = orig_mul, orig_inv
        counts["field.mul.calls"] = next(mul_count)
        counts["field.inv.calls"] = next(inv_count)
