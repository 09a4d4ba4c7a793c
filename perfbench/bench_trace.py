"""Span recording around the library's module-level names.

The library has no instrumentation of its own, so the traced run swaps
selected module attributes (``g2.power_rank_sequences``,
``_kernels.rank_batch``, ``FieldTables.embed``, ...) for wrappers that
record a span per call and restores them afterwards.  Only names the
library looks up at call time can be traced this way; names a module
imported with ``from ... import`` are patched in the importing module.

A span is a dict with ``id``, ``name``, ``start``, ``end`` (perf_counter
seconds, CLOCK_MONOTONIC on Linux, so comparable across forked
processes), ``parent``, ``pass_id``, ``tag`` and ``attrs`` (counts
measured at the call).  Spans stay in memory; the caller writes them out.

Census chunks run in forked pool workers when ``workers > 1``.  The
wrappers are installed before the fork, so the workers record spans
too; the chunk wrapper hands them back inside the pickled chunk result
(see ``_FromWorker``), and the parent adopts them while unpickling.
"""

from __future__ import annotations

import functools
import os
import time

from kirillov import _kernels, fields, g2, intpoly, typea

_active: "Recorder | None" = None  # the recorder that adopts worker spans


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id = None
        self._stack: list[str] = []
        self._serial = 0

    def open(self, name: str, tag: str | None = None) -> dict:
        self._serial += 1
        span = {"id": f"{os.getpid()}:{self._serial}", "name": name,
                "tag": tag, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "pass_id": self.pass_id, "attrs": {}}
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def take_local(self) -> list[dict]:
        """Remove and return the spans this process recorded.

        A forked worker starts with a copy of the parent's spans; only its
        own (id prefixed with its pid) go back.
        """
        prefix = f"{os.getpid()}:"
        mine = [s for s in self.spans if s["id"].startswith(prefix)]
        self.spans = [s for s in self.spans if not s["id"].startswith(prefix)]
        return mine


class _FromWorker(dict):
    """A chunk tally that carries the worker's spans through pickling."""

    def __init__(self, tally: dict, spans: list[dict]):
        super().__init__(tally)
        self.spans = spans

    def __reduce__(self):
        return (_adopt, (dict(self), self.spans))


def _adopt(tally: dict, spans: list[dict]) -> dict:
    if _active is not None:
        _active.spans.extend(spans)
    return tally


# attribute functions: (args, kwargs, result) -> counts for the span


def _rank_attrs(args, kwargs, result):
    mats = args[0]
    bsize, rows, cols = mats.shape
    cells = bsize * rows * cols
    return {"cells": cells, "bytes": cells * mats.itemsize,
            "rank_sum": int(result.sum()), "rank_cap": bsize * min(rows, cols)}


def _decode_attrs(args, kwargs, result):
    return {"rows": len(result)}


def _verdict_attrs(args, kwargs, result):
    return {"method": result.method}


def _g2_census_attrs(args, kwargs, result):
    return {"space": result.total}


def _typea_census_attrs(args, kwargs, result):
    return {"space": sum(result.values())}


# (owner, attribute, span name, tag, attrs function, chunk?)
TARGETS = (
    (_kernels, "rank_batch", "kernels.rank", None, _rank_attrs, False),
    (g2, "power_rank_sequences", "kernels.power_ranks", "g2", None, False),
    (typea, "power_rank_sequences", "kernels.power_ranks", "typea", None, False),
    (g2, "decode_mixed_radix", "kernels.decode", "g2", _decode_attrs, False),
    (typea, "decode_mixed_radix", "kernels.decode", "typea", _decode_attrs, False),
    (g2, "encode_sequences", "kernels.encode", "g2", None, False),
    (typea, "encode_sequences", "kernels.encode", "typea", None, False),
    (_kernels.FieldTables, "embed", "kernels.embed", None, None, False),
    (_kernels.FieldTables, "__init__", "kernels.tables", None, None, False),
    (fields.FieldCtx, "__init__", "fields.ctx", None, None, False),
    (g2, "jordan_type_from_ranks", "partitions.jordan", "g2", None, False),
    (typea, "jordan_type_from_ranks", "partitions.jordan", "typea", None, False),
    (g2, "_predicted_batch", "g2.predicate", None, None, False),
    (g2, "_g2_chunk", "g2.chunk", None, None, True),
    (g2, "g2_census", "g2.census", None, _g2_census_attrs, False),
    (typea, "_census_chunk", "typea.chunk", None, None, True),
    (typea, "brute_force_census", "typea.census", None, _typea_census_attrs,
     False),
    (typea, "kirillov_recursion", "typea.recursion", None, None, False),
    (typea, "reducibility_scan", "typea.scan", None, None, False),
    (typea, "split_qfactors", "intpoly.split", None, None, False),
    (intpoly, "split_qfactors", "intpoly.split", None, None, False),
    (typea, "irreducibility", "intpoly.irreducibility", None, _verdict_attrs, False),
    (intpoly, "ddf_degrees", "intpoly.ddf", None, None, False),
    (intpoly, "poly_interpolate", "intpoly.interpolate", None, None, False),
    (g2, "verify_displayed_powers", "multipoly.powers", None, None, False),
    (g2, "springer_check", "g2.springer", None, None, False),
)


def _wrap(rec: Recorder, original, name, tag, attrs_fn, chunk):
    origin_pid = os.getpid()

    @functools.wraps(original)
    def traced(*args, **kwargs):
        span = rec.open(name, tag)
        try:
            result = original(*args, **kwargs)
            if attrs_fn is not None:
                span["attrs"] = attrs_fn(args, kwargs, result)
        finally:
            rec.close(span)
        if chunk and not span["id"].startswith(f"{origin_pid}:"):
            return _FromWorker(result, rec.take_local())
        return result

    return traced


class installed:
    """Context manager: wrap every target while the block runs.

    Installed in the process that later forks the census pool, so the
    workers inherit the wrappers.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved = []

    def __enter__(self) -> Recorder:
        global _active
        for owner, attr, name, tag, attrs_fn, chunk in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.rec, original, name, tag,
                                       attrs_fn, chunk))
        _active = self.rec
        return self.rec

    def __exit__(self, *exc):
        global _active
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        _active = None
        return False


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its child spans cover.

    Children of one span may overlap (parallel chunks); their union is
    subtracted, so self time never goes negative.
    """
    children: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

RANK_POWERS = 6  # g2 has X^1..X^6; type A with n blocks has n-1 powers
VERDICT_METHODS = ("unit", "content", "degree-1", "mod-p", "degree-set",
                   "kronecker", "kronecker-exhausted")

# span name -> metric for its self time, in seconds per traced pass
SELF_TIME_METRICS = {
    "kernels.rank": "kernels.rank.s",
    "kernels.power_ranks": "kernels.matmul.s",
    "kernels.embed": "kernels.embed.s",
    "kernels.tables": "kernels.tables.s",
    "kernels.decode": "kernels.decode.s",
    "kernels.encode": "kernels.encode.s",
    "fields.ctx": "fields.ctx.s",
    "partitions.jordan": "partitions.jordan.s",
    "g2.predicate": "g2.predicate.s",
    "g2.chunk": "g2.chunk_self.s",
    "g2.census": "g2.census_self.s",
    "typea.chunk": "typea.chunk_self.s",
    "typea.census": "typea.census_self.s",
    "typea.recursion": "typea.recursion.s",
    "typea.scan": "typea.scan.s",
    "intpoly.split": "intpoly.split.s",
    "intpoly.ddf": "intpoly.ddf.s",
    "intpoly.irreducibility": "intpoly.irreducibility_self.s",
    "intpoly.interpolate": "intpoly.interpolate.s",
    "multipoly.powers": "multipoly.powers.s",
    "g2.springer": "g2.springer.s",
    "bench.pass": "bench.pass_self.s",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-layer figures per traced pass, derived from the spans alone.

    Times are self times (so the ``.s`` metrics of one pass add up to the
    pass), except ``kernels.rank.p<i>.s`` (the i-th rank call under each
    ``power_rank_sequences`` call, i.e. the rank of X^i) and the worker
    figures, which use whole chunk durations.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name, tag=None):
        return [s for s in by_name.get(name, ()) if tag is None or s["tag"] == tag]

    def attr_sum(items, key):
        return sum(s["attrs"][key] for s in items)

    out = {metric: sum(own[s["id"]] for s in named(name)) / passes
           for name, metric in SELF_TIME_METRICS.items()}

    ranks = named("kernels.rank")
    by_parent: dict[str, list[dict]] = {}
    for s in ranks:
        by_parent.setdefault(s["parent"], []).append(s)
    per_power = [0.0] * RANK_POWERS
    for calls in by_parent.values():
        for i, s in enumerate(sorted(calls, key=lambda s: s["start"])):
            per_power[i] += _duration(s)
    for i, total in enumerate(per_power, start=1):
        out[f"kernels.rank.p{i}.s"] = total / passes
    out["kernels.rank.calls"] = len(ranks) / passes
    out["kernels.rank.cells"] = attr_sum(ranks, "cells") / passes
    out["kernels.rank.bytes"] = attr_sum(ranks, "bytes") / passes
    cap = attr_sum(ranks, "rank_cap")
    out["kernels.rank.pivot_ratio"] = attr_sum(ranks, "rank_sum") / cap if cap else 0.0

    for family in ("g2", "typea"):
        decodes = named("kernels.decode", family)
        tuples = attr_sum(decodes, "rows")
        space = attr_sum(named(f"{family}.census"), "space")
        out[f"{family}.tuples"] = tuples / passes
        out[f"{family}.enum_ratio"] = tuples / space if space else 0.0
    out["g2.batches"] = len(named("kernels.decode", "g2")) / passes

    chunks: dict[str, list[float]] = {}
    for s in named("g2.chunk"):
        chunks.setdefault(s["parent"], []).append(_duration(s))
    censuses = [s for s in named("g2.census") if s["id"] in chunks]
    out["g2.worker.busy_s"] = sum(sum(d) for d in chunks.values()) / passes
    out["g2.dispatch_s"] = sum(_duration(s) - max(chunks[s["id"]])
                               for s in censuses) / passes
    imbalance = [max(d) * len(d) / sum(d) for d in chunks.values()]
    out["g2.worker.imbalance"] = sum(imbalance) / len(imbalance) if imbalance else 0.0

    out["intpoly.ddf.calls"] = len(named("intpoly.ddf")) / passes
    verdicts = named("intpoly.irreducibility")
    for method in VERDICT_METHODS:
        hits = sum(1 for s in verdicts if s["attrs"]["method"] == method)
        out[f"intpoly.verdict.{method}"] = hits / passes
    return out
