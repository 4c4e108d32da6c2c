"""Spans around calls into the library's public functions, traced run only.

`install` rebinds module attributes (and the two `DigraphCollection` builders)
to wrappers that record a span per call: name, parent span, start, end, the
exception that ended it if the span was the innermost one it passed through,
and a small summary of the return value.  Spans stay in memory and are
written once, after the run.  Nothing under src/ knows about this.

Layer metrics come from the spans: a span's self time is its duration minus
the durations of its direct children, and counts come from public return
values (`nodes_explored`, `proved_optimal`, classification sizes, edge
counts).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# span name -> (owner attribute path, attribute, summary of the return value)
# "certify" spans are the detector calls that oracle and constructions make
# on their own witnesses.
TARGETS = (
    ("model.parse", "model", "parse_edge_list", lambda r, a: _edge_total(r)),
    ("model.serialize", "model", "serialize_edge_list", lambda r, a: r.count("\n") - 2),
    ("model.from_edges", "model.DigraphCollection", "from_edges", None),
    ("model.from_out_rows", "model.DigraphCollection", "from_out_rows", None),
    ("detector.find", "detector", "find_rainbow_star", lambda r, a: r is None),
    ("detector.certify", "oracle", "find_rainbow_star", lambda r, a: r is None),
    ("detector.certify", "constructions", "find_rainbow_star", lambda r, a: r is None),
    ("detector.hopcroft_karp", "detector", "hopcroft_karp", None),
    ("detector.classify", "detector", "classify_vertices",
     lambda r, a: (len(r.violators), a[0].n)),
    ("oracle.cover", "oracle", "cover_oracle_s0q",
     lambda r, a: (r.objective, r.nodes_explored)),
    ("oracle.bnb", "oracle", "max_exact", lambda r, a: (r.nodes_explored, r.proved_optimal)),
    ("constructions.build", "constructions", "build",
     lambda r, a: r.predicted_counts.total),
    ("bounds.exact_bound", "bounds", "exact_bound", None),
)

PER_LAYER = (
    ("model.parse_s", "s"), ("model.parse_calls", "count"),
    ("model.parse_edges_per_s", "1/s"), ("model.from_edges_s", "s"),
    ("model.from_out_rows_s", "s"), ("model.serialize_s", "s"),
    ("model.serialize_edges_per_s", "1/s"), ("model.parse_peak_mb", "MB"),
    ("detector.find_s", "s"), ("detector.find_calls", "count"),
    ("detector.find_self_s", "s"), ("detector.hopcroft_karp_s", "s"),
    ("detector.hopcroft_karp_calls", "count"), ("detector.classify_s", "s"),
    ("detector.certify_s", "s"), ("detector.free_frac", "frac"),
    ("detector.profile_pass_frac", "frac"), ("detector.deadline_overruns", "count"),
    ("detector.errors", "count"),
    ("oracle.cover_min_s", "s"), ("oracle.cover_sum_s", "s"),
    ("oracle.cover_self_s", "s"), ("oracle.cover_nodes", "count"),
    ("oracle.bnb_s", "s"), ("oracle.bnb_nodes", "count"),
    ("oracle.bnb_nodes_per_s", "1/s"), ("oracle.bnb_unproved", "count"),
    ("constructions.build_s", "s"), ("constructions.build_self_s", "s"),
    ("constructions.builds", "count"), ("constructions.edges_per_s", "1/s"),
    ("bounds.exact_bound_s", "s"), ("bounds.exact_bound_calls", "count"),
    ("bounds.false_exact", "count"),
    ("trace.untraced_ops_per_s", "1/s"), ("trace.ops_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
)


def _edge_total(collection) -> int:
    return sum(collection.edge_count(i) for i in range(1, collection.c + 1))


class Tracer:
    """Records spans while `active`; the benchmark's checks run inactive."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, parent, start, end, error, summary]
        self.stack: list[int] = []
        self.active = False
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, summarize):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, self.stack[-1] if self.stack else -1, time.process_time(),
                    0.0, None, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = time.process_time()
                if not getattr(exc, "perfbench_span", False):
                    exc.perfbench_span = True   # innermost span owns the error
                    span[4] = type(exc).__name__
                raise
            finally:
                self.stack.pop()
            span[3] = time.process_time()
            if summarize is not None:
                span[5] = summarize(result, args)
            return result

        return traced

    def install(self, lib) -> None:
        for (name, owner_path, attr, summarize) in TARGETS:
            owner = lib
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(name, fn, summarize)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for (owner, attr, raw) in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for (name, parent, start, end, error, summary) in self.spans:
                out.write(json.dumps({"name": name, "parent": parent, "start": start,
                                      "end": end, "error": error,
                                      "summary": summary}) + "\n")


def layer_metrics(spans: list[list], timed_spans: int, false_exact: int,
                  parse_peak_mb: float, untraced_ops_per_s: float,
                  traced_ops_per_s: float) -> dict:
    """Per-layer metrics from the traced pass (the first `timed_spans` spans);
    overruns and errors also count the probes that follow it."""
    timed = spans[:timed_spans]
    duration = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    summaries = defaultdict(list)
    for (name, parent, start, end, _, summary) in timed:
        length = end - start
        duration[name] += length
        own[name] += length
        calls[name] += 1
        if parent >= 0:
            own[timed[parent][0]] -= length
        if summary is not None:
            summaries[name].append(summary)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    finds = summaries["detector.find"] + summaries["detector.certify"]
    classified = summaries["detector.classify"]
    cover = summaries["oracle.cover"]
    bnb = summaries["oracle.bnb"]
    errors = [(name, error) for (name, _, _, _, error, _) in spans
              if error is not None and name.startswith("detector.")]
    metrics = {
        "model.parse_s": duration["model.parse"],
        "model.parse_calls": calls["model.parse"],
        "model.parse_edges_per_s": rate(sum(summaries["model.parse"]), duration["model.parse"]),
        "model.from_edges_s": duration["model.from_edges"],
        "model.from_out_rows_s": duration["model.from_out_rows"],
        "model.serialize_s": duration["model.serialize"],
        "model.serialize_edges_per_s": rate(sum(summaries["model.serialize"]),
                                            duration["model.serialize"]),
        "model.parse_peak_mb": parse_peak_mb,
        "detector.find_s": duration["detector.find"] + duration["detector.certify"],
        "detector.find_calls": calls["detector.find"] + calls["detector.certify"],
        "detector.find_self_s": own["detector.find"] + own["detector.certify"],
        "detector.hopcroft_karp_s": duration["detector.hopcroft_karp"],
        "detector.hopcroft_karp_calls": calls["detector.hopcroft_karp"],
        "detector.classify_s": duration["detector.classify"],
        "detector.certify_s": duration["detector.certify"],
        "detector.free_frac": rate(sum(finds), len(finds)),
        "detector.profile_pass_frac": rate(sum(v for v, _ in classified),
                                           sum(n for _, n in classified)),
        "detector.deadline_overruns": sum(1 for _, e in errors if e == "Overrun"),
        "detector.errors": sum(1 for _, e in errors if e != "Overrun"),
        "oracle.cover_min_s": sum(end - start for (name, _, start, end, _, s) in timed
                                  if name == "oracle.cover" and s and s[0] == "min"),
        "oracle.cover_sum_s": sum(end - start for (name, _, start, end, _, s) in timed
                                  if name == "oracle.cover" and s and s[0] == "sum"),
        "oracle.cover_self_s": own["oracle.cover"],
        "oracle.cover_nodes": sum(nodes for _, nodes in cover),
        "oracle.bnb_s": duration["oracle.bnb"],
        "oracle.bnb_nodes": sum(nodes for nodes, _ in bnb),
        "oracle.bnb_nodes_per_s": rate(sum(nodes for nodes, _ in bnb), duration["oracle.bnb"]),
        "oracle.bnb_unproved": sum(1 for _, proved in bnb if not proved),
        "constructions.build_s": duration["constructions.build"],
        "constructions.build_self_s": own["constructions.build"],
        "constructions.builds": calls["constructions.build"],
        "constructions.edges_per_s": rate(sum(summaries["constructions.build"]),
                                          duration["constructions.build"]),
        "bounds.exact_bound_s": duration["bounds.exact_bound"],
        "bounds.exact_bound_calls": calls["bounds.exact_bound"],
        "bounds.false_exact": false_exact,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.ops_per_s": traced_ops_per_s,
        "trace.overhead_frac": rate(untraced_ops_per_s, traced_ops_per_s) - 1.0,
    }
    units = dict(PER_LAYER)
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
