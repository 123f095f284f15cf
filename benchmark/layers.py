"""Per-layer metrics from the spans and counters of traced stages.

A span's self time is its duration minus the durations of its direct
children.  Times of a layer are summed over one pass of the workload's
stages; `*_s` is self time unless the name says otherwise.
"""
from __future__ import annotations

import numpy as np

from tracing import PRIMITIVES

# Spans of set-up stages that feed layer metrics; every other set-up span
# (say, the training epoch behind eval_default's checkpoint) is set-up
# work, not the workload's.
SETUP_SPANS = ("data.generate_corpus", "data.write_corpus", "checkpoint.save")

STAGES = ("train", "segment", "eval", "recognize")

SPAN_METRICS = {
    **{f"autodiff.{p}.fwd_s": f"autodiff.{p}" for p in PRIMITIVES},
    "autodiff.backward_s": "autodiff.backward",
    "model.infer_s": "model.infer",
    "model.forward.self_s": "model.forward",
    "losses.activity_loss_s": "losses.activity_loss",
    "losses.tmse_loss_s": "losses.tmse_loss",
    "trainer.video_loss_s": "trainer.video_loss",
    "trainer.adam_step_s": "trainer.adam_step",
    "trainer.train.self_s": "trainer.train",
    "data.read_corpus_s": "data.read_corpus",
    "data.generate_corpus_s": "data.generate_corpus",
    "data.write_corpus_s": "data.write_corpus",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "inference.segment_corpus_s": "inference.segment_corpus",
    "inference.activity_reduce_s": "inference.activity_reduce",
    "inference.gaussian_smooth_s": "inference.gaussian_smooth",
    "inference.action_ordering_s": "inference.action_ordering",
    "inference.viterbi_decode_s": "inference.viterbi_decode",
    "matching.match_at_level_s": "matching.match_at_level",
    "matching.build_contingency_s": "matching.build_contingency",
    "matching.hungarian_solve_s": "matching.hungarian_solve",
    "matching.corpus_f1_s": "matching.corpus_f1",
    "cli.load_config_s": "cli.load_config",
    "cli.read_segment_file_s": "cli.read_segment_file",
    "cli.write_segment_file_s": "cli.write_segment_file",
    **{f"cli.{s}.self_s": f"cli.{s}" for s in STAGES},
}

CALL_METRICS = {
    **{f"autodiff.{p}.calls": f"autodiff.{p}" for p in PRIMITIVES},
    "autodiff.backward.calls": "autodiff.backward",
    "model.infer.calls": "model.infer",
    "trainer.adam_step.calls": "trainer.adam_step",
    "data.read_corpus.calls": "data.read_corpus",
    "matching.hungarian_solve.calls": "matching.hungarian_solve",
}

# counter -> how stages of one pass combine
COUNTERS = {
    "autodiff.var.allocs": "sum",
    "autodiff.tapes_alive_max": "max",
    "autodiff.pairwise_distance.mb": "max",
    "inference.viterbi_cells": "sum",
    "matching.hungarian_k_max": "max",
}


def span_table(path) -> dict:
    """Self time, call count and root accounting of one stage's spans."""
    with np.load(path) as z:
        names, name_id = list(z["names"]), z["name_id"]
        start, end, parent = z["start"], z["end"], z["parent"]
    dur = end - start
    has_parent = parent >= 0
    child_sum = np.zeros_like(dur)
    np.add.at(child_sum, parent[has_parent], dur[has_parent])
    self_time = dur - child_sum
    n = len(names)
    roots = np.flatnonzero(~has_parent)
    return {
        "self_s": dict(zip(names, np.bincount(name_id, self_time, minlength=n).tolist())),
        "calls": dict(zip(names, np.bincount(name_id, minlength=n).tolist())),
        # equal to the root span's duration by construction: it checks the
        # stage's own timer against the root span, not the tree below it
        "root_accounted_s": float(self_time[roots].sum() + child_sum[roots].sum()),
        "span_errors": span_errors(start, end, parent, self_time),
    }


def span_errors(start, end, parent, self_time) -> int:
    """Spans that break the tree: a span that never closed or ends before it
    starts, a child reaching outside its parent, siblings that overlap, or a
    negative self time (children longer than their parent)."""
    bad = (end < start) | (self_time < 0.0)
    child = np.flatnonzero(parent >= 0)
    bad[child] |= (start[child] < start[parent[child]]) | (end[child] > end[parent[child]])
    # spans are stored in the order they start, so siblings follow one another
    order = np.argsort(parent, kind="stable")
    same = parent[order[1:]] == parent[order[:-1]]
    bad[order[1:][same]] |= start[order[1:][same]] < end[order[:-1][same]]
    return int(bad.sum())


def pass_metrics(tables: list[dict], counters: list[dict], setup_tables: list[dict]) -> dict:
    """Layer metrics of one traced pass (plus the set-up spans it needs)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for table in tables:
        for name, value in table["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in table["calls"].items():
            calls[name] = calls.get(name, 0) + value
    for table in setup_tables:
        for name in SETUP_SPANS:
            self_s[name] = self_s.get(name, 0.0) + table["self_s"].get(name, 0.0)
    out = {metric: self_s.get(span, 0.0) for metric, span in SPAN_METRICS.items()}
    out.update({metric: calls.get(span, 0) for metric, span in CALL_METRICS.items()})
    for name, how in COUNTERS.items():
        values = [c.get(name, 0) for c in counters] or [0]
        out[name] = max(values) if how == "max" else sum(values)
    return out
