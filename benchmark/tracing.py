"""Span recorder installed around protoseg's public functions from outside.

Each wrapper replaces a function at the name its caller looks it up by
(a module attribute, or a class attribute for `Tape`/`Var`), so the
program itself is unchanged.  Spans are kept in flat lists and written
out once, at the end of the stage, by `Recorder.save`.
"""
from __future__ import annotations

import importlib
import time
import tracemalloc
import weakref

import numpy as np

PRIMITIVES = (
    "pairwise_distance",
    "minmax_invert_rows",
    "row_normalize",
    "matmul",
    "add",
    "mul",
    "scale",
    "relu",
    "softmax",
    "log",
    "clamp",
    "clamped_log",
    "absval",
    "time_diff",
    "vsum",
    "axis0_sum",
)

# (module, attribute, span name).  Functions imported by name into another
# module are wrapped where that module looks them up.
TARGETS = (
    *(("protoseg.autodiff", p, f"autodiff.{p}") for p in PRIMITIVES),
    ("protoseg.model", "forward", "model.forward"),
    ("protoseg.model", "infer", "model.infer"),
    ("protoseg.losses", "activity_loss", "losses.activity_loss"),
    ("protoseg.losses", "tmse_loss", "losses.tmse_loss"),
    ("protoseg.trainer", "train", "trainer.train"),
    ("protoseg.trainer", "video_loss", "trainer.video_loss"),
    ("protoseg.trainer", "adam_step", "trainer.adam_step"),
    ("protoseg.cli", "read_corpus", "data.read_corpus"),
    ("protoseg.cli", "generate_corpus", "data.generate_corpus"),
    ("protoseg.cli", "write_corpus", "data.write_corpus"),
    ("protoseg.cli", "save_checkpoint", "checkpoint.save"),
    ("protoseg.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("protoseg.cli", "load_checkpoint", "checkpoint.load"),
    ("protoseg.inference", "segment_corpus", "inference.segment_corpus"),
    ("protoseg.inference", "activity_reduce", "inference.activity_reduce"),
    ("protoseg.inference", "gaussian_smooth", "inference.gaussian_smooth"),
    ("protoseg.inference", "action_ordering", "inference.action_ordering"),
    ("protoseg.inference", "viterbi_decode", "inference.viterbi_decode"),
    ("protoseg.matching", "match_at_level", "matching.match_at_level"),
    ("protoseg.matching", "build_contingency", "matching.build_contingency"),
    ("protoseg.matching", "hungarian_solve", "matching.hungarian_solve"),
    ("protoseg.matching", "corpus_f1", "matching.corpus_f1"),
    ("protoseg.cli", "_load_config", "cli.load_config"),
    ("protoseg.cli", "_read_segment_file", "cli.read_segment_file"),
    ("protoseg.cli", "_write_segment_file", "cli.write_segment_file"),
)


def _pairwise_mb(f, p, *_, **__):
    """Bytes of the T x N x D `diff` tensor pairwise_distance builds."""
    t, d = f.value.shape
    return t * p.value.shape[0] * d * 8 / 1e6


# span name -> (counter name, value from the call's arguments, "sum" | "max")
PROBES = {
    "autodiff.pairwise_distance": ("autodiff.pairwise_distance.mb", _pairwise_mb, "max"),
    "inference.viterbi_decode": (
        "inference.viterbi_cells",
        lambda a, ordering, *_: np.shape(a)[0] * len(ordering),
        "sum",
    ),
    "matching.hungarian_solve": (
        "matching.hungarian_k_max",
        lambda counts, *_: max(np.shape(counts)),
        "max",
    ),
}


class Recorder:
    """Flat, in-memory span store: name id, start, end, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._live_tapes = weakref.WeakSet()

    def _count(self, key: str, value: float, how: str) -> None:
        old = self.counters.get(key, 0)
        self.counters[key] = max(old, value) if how == "max" else old + value

    def span(self, name: str, fn):
        """Return `fn` wrapped so each call records one span named `name`."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        probe = PROBES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if probe is not None:
                self._count(probe[0], probe[1](*args, **kwargs), probe[2])
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            self.end.append(0.0)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target plus Tape/Var class attributes."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.span(name, getattr(module, attr)))

        from protoseg.autodiff import Tape, Var

        Tape.backward = self.span("autodiff.backward", Tape.backward)
        tape_init = Tape.__init__
        live = self._live_tapes

        def counting_tape_init(tape, *args, **kwargs):
            tape_init(tape, *args, **kwargs)
            live.add(tape)
            self._count("autodiff.tapes_alive_max", len(live), "max")

        Tape.__init__ = counting_tape_init
        var_init = Var.__init__
        counters = self.counters
        counters["autodiff.var.allocs"] = 0

        def counting_var_init(var, *args, **kwargs):
            counters["autodiff.var.allocs"] += 1
            var_init(var, *args, **kwargs)

        Var.__init__ = counting_var_init

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
        )


def install_infer_memory_probe(counters: dict) -> None:
    """Record tracemalloc's peak above the pre-call level for each infer call.

    Runs in its own pass: tracemalloc slows Python-heavy code, so its
    numbers never mix with the timed spans.
    """
    from protoseg import model

    infer = model.infer

    def measured_infer(*args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return infer(*args, **kwargs)
        finally:
            peak_mb = (tracemalloc.get_traced_memory()[1] - before) / 1e6
            counters["model.infer_peak_mb"] = max(counters.get("model.infer_peak_mb", 0.0), peak_mb)

    model.infer = measured_infer
