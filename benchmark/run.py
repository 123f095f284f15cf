"""protoseg benchmark: real CLI stages on locally generated workloads.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every stage runs in its own process (`stage.py`), so its peak RSS is its
own.  `--trace 0` times the stages untraced and prints the end-to-end
metrics; `--trace 1` alternates untraced and traced passes, adds one
tracemalloc pass for stages that run inference, and prints the per-layer
metrics.  The last line of standard output is one JSON object; a fuller
report goes to `.bench_out/`.  See NOTES.md for what each workload is for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1  # at most nproc; one stage process runs at a time
ENV_PIN = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}
MIN_PASSES = 2  # measured passes even when --seconds has run out
# After every measured pass, set-up is repeated until the repeats have
# taken this share of the pass's time: about three repeats after a
# train_default pass, two after a paper-shape pass, one after eval_default.
SETUP_SHARE = 0.25
HARD_LIMIT_S = 165.0  # no child starts, and none may run, past this
TRAIN_EPOCHS = 8  # train_default: well below the CLI's 240
# eval_default: 4x the default video count, so its short stages run long
# enough to be steady; one set-up epoch is 50 Adam steps, about as many as
# three epochs of the default corpus
EVAL_CORPUS = {"videos_per_activity": 100}
SETUP_EPOCHS = 1
PAPER_CORPUS = {
    "n_activities": 4,
    "videos_per_activity": 1,
    "frames_range": [1000, 1400],
    "feature_dim": 2048,
}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict  # overrides of the CLI's corpus section
    epochs: int  # train.epochs, for the train stage or set-up training
    checkpoint: str  # set-up checkpoint: "" (none), "init" or "train"
    stages: tuple  # measured stages of one pass, in order


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_default", {}, TRAIN_EPOCHS, "", ("train",)),
        Workload("pipeline_paper_shape", PAPER_CORPUS, 1, "init", ("segment", "recognize")),
        Workload(
            "eval_default",
            EVAL_CORPUS,
            SETUP_EPOCHS,
            "train",
            ("segment", "eval.video", "eval.activity", "eval.global", "recognize"),
        ),
    )
}

MEMORY_STAGES = ("segment", "recognize")  # stages that call model.infer


def tail_percentile(samples: list) -> tuple | None:
    """Highest of a few percentiles that has at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            ranked = sorted(samples)
            return p, ranked[min(n - 1, int(p / 100.0 * n))]
    return None


def describe(samples: list, unit: str) -> str:
    if not samples:
        return f"n/a {unit} (n=0)"
    text = f"median {statistics.median(samples):.4g} {unit}"
    tail = tail_percentile(samples)
    if tail is not None:
        text += f", p{tail[0]:g} {tail[1]:.4g} {unit}"
    return text + f" (n={len(samples)})"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            rev = "unknown (git unavailable)"
    return {
        "git_rev": rev,
        "cores": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "cli_threads": 1,
        "measurement": "process-local only: wall clocks, getrusage and tracemalloc of the "
        "stage processes; no cache dropping, no machine-wide tracing",
    }


class Run:
    """One workload at one seed: set-up, measured passes, output checks."""

    def __init__(self, workload: Workload, seed: int, trace: int, started: float):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.deadline = started + HARD_LIMIT_S
        self.work = ROOT / ".bench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.manifest = self.work / "corpus" / "manifest.json"
        self.out = self.work / "out"
        self.ckpt = self.work / "model.ckpt"
        self.config = self.work / "config.json"
        self.env = {**os.environ, **ENV_PIN, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.lengths: dict[str, int] = {}
        self.n_child = 0

    # -- stage processes --------------------------------------------------

    def _argv(self, label: str) -> list:
        command, _, scope = label.partition(".")
        argv = [command, "--config", str(self.config), "--manifest", str(self.manifest)]
        argv += ["--out-dir", str(self.out), "--seed", str(self.seed), "--threads", "1"]
        if command != "generate":
            argv += ["--checkpoint", str(self.ckpt)]
        if command == "segment":
            argv += ["--scope", "activity"]
        elif command == "eval":
            argv += ["--scope", scope]
        return argv

    def _child(self, label: str, trace: int) -> dict:
        """Run one stage process; returns its result, or an `error` entry."""
        self.n_child += 1
        stem = self.work / "stages" / f"{self.n_child:04d}-{label}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        spec = {
            "trace": trace,
            "result": str(stem) + ".result.json",
            "spans": str(stem) + ".spans.npz",
            "root": "cli." + label.partition(".")[0],
        }
        if label == "init":
            spec.update(
                kind="init_checkpoint",
                root="setup.init_checkpoint",
                manifest=str(self.manifest),
                checkpoint=str(self.ckpt),
                input_dim=PAPER_CORPUS["feature_dim"],
                n_prototypes=50,
                seed=self.seed,
            )
        else:
            spec.update(kind="cli", argv=self._argv(label))
        Path(str(stem) + ".spec.json").write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout < 1.0:
            return {"error": "out of time before start"}
        log = Path(str(stem) + ".log")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log, "w", encoding="utf-8") as log_f:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "stage.py"), str(stem) + ".spec.json", repr(time.time())],
                    cwd=ROOT,
                    env=self.env,
                    stdout=log_f,
                    stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return {"error": f"timed out after {timeout:.0f} s"}
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"stage process exited {proc.returncode}: {_last_line(log)}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if result["rc"] != 0:
            return {"error": f"protoseg exited {result['rc']}: {_last_line(log)}"}
        # CPU time of the whole stage process, interpreter start to exit
        result["process_cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        result["spans"] = spec["spans"] if trace == 1 else None
        result["traced"] = trace
        return result

    def _check(self, label: str) -> tuple[list, str | None, dict]:
        """Validate a stage's outputs; returns (files to reproduce, error, values)."""
        if label == "generate":
            err = checks.check_corpus(self.manifest)
            if err is None:
                entries = json.loads(self.manifest.read_text(encoding="utf-8"))["videos"]
                self.lengths = {e["id"]: int(e["T"]) for e in entries}
            return ([] if err else checks.corpus_files(self.manifest)), err, {}
        if label in ("init", "train"):
            err = checks.check_checkpoint(self.ckpt)
            values = {}
            if err is None and label == "train":
                values["final_loss"], err = checks.final_loss(self.out, self.w.epochs)
            return [self.ckpt], err, values
        if label == "segment":
            files, err = checks.segment_files(self.out, self.lengths)
            return files, err, {}
        if label.startswith("eval."):
            scope = label.partition(".")[2]
            mof, err = checks.eval_mof(self.out, scope)
            return [self.out / f"metrics_{scope}.json"], err, {"mof": mof}
        err = checks.predictions(self.out, len(self.lengths))
        return [self.out / "activity_predictions.tsv"], err, {}

    def stage(self, label: str, trace: int) -> dict:
        """Run, check and fingerprint one stage; failed stages carry `error`."""
        self.attempted += 1
        record = self._child(label, trace)
        if "error" not in record:
            files, err, values = self._check(label)
            if err is None and record["spans"]:
                record["table"] = layers.span_table(record["spans"])
                if record["table"]["span_errors"]:
                    err = f"{record['table']['span_errors']} spans break the span tree's nesting"
            record.update(values)
            if err is None and files:
                # eval rewrites the labeling files, so each stage is fingerprinted
                # right after it ran and compared with its own first run
                fingerprint = checks.digest(files)
                if self.digests.setdefault(label, fingerprint) != fingerprint:
                    err = f"{label} outputs differ from the first run of this seed"
            if err is not None:
                record["error"] = err
        if "error" in record:
            self.failed += 1
            self.errors.append(f"{label}: {record['error']}")
        record["label"] = label
        return record

    # -- phases -------------------------------------------------------------

    def setup_rep(self, trace: int) -> list:
        """One set-up from scratch: the corpus plus the checkpoint the workload needs."""
        self.work.mkdir(parents=True, exist_ok=True)
        config = {
            "corpus": self.w.corpus,
            "train": {"epochs": self.w.epochs},
            "eval": {"f1": True, "kl": False},
        }
        self.config.write_text(json.dumps(config), encoding="utf-8")
        labels = ("generate",) + ((self.w.checkpoint,) if self.w.checkpoint else ())
        self._fresh(self.manifest.parent, self.ckpt, self.out)
        return [self.stage(label, trace) for label in labels]

    def one_pass(self, trace: int, stages=None) -> list:
        # without a set-up checkpoint, the checkpoint is the pass's output
        self._fresh(self.out, *([] if self.w.checkpoint else [self.ckpt]))
        return [self.stage(label, trace) for label in (stages or self.w.stages)]

    @staticmethod
    def _fresh(*paths: Path) -> None:
        """Remove earlier outputs, so every repeat writes new files as a first run does.

        Rewriting existing files makes the file system flush them on close,
        which ties the timing to the shared disk: writing 200 small files
        over existing ones took 14-59 ms, as new files a steady 18 ms.
        """
        for path in paths:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink(missing_ok=True)

    def frames(self, label: str) -> int:
        total = sum(self.lengths.values())
        return total * (self.w.epochs if label == "train" else 1)


def _last_line(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _ok(records: list) -> bool:
    return all("error" not in r for r in records)


def setup_times(setup: list, key: str) -> list:
    """One time per successful untraced set-up repeat, summed over its stages.

    `setup_s` is the CPU time of the set-up processes from interpreter
    start to exit.  The protoseg calls alone are mostly writing the corpus,
    whose cost swings with the state of the shared disk: on train_default
    the call took 0.05 s to 0.24 s of CPU from one minute to the next, and
    the wall time of writing 200 small files swung fivefold (0.036 s to
    0.18 s).  Start-up and imports are steady and dilute that noise.
    """
    return [
        sum(r[key] for r in rep) for rep in setup if _ok(rep) and not any(r["traced"] for r in rep)
    ]


def _median(values: list, default=0.0):
    return statistics.median(values) if values else default


def stage_summary(run: Run, passes: list) -> dict:
    """The per-stage end-to-end figures of untraced passes, as samples."""
    samples: dict[str, list] = {"train_s": [], "segment_s": [], "eval_s": [], "recognize_s": []}
    rates, final_loss, mof_activity, rss, imports = [], [], [], [], []
    for records in passes:
        by_label = {r["label"]: r for r in records if "error" not in r}
        for r in by_label.values():
            rss.append(r["peak_rss_mb"])
            imports.append(r["import_s"])
        for name in ("train", "segment", "recognize"):
            if name in by_label:
                samples[f"{name}_s"].append(by_label[name]["wall_s"])
        evals = [by_label.get(f"eval.{s}") for s in ("video", "activity", "global")]
        if all(evals):
            samples["eval_s"].append(sum(r["wall_s"] for r in evals))
        if "train" in by_label:
            final_loss.append(by_label["train"]["final_loss"])
        if "eval.activity" in by_label:
            mof_activity.append(by_label["eval.activity"]["mof"])
        if _ok(records):
            frames = sum(run.frames(r["label"]) for r in records)
            rates.append(frames / sum(r["wall_s"] for r in records))
    train_rate = [run.frames("train") / s for s in samples["train_s"]]
    return {
        "samples": samples,
        "train_frames_per_s": train_rate,
        "frames_per_s": rates,
        "final_loss": final_loss,
        "mof_activity": mof_activity,
        "peak_rss_mb": max(rss, default=0.0),
        "import_s": imports,
    }


def layer_metrics(
    run: Run, setup: list, untraced: list, traced: list, memory: list, summary: dict
) -> dict:
    setup_tables = [r["table"] for rep in setup for r in rep if "table" in r]
    per_pass, accounting_err = [], 0.0
    for records in traced:
        if not _ok(records):
            continue
        tables = [r["table"] for r in records]
        for r, table in zip(records, tables):
            accounting_err = max(accounting_err, abs(table["root_accounted_s"] - r["wall_s"]))
        per_pass.append(layers.pass_metrics(tables, [r["counters"] for r in records], setup_tables))
    names = layers.pass_metrics([], [], [])  # every layer metric, 0 if no pass succeeded
    metrics = {k: _median([p[k] for p in per_pass]) for k in names}
    corpus_mb = sum(p.stat().st_size for p in checks.corpus_files(run.manifest)) / 1e6
    metrics["data.read_corpus_mb"] = metrics.pop("data.read_corpus.calls", 0) * corpus_mb
    metrics["model.infer_peak_mb"] = max(
        (r["counters"].get("model.infer_peak_mb", 0.0) for p in memory for r in p if "error" not in r),
        default=0.0,
    )
    metrics["cli.import_s"] = _median(summary["import_s"])
    traced_walls = [sum(r["wall_s"] for r in p) for p in traced if _ok(p)]
    untraced_walls = [sum(r["wall_s"] for r in p) for p in untraced if _ok(p)]
    overhead = _median(traced_walls) - _median(untraced_walls)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / _median(untraced_walls, 1.0)
    metrics["trace.accounting_err_s"] = accounting_err
    metrics.update(stage_metrics(summary, run))
    return metrics


def stage_metrics(summary: dict, run: Run) -> dict:
    """Medians of the per-stage figures of untraced passes, under `stage.`."""
    s = summary["samples"]
    return {
        "stage.train_frames_per_s": _median(summary["train_frames_per_s"]),
        "stage.final_loss": _median(summary["final_loss"]),
        "stage.segment_s": _median(s["segment_s"]),
        "stage.eval_s": _median(s["eval_s"]),
        "stage.recognize_s": _median(s["recognize_s"]),
        "stage.mof_activity": _median(summary["mof_activity"]),
        "stage.failed_frac": run.failed / max(run.attempted, 1),
    }


def print_report(run: Run, env: dict, setup: list, summary: dict) -> None:
    print(f"workload {run.w.name}  seed {run.seed}  trace {run.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"  setup_s             {describe(setup_times(setup, 'process_cpu_s'), 's')} "
          "(CPU time of the set-up processes)")
    print(f"  set-up calls        {describe(setup_times(setup, 'cpu_s'), 's')} CPU, "
          f"{describe(setup_times(setup, 'wall_s'), 's')} wall")
    stages = {label.partition('.')[0] for label in run.w.stages}
    s = summary["samples"]
    if "train" in stages:
        print(f"  train_frames_per_s  {describe(summary['train_frames_per_s'], 'frames/s')}")
        print(f"  final_loss          {describe(summary['final_loss'], '')}")
    for name in ("segment", "eval", "recognize"):
        if name in stages:
            print(f"  {name + '_s':<19} {describe(s[name + '_s'], 's')}")
    if "eval" in stages:
        print(f"  mof_activity        {describe(summary['mof_activity'], 'fraction')}")
    print(f"  peak_rss_mb         {summary['peak_rss_mb']:.1f} MB (max over stage processes)")
    print(f"  failed_frac         {run.failed / max(run.attempted, 1):.4g} "
          f"({run.failed} of {run.attempted} stages)")
    print(f"  frames_per_s        {describe(summary['frames_per_s'], 'frames/s')}")
    for err in run.errors:
        print(f"  FAILED {err}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # On SIGTERM, unwind: subprocess.run kills and reaps the running stage
    # process, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "protoseg" / "cli.py").is_file():
        print(f"error: no protoseg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run = Run(WORKLOADS[args.workload], args.seed, args.trace, started)
    try:
        setup = [run.setup_rep(0)] + ([run.setup_rep(1)] if args.trace else [])
        if not _ok(setup[0]):
            print("error: set-up failed: " + "; ".join(run.errors), file=sys.stderr)
            return 1
        # The first pass of a run is slow (at paper shape its large
        # allocations take up to 1.7x longer), so it is checked but not timed.
        run.one_pass(0)
        untraced, traced, memory = [], [], []
        measured_s = 0.0  # time of the measured passes, set-up repeats left out
        while True:
            done = len(untraced) + len(traced)
            enough = len(untraced) >= 1 and (not args.trace or len(traced) >= 1)
            if (measured_s >= args.seconds and done >= MIN_PASSES and enough) or (
                time.monotonic() > run.deadline - 30.0 and enough
            ):
                break
            pass_start = time.monotonic()
            if args.trace and len(untraced) > len(traced):
                traced.append(run.one_pass(1))
            else:
                untraced.append(run.one_pass(0))
            pass_s = time.monotonic() - pass_start
            measured_s += pass_s
            # Set up again after every pass, so the setup_s samples spread
            # over the same minutes as the passes: the shared machine's speed
            # drifts by up to 30% within minutes, and a burst of set-ups
            # before the passes caught only one moment of it.
            setup_start = time.monotonic()
            setup.append(run.setup_rep(0))
            while time.monotonic() - setup_start < SETUP_SHARE * pass_s:
                setup.append(run.setup_rep(0))
        memory_stages = [s for s in run.w.stages if s in MEMORY_STAGES]
        if args.trace and memory_stages:
            memory.append(run.one_pass(2, memory_stages))

        summary = stage_summary(run, untraced)
        env = environment()
        print_report(run, env, setup, summary)
        correct = run.failed == 0
        if args.trace:
            metrics = layer_metrics(run, setup, untraced, traced, memory, summary)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times(setup, "process_cpu_s")),
                "frames_per_s": _median(summary["frames_per_s"]),
                "peak_rss_mb": summary["peak_rss_mb"],
            }
        report = {
            "workload": run.w.name,
            "seed": run.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": env,
            "setup_s_samples": setup_times(setup, "process_cpu_s"),
            "setup_call_cpu_s_samples": setup_times(setup, "cpu_s"),
            "setup_wall_s_samples": setup_times(setup, "wall_s"),
            "summary": summary,
            "metrics": metrics,
            "attempted": run.attempted,
            "failed": run.failed,
            "errors": run.errors,
        }
        OUT.mkdir(exist_ok=True)
        name = f"{run.w.name}-seed{run.seed}-trace{args.trace}"
        (OUT / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        if traced:
            spans_dir = OUT / "spans" / name
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
            for r in traced[-1]:
                if r.get("spans"):
                    shutil.copy(r["spans"], spans_dir / f"{r['label']}.npz")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
