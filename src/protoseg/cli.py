"""Command-line pipeline: generate, train, segment, eval, recognize.

One JSON config file drives every stage; each stage's flags override the
config values that stage reads.  Every stage checks every section of the
config before it runs, and a stage that succeeds echoes the effective
config into the output directory, where it is itself a valid --config
for every stage.  Exit status 2 flags usage/config problems, 1 runtime
failures, each with a one-line machine-parsable error on stderr.
"""
from __future__ import annotations

import argparse
import copy
import ctypes
import hashlib
import itertools
import json
import os
import re
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np

from . import inference, matching, model as model_mod, trainer as trainer_mod
from .autodiff import _checked, named_failures
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (Corpus, CorpusError, CorpusSpec, generate_corpus, read_corpus, require_number,
                   write_corpus, write_json)
from .losses import LossConfig
from .model import ModelConfig
from .trainer import TrainConfig

# loss config key -> LossConfig field: the config names the paper's symbols,
# checkpoints store the fields
_LOSS_FIELDS = {"alpha": "alpha", "lambda": "smooth_weight", "tau": "truncation"}

DEFAULT_CONFIG = {
    # input_dim and n_activities come from the corpus
    "model": {f.name: f.default for f in fields(ModelConfig) if f.default is not MISSING},
    "loss": {key: getattr(LossConfig(), field) for key, field in _LOSS_FIELDS.items()},
    "train": asdict(TrainConfig()),
    # nprime: "gt" (true action count per activity) or an integer
    "infer": {"sigma": 5.0, "nprime": "gt", "eta": 0.0, "smooth": True, "decode": True},
    "eval": {"scope": "global", "kl": False, "f1": False},
    "recognize": {"wp": 0.5, "wg": 0.5},
    "corpus": asdict(CorpusSpec()),
    "paths": {"manifest": None, "out_dir": "out", "checkpoint": None},
    "threads": 1,
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(2)


def _nprime(value: str):
    if value == "gt":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer or 'gt', got {value!r}") from None


_SCOPES = ["video", "activity", "global"]  # eval.scope's values

# flag -> (config keys it sets, argparse keywords)
_FLAGS = {
    "--manifest": (["paths.manifest"], {}),
    "--out-dir": (["paths.out_dir"], {}),
    "--checkpoint": (["paths.checkpoint"], {}),
    "--seed": (["train.seed", "corpus.seed"], {"type": int}),
    "--threads": (["threads"], {"type": int}),
    "--alpha": (["loss.alpha"], {"type": float}),
    "--lambda": (["loss.lambda"], {"type": float}),
    "--scope": (["eval.scope"], {"choices": _SCOPES}),
    "--sigma": (["infer.sigma"], {"type": float}),
    "--nprime": (["infer.nprime"], {"type": _nprime}),
    "--eta": (["infer.eta"], {"type": float}),
    "--no-smooth": (["infer.smooth"], {"action": "store_const", "const": False}),
    "--no-decode": (["infer.decode"], {"action": "store_const", "const": False}),
    "--wp": (["recognize.wp"], {"type": float}),
    "--wg": (["recognize.wg"], {"type": float}),
}
_SHARED_FLAGS = ["--manifest", "--out-dir", "--checkpoint", "--seed", "--threads"]
_STAGE_FLAGS = {
    "generate": [],
    "train": ["--alpha", "--lambda"],
    "segment": ["--scope", "--sigma", "--nprime", "--eta", "--no-smooth", "--no-decode"],
    "eval": ["--scope"],
    "recognize": ["--wp", "--wg"],
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="protoseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, own_flags in _STAGE_FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for flag in _SHARED_FLAGS + own_flags:
            keys, kwargs = _FLAGS[flag]
            p.add_argument(flag, help="sets " + ", ".join(keys), **kwargs)
    return parser


def _merge(base: dict, override, name: str, prefix: str = "") -> dict:
    """`base` updated from `override`; errors call `override` by `name`, a file or a section."""
    if not isinstance(override, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(override).__name__}")
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, prefix + key, prefix + key + ".")
        else:
            out[key] = value
    return out


def _load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} not found")
        try:
            from_file = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"unparseable config {path}: {exc}") from exc
        cfg = _merge(cfg, from_file, str(path))
    for flag, (keys, _) in _FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if value is not None:
            for key in keys:
                section, _, name = key.rpartition(".")
                (cfg[section] if section else cfg)[name] = value
    if type(cfg["threads"]) is not int or cfg["threads"] < 1:
        raise ConfigError("threads must be an integer >= 1")
    nprime = cfg["infer"]["nprime"]
    if nprime != "gt" and (type(nprime) is not int or nprime < 1):
        raise ConfigError(f"infer: nprime must be 'gt' or an integer >= 1, got {nprime!r}")
    # the corpus gives input_dim and n_activities; 1 stands in for both here
    _build("model", ModelConfig, input_dim=1, n_activities=1, **cfg["model"])
    for section, key, (ok, rule) in (
        *(("loss", key, LossConfig.RULES[field]) for key, field in _LOSS_FIELDS.items()),
        ("infer", "sigma", (lambda x: x > 0, "> 0")),
        ("infer", "eta", (lambda x: 0 <= x < 1, "in [0, 1)")),
        ("recognize", "wp", (lambda x: x >= 0, ">= 0")),
        ("recognize", "wg", (lambda x: x >= 0, ">= 0")),
    ):
        _build(section, require_number, name=key, value=cfg[section][key], ok=ok, rule=rule)
    _build("train", TrainConfig, **cfg["train"])
    _build("corpus", CorpusSpec, **cfg["corpus"])
    if cfg["recognize"]["wp"] + cfg["recognize"]["wg"] == 0:
        raise ConfigError("recognize: wp and wg must not both be zero")
    for section, keys in (("infer", ("smooth", "decode")), ("eval", ("kl", "f1"))):
        if not all(type(cfg[section][key]) is bool for key in keys):
            raise ConfigError(f"{section}: {' and '.join(keys)} must be true or false")
    if cfg["eval"]["scope"] not in _SCOPES:
        raise ConfigError(f"eval: scope must be one of {_SCOPES}, got {cfg['eval']['scope']!r}")
    for key, value in cfg["paths"].items():
        if type(value) is not str and (key == "out_dir" or value is not None):
            rule = "a string" if key == "out_dir" else "null or a string"
            raise ConfigError(f"paths: {key} must be {rule}, got {value!r}")
    return cfg


def _build(section: str, make, **fields) -> None:
    """Call `make(**fields)`; a value it rejects is a config error."""
    try:
        make(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["paths"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_tsv(path: Path, header, rows) -> None:
    """`header`, then one line per row; floats to 10 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        for row in (header, *rows):
            f.write("\t".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _require_path(cfg: dict, key: str) -> Path:
    value = cfg["paths"][key]
    if not value:
        raise ConfigError(f"paths.{key} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"paths.{key} {path} does not exist")
    return path


def _sha256_file(path: Path) -> str:
    """Hex SHA-256 of a file's bytes, read into one buffer of at most 1 MiB."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        buffer = memoryview(bytearray(min(1 << 20, os.fstat(f.fileno()).st_size)))
        while n_read := f.readinto(buffer):
            digest.update(buffer[:n_read])
    return digest.hexdigest()


def _load_checkpoint_for(
    ckpt_path: Path, corpus: Corpus, manifest: Path, affinity_only: bool = False
) -> Checkpoint:
    """Load a checkpoint for inference on the corpus, whose feature dimension it must take.

    Its `embed_w` is replaced by a float32 copy, so `model.infer` embeds
    the frames in float32; the other parameters stay float64.  A weight
    too large for float32 fails here, under the checkpoint's name.  With
    `affinity_only`, it keeps only `model.AFFINITY_PARAMETERS`, so a stage
    that only labels frames frees the latent path's and the heads' weights
    at once (17 MB at paper shape).  Without it the heads score the
    corpus's activities, so the checkpoint must have as many; a stage that
    only labels frames also runs on a held-out corpus of other activities.
    """
    ckpt = load_checkpoint(ckpt_path)
    dim = corpus.videos[0].feature_dim
    if ckpt.model.input_dim != dim:
        raise ValueError(
            f"checkpoint {ckpt_path} takes feature dim {ckpt.model.input_dim}, "
            f"but manifest {manifest} has feature dim {dim}"
        )
    if not affinity_only and ckpt.model.n_activities != corpus.n_activities:
        raise ValueError(
            f"checkpoint {ckpt_path} scores {ckpt.model.n_activities} activities, "
            f"but manifest {manifest} has C={corpus.n_activities}"
        )
    with named_failures(str(ckpt_path)):  # finite in float64, it may overflow float32
        embed_w = ckpt.params["embed_w"].astype(np.float32)
        ckpt.params["embed_w"] = _checked("float32 cast", embed_w)
    if affinity_only:
        ckpt.params = {name: ckpt.params[name] for name in model_mod.AFFINITY_PARAMETERS}
    return ckpt


def _infer_corpus(corpus: Corpus, threads: int, task):
    """Yield (video, `task(video)`) for every video, in activity order.

    Activities come in ascending order, and each one's videos in corpus
    order.  A task gets the video, not its features: `model.infer` and
    `model.infer_affinity` read them one row block at a time, so a video
    in flight holds one block, and the caller holds only the results it
    keeps.  With
    more than one thread, a pool of `threads` workers runs the tasks with
    at most `threads` videos in flight, across activity boundaries, and
    starts the next video only once the oldest one's result is taken.  One
    thread runs them on the calling thread: a single worker would add two
    thread switches per video, and a malloc arena of its own.

    Each task runs under `autodiff.named_failures`, on its own thread.  The
    parameters are finite, so a non-finite value in a task comes from frames
    that overflow the float32 embedding: its one error line names their file.
    """

    def named(video):
        with named_failures(str(video.path)):
            return task(video)

    videos = iter(sorted(corpus.videos, key=lambda v: v.activity))  # stable
    threads = min(threads, len(corpus.videos))
    if threads == 1:
        yield from ((v, named(v)) for v in videos)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        running = deque((v, pool.submit(named, v)) for v in itertools.islice(videos, threads))
        while running:
            video, future = running.popleft()
            result = future.result()
            running.extend((v, pool.submit(named, v)) for v in itertools.islice(videos, 1))
            yield video, result


# ---------------------------------------------------------------------------
# commands


def _cmd_generate(cfg: dict) -> None:
    spec = CorpusSpec(**cfg["corpus"])
    manifest_cfg = cfg["paths"]["manifest"]
    if manifest_cfg and Path(manifest_cfg).name != "manifest.json":
        raise ConfigError("generate writes 'manifest.json'; point paths.manifest there")
    out = _out_dir(cfg)
    corpus_dir = Path(manifest_cfg).parent if manifest_cfg else out / "corpus"
    corpus = generate_corpus(spec)
    manifest_path = write_corpus(corpus, corpus_dir)
    print(f"wrote {len(corpus.videos)} videos to {manifest_path}")


# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Let glibc keep the memory each video frees, for the next one.

    glibc returns free memory above 128 KiB at the heap's top to the kernel,
    and serves arrays above its mmap threshold with mappings it unmaps on
    free, so each video would fault its arrays in again.  The trim
    threshold goes to 128 MiB, and the mmap threshold to 32 MiB (glibc's
    ceiling) with it, since setting the trim threshold alone stops glibc
    from raising its mmap threshold past 128 KiB.  No-op without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _cmd_train(cfg: dict) -> None:
    manifest = _require_path(cfg, "manifest")
    train_cfg = TrainConfig(**cfg["train"])
    loss_cfg = LossConfig(**{field: cfg["loss"][key] for key, field in _LOSS_FIELDS.items()})
    corpus = read_corpus(manifest)
    model_cfg = ModelConfig(
        input_dim=corpus.videos[0].feature_dim, n_activities=corpus.n_activities, **cfg["model"]
    )
    result = trainer_mod.train(corpus.videos, model_cfg, train_cfg, loss_cfg)
    out = _out_dir(cfg)  # only now: training has read every feature file
    ckpt_path = cfg["paths"]["checkpoint"] or str(out / "model.ckpt")
    save_checkpoint(
        Checkpoint(
            params=result.params,
            model=model_cfg,
            train=train_cfg,
            loss=loss_cfg,
            epoch=train_cfg.epochs,
            rng_digest=result.rng_digest,
        ),
        ckpt_path,
    )
    columns = ("epoch", "loss", "loss_p", "loss_g", "loss_smooth")
    rows = ([row[c] for c in columns] for row in result.trace)
    _write_tsv(out / "loss_trace.tsv", columns, rows)
    print(
        f"trained {train_cfg.epochs} epochs; final loss "
        f"{result.trace[-1]['loss']:.6f}; checkpoint {ckpt_path}"
    )


def _nprime_by_activity(cfg: dict, corpus: Corpus, manifest: Path, ckpt_path: Path, n: int):
    """`segment_corpus`'s `n_keep`: an integer nprime, or under 'gt' each activity's
    action count; none may exceed the checkpoint's `n` prototypes."""
    nprime = cfg["infer"]["nprime"]
    if nprime != "gt":
        if nprime > n:
            raise ConfigError(
                f"infer: nprime {nprime} exceeds the {n} prototypes of checkpoint {ckpt_path}"
            )
        return nprime
    counts = {}
    for video in corpus.videos:
        if video.gt_actions is None:
            raise ConfigError(
                f"nprime 'gt' needs ground truth, and {manifest} has none for video "
                f"{video.video_id}; use a fixed --nprime instead"
            )
        actions = counts.setdefault(video.activity, set())
        actions.update(int(a) for a in np.unique(video.gt_actions) if a != 0)
    for activity, actions in sorted(counts.items()):
        if not actions:
            raise ConfigError(
                f"nprime 'gt': activity {activity} has no action in the ground truth "
                f"of {manifest}; use a fixed --nprime instead"
            )
        if len(actions) > n:
            raise ConfigError(
                f"infer: nprime 'gt': activity {activity} has {len(actions)} actions in "
                f"the ground truth of {manifest}, more than the {n} prototypes of "
                f"checkpoint {ckpt_path}"
            )
    return {activity: len(actions) for activity, actions in counts.items()}


def _cmd_segment(cfg: dict) -> None:
    """Label every video's frames and write one labeling file per video.

    Activity by activity, it computes each video's affinity matrix
    (`model.infer_affinity`: no V^g and no classifier head), labels the
    activity's videos, and drops their affinities, so it holds one
    activity's affinities and every video's labels.  The output directory
    is made only after the last feature file is read.
    """
    manifest = _require_path(cfg, "manifest")
    ckpt_path = _require_path(cfg, "checkpoint")
    scope = cfg["eval"]["scope"]
    if scope == "video":
        raise ConfigError("segment supports --scope global or activity")
    corpus = read_corpus(manifest)
    ckpt = _load_checkpoint_for(ckpt_path, corpus, manifest, affinity_only=True)
    n_keep = None
    if scope == "activity":
        n_keep = _nprime_by_activity(cfg, corpus, manifest, ckpt_path, ckpt.model.n_prototypes)
    smooth = scope == "activity" and cfg["infer"]["smooth"]
    decode = scope == "activity" and cfg["infer"]["decode"]
    labelings = {}
    # hashlib releases the GIL on large updates, so the digests are taken
    # on a worker thread while inference runs
    with ThreadPoolExecutor(max_workers=1) as hasher:
        digests = hasher.map(_sha256_file, (manifest, ckpt_path))
        stream = _infer_corpus(
            corpus, cfg["threads"], lambda v: model_mod.infer_affinity(v, ckpt.params)
        )
        for activity, group in itertools.groupby(stream, key=lambda pair: pair[0].activity):
            affinities = {video.video_id: a for video, a in group}
            labelings.update(
                inference.segment_corpus(
                    affinities,
                    dict.fromkeys(affinities, activity),
                    scope=scope,
                    smooth=smooth,
                    sigma=cfg["infer"]["sigma"],
                    decode=decode,
                    n_keep=n_keep,
                    eta=cfg["infer"]["eta"],
                )
            )
            del affinities  # before the next activity's arrive
        manifest_sha256, checkpoint_sha256 = digests
    out = _out_dir(cfg)  # only now: inference has read every feature file
    seg_dir = out / "segments"
    seg_dir.mkdir(exist_ok=True)
    for vid, labels in sorted(labelings.items()):
        _write_segment_file(seg_dir / f"{vid}.seg.txt", labels)
    index = {
        "scope": scope,
        "smooth": smooth,
        "decode": decode,
        "sigma": cfg["infer"]["sigma"],
        "eta": cfg["infer"]["eta"],
        "nprime": cfg["infer"]["nprime"] if scope == "activity" else None,
        "manifest_sha256": manifest_sha256,
        "checkpoint_sha256": checkpoint_sha256,
        "videos": sorted(labelings),
    }
    write_json(seg_dir / "index.json", index)
    print(f"segmented {len(labelings)} videos into {seg_dir} (scope={scope})")


def _write_segment_file(path: Path, labels: np.ndarray) -> None:
    """One line per frame of `labels`, as it is: a prototype id, or -1 for background.

    `segment` writes each file once and `eval` only reads it; a frame's
    matched action is its prototype mapped through its unit's `assignment`
    in `metrics_<scope>.json`.
    """
    with open(path, "wb") as f:
        f.write((("%d\n" * len(labels)) % tuple(labels.tolist())).encode("ascii"))


# one or more lines, each -1 or a prototype id as `%d` writes it: no sign,
# space, underscore or leading zero, and at most 18 digits, so it fits int64
_LABELING = re.compile(rb"(?:(?:-1|[1-9][0-9]{0,17})\n)+")


def _read_segment_file(path: Path) -> np.ndarray:
    """Parse a labeling file: one prototype id per line, -1 for background."""
    with open(path, "rb") as f:
        data = f.read()
    if not _LABELING.fullmatch(data):
        raise CorpusError(
            f"{path}: expected one prototype id >= 1, or -1 for background, on each line"
        )
    return np.fromstring(data, dtype=np.int64, sep="\n")


def _segment_index(index_path: Path, manifest: Path, checkpoint: Path | None) -> dict:
    """`segments/index.json`, once its digests match the manifest and any checkpoint given."""
    try:
        index = json.loads(index_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{index_path}: unparseable segmentation index: {exc}") from None
    inputs = {"manifest_sha256": manifest, "checkpoint_sha256": checkpoint}
    if not isinstance(index, dict) or not all(key in index for key in inputs):
        raise ValueError(f"{index_path}: segmentation index lacks {' or '.join(inputs)}")
    for key, path in inputs.items():
        if path is not None and index[key] != _sha256_file(path):
            raise ValueError(f"{index_path}: {key} does not match {path}; rerun segment")
    return index


def _cmd_eval(cfg: dict) -> None:
    manifest = _require_path(cfg, "manifest")
    # only the KL diagnostics run the model
    ckpt_path = _require_path(cfg, "checkpoint") if cfg["eval"]["kl"] else None
    out = Path(cfg["paths"]["out_dir"])  # segment made it
    seg_dir = out / "segments"
    if not (seg_dir / "index.json").exists():
        raise ConfigError(f"no segmentation index under {seg_dir}; run segment first")
    corpus = read_corpus(manifest)
    scope = cfg["eval"]["scope"]
    ckpt = (
        _load_checkpoint_for(ckpt_path, corpus, manifest, affinity_only=True) if ckpt_path else None
    )
    index = _segment_index(seg_dir / "index.json", manifest, ckpt_path)

    videos = []
    for video in corpus.videos:
        if video.gt_actions is None:
            raise ConfigError(f"video {video.video_id!r} has no ground truth to evaluate")
        seg_path = seg_dir / f"{video.video_id}.seg.txt"
        pred = _read_segment_file(seg_path)
        if len(pred) != video.n_frames:
            raise CorpusError(f"{seg_path}: has {len(pred)} frames, corpus says {video.n_frames}")
        videos.append(matching.VideoEval(video.video_id, video.activity, pred, video.gt_actions))
    result = matching.match_at_level(videos, scope)

    report = {
        "scope": scope,
        "mof": result.mof,
        "segments": {key: value for key, value in index.items() if key != "videos"},
        "units": [vars(rep) for rep in result.reports],
    }
    if cfg["eval"]["f1"]:
        report["f1"] = matching.corpus_f1(videos, result.mapped)
    if ckpt is not None:
        # each video's naive labels; its affinity is not kept
        stream = _infer_corpus(
            corpus,
            cfg["threads"],
            lambda v: inference.naive_labels(model_mod.infer_affinity(v, ckpt.params)),
        )
        labels = {video.video_id: naive for video, naive in stream}
        by_activity = {}
        for video in videos:
            by_activity.setdefault(video.activity, []).append(video)
        sharing, activity_ids = matching.kl_prototype_sharing(
            {a: [labels[v.video_id] for v in group] for a, group in by_activity.items()},
            ckpt.model.n_prototypes,
        )
        action_kl = {}
        for activity, group in sorted(by_activity.items()):
            pred_vs_gt, gt_vs_pred = matching.kl_action_distribution(group, result.mapped)
            action_kl[str(activity)] = {"pred_vs_gt": pred_vs_gt, "gt_vs_pred": gt_vs_pred}
        report["kl"] = {
            "action_distribution": action_kl,
            "prototype_sharing": {
                "activities": activity_ids,
                "matrix": sharing.tolist(),
            },
        }
    report_path = out / f"metrics_{scope}.json"
    write_json(report_path, report)
    rows = sorted(result.per_video_mof.items())
    _write_tsv(out / f"per_video_mof_{scope}.tsv", ("video_id", "mof"), rows)
    print(f"scope={scope} MoF={result.mof:.4f} report={report_path}")


def _cmd_recognize(cfg: dict) -> None:
    manifest = _require_path(cfg, "manifest")
    ckpt_path = _require_path(cfg, "checkpoint")
    corpus = read_corpus(manifest)
    ckpt = _load_checkpoint_for(ckpt_path, corpus, manifest)
    wp, wg = cfg["recognize"]["wp"], cfg["recognize"]["wg"]
    # the two head-probability vectors of each video; its affinity is not kept
    stream = _infer_corpus(
        corpus, cfg["threads"], lambda v: model_mod.infer(v, ckpt.params, ckpt.model)[1:]
    )
    probs = {video.video_id: heads for video, heads in stream}
    out = _out_dir(cfg)  # only now: inference has read every feature file
    rows = []
    correct = 0
    for video in corpus.videos:
        yp, yg = probs[video.video_id]
        pred = inference.recognize_activity(yp, yg, wp, wg)
        rows.append((video.video_id, video.activity, pred))
        correct += int(pred == video.activity)
    accuracy = correct / len(rows)
    _write_tsv(
        out / "activity_predictions.tsv", ("video_id", "true_activity", "predicted_activity"), rows
    )
    print(f"recognized {len(rows)} videos; accuracy={accuracy:.4f}")


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "segment": _cmd_segment,
    "eval": _cmd_eval,
    "recognize": _cmd_recognize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        _keep_freed_heap()  # every stage works one video after another
        _COMMANDS[args.command](cfg)
        write_json(_out_dir(cfg) / "effective_config.json", cfg)
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
