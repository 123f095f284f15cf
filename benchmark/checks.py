"""Output checks run by the benchmark after every stage.

Each check returns an error string, or None when the stage's outputs are
valid.  `digest` hashes the files a stage must reproduce byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def corpus_files(manifest_path: Path) -> list[Path]:
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    base = manifest_path.parent
    files = [manifest_path]
    for entry in manifest["videos"]:
        files.append(base / entry["feature_file"])
        if entry.get("gt_file"):
            files.append(base / entry["gt_file"])
    return files


def check_corpus(manifest_path: Path) -> str | None:
    if not manifest_path.exists():
        return f"{manifest_path} missing after generate"
    missing = [str(p) for p in corpus_files(manifest_path) if not p.exists()]
    return f"corpus files missing: {missing[:3]}" if missing else None


def check_checkpoint(path: Path) -> str | None:
    from protoseg.checkpoint import CheckpointError, load_checkpoint

    try:
        load_checkpoint(path)
    except (OSError, CheckpointError, ValueError, KeyError) as exc:
        return f"checkpoint {path} unreadable: {type(exc).__name__}: {exc}"
    return None


def final_loss(out_dir: Path, epochs: int) -> tuple[float | None, str | None]:
    """Last loss of loss_trace.tsv, which must hold one finite row per epoch."""
    path = out_dir / "loss_trace.tsv"
    if not path.exists():
        return None, f"{path} missing after train"
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != epochs:
        return None, f"{path} has {len(rows)} rows, expected {epochs}"
    try:
        values = [[float(x) for x in row.split("\t")[1:]] for row in rows]
    except ValueError as exc:
        return None, f"{path} unparseable: {exc}"
    if not all(math.isfinite(v) for row in values for v in row):
        return None, f"{path} holds a non-finite loss"
    return values[-1][0], None


def segment_files(out_dir: Path, lengths: dict[str, int]) -> tuple[list[Path], str | None]:
    """One .seg.txt per video with exactly T lines."""
    seg_dir = out_dir / "segments"
    files = []
    for vid, t in lengths.items():
        path = seg_dir / f"{vid}.seg.txt"
        if not path.exists():
            return files, f"{path} missing after segment"
        n = path.read_bytes().count(b"\n")
        if n != t:
            return files, f"{path} has {n} lines, video has {t} frames"
        files.append(path)
    return files, None


def eval_mof(out_dir: Path, scope: str) -> tuple[float | None, str | None]:
    path = out_dir / f"metrics_{scope}.json"
    if not path.exists():
        return None, f"{path} missing after eval"
    try:
        mof = float(json.loads(path.read_text(encoding="utf-8"))["mof"])
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"{path} unreadable: {exc}"
    if not 0.0 <= mof <= 1.0:
        return None, f"{path} MoF {mof} outside [0, 1]"
    return mof, None


def predictions(out_dir: Path, n_videos: int) -> str | None:
    path = out_dir / "activity_predictions.tsv"
    if not path.exists():
        return f"{path} missing after recognize"
    n = len(path.read_text(encoding="utf-8").splitlines()) - 1
    return None if n == n_videos else f"{path} has {n} rows, corpus has {n_videos} videos"
