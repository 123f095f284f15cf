"""Versioned binary checkpoint format.

Layout (all integers little-endian u32):
  magic "CADC" | format version | metadata length | metadata JSON (utf-8)
  then each tensor in `model.parameter_layout` order, as row-major
  float64 little-endian values.

The tensors carry no headers: their shapes follow from the metadata's
model section through `model.parameter_layout`.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import require_int
from .losses import LossConfig
from .model import ModelConfig, parameter_layout, validate_parameters
from .trainer import TrainConfig

MAGIC = b"CADC"
FORMAT_VERSION = 2
_META_OFFSET = 12  # metadata JSON starts after magic, version and length
# the metadata: `save_checkpoint` writes and `load_checkpoint` checks these `Checkpoint` fields
_META_KEYS = ("model", "train", "loss", "epoch", "rng_digest")
_META_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "loss": LossConfig}


class CheckpointError(Exception):
    """Malformed checkpoint file; names the file and the failing byte offset."""

    def __init__(self, path, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(f"{path}: {message}")
        self.path = path
        self.offset = offset


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]  # keyed by model.parameter_layout
    model: ModelConfig
    train: TrainConfig
    loss: LossConfig
    epoch: int
    rng_digest: str


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    validate_parameters(ckpt.params, ckpt.model)
    meta = {key: getattr(ckpt, key) for key in _META_KEYS}
    for section in _META_SECTIONS:
        meta[section] = asdict(meta[section])
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(meta_bytes)))
        f.write(meta_bytes)
        for name in parameter_layout(ckpt.model):
            f.write(np.asarray(ckpt.params[name], dtype="<f8").tobytes())


def _check_keys(path: Path, found, expected, what: str) -> None:
    """`found` must be a JSON object holding exactly the `expected` keys."""
    if not isinstance(found, dict):
        raise CheckpointError(path, f"{what} is not a JSON object", _META_OFFSET)
    missing = sorted(set(expected) - set(found))
    unknown = sorted(set(found) - set(expected))
    if missing or unknown:
        raise CheckpointError(
            path, f"{what} has missing keys {missing}, unknown keys {unknown}", _META_OFFSET
        )


def _read_exact(f, n: int, what: str, path: Path, into=bytearray):
    """The next `n` bytes of the checkpoint `f` at `path`, read into `into(n)`, a new
    writable buffer of n bytes; a CheckpointError if `f` holds fewer."""
    offset = f.tell()
    data = into(n if n <= os.fstat(f.fileno()).st_size - offset else 0)
    if f.readinto(data) != n:
        raise CheckpointError(path, f"truncated checkpoint while reading {what}", offset)
    return data


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as f:
        magic = bytes(_read_exact(f, 4, "magic", path))
        if magic != MAGIC:
            raise CheckpointError(path, f"bad magic {magic!r}, expected {MAGIC!r}", 0)
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version", path))
        if version != FORMAT_VERSION:
            raise CheckpointError(
                path,
                f"incompatible checkpoint format version {version}, "
                f"this build reads version {FORMAT_VERSION}",
                4,
            )
        (meta_len,) = struct.unpack("<I", _read_exact(f, 4, "metadata length", path))
        meta_bytes = _read_exact(f, meta_len, "metadata", path)
        try:
            meta = json.loads(meta_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(path, f"unparseable metadata: {exc}", _META_OFFSET) from exc
        _check_keys(path, meta, _META_KEYS, "metadata")
        for section, cls in _META_SECTIONS.items():
            names = [x.name for x in fields(cls)]
            _check_keys(path, meta[section], names, f"metadata section {section!r}")
        try:
            model_cfg, train_cfg, loss_cfg = (
                cls(**meta[section]) for section, cls in _META_SECTIONS.items()
            )
            epoch, rng_digest = meta["epoch"], meta["rng_digest"]
            require_int("epoch", epoch, 0)
            if type(rng_digest) is not str:
                raise ValueError(f"rng_digest must be a string, got {rng_digest!r}")
        except (TypeError, ValueError) as exc:
            raise CheckpointError(path, f"invalid metadata: {exc}", _META_OFFSET) from exc

        tensors, starts = {}, {}
        for name, (shape, _) in parameter_layout(model_cfg).items():
            starts[name] = f.tell()
            # read into the array itself, so nothing is copied
            values = _read_exact(
                f, 8 * math.prod(shape), f"{name} values", path, lambda n: np.empty(n // 8, "<f8")
            )
            tensors[name] = values.reshape(shape)
        if f.read(1):
            raise CheckpointError(path, "trailing bytes after last tensor", f.tell() - 1)

    for name, values in tensors.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise CheckpointError(
                path,
                f"invalid checkpoint contents: {name} contains non-finite values",
                starts[name] + 8 * int(bad[0]),
            )
    return Checkpoint(tensors, model_cfg, train_cfg, loss_cfg, epoch, rng_digest)
