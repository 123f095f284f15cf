"""Corpus generation and bit-exact dataset IO.

Feature files store float32 ("CADF"), ground truth stores u32 action ids
with 0 = background ("CADG"); a JSON manifest ties a corpus together.
A corpus read from a manifest reads each video's features, as the float32
values stored, when they are used: training reads a video at its step,
once per epoch, and promotes it to float64; inference reads it one row
block at a time.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import re
import struct
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"CADF"
GT_MAGIC = b"CADG"
FORMAT_VERSION = 1

# Action means are drawn at this multiple of the minimum separation so the
# rejection loop rarely triggers while clusters stay moderately close.
MEAN_SPREAD = 1.6
_MAX_MEAN_ATTEMPTS = 1000


class CorpusError(Exception):
    """Malformed corpus file or infeasible generator settings."""


@dataclass(frozen=True)
class FeatureFile:
    """A feature file whose header and size `read_corpus` has checked."""

    path: Path
    shape: tuple  # (T, d), from the header

    def read(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows `start:stop` of the file's float32 values as stored.

        Each read checks the file again as `read_corpus` checked it, and
        checks the rows it reads for non-finite values.
        """
        shape, values = _read_array(
            self.path, FEATURE_MAGIC, "<f4", 2, "feature values", slice(start, stop)
        )
        if shape != self.shape:
            raise CorpusError(f"{self.path}: now holds {shape[0]} x {shape[1]} features, "
                              f"not the {self.shape[0]} x {self.shape[1]} read before")
        return values


class FeatureSequence:
    """One video: frame features plus activity and optional frame actions.

    `features` is given as a T x d array, which is kept as float64, or as
    the `FeatureFile` that `read_corpus` checked.  Then each use of
    `.features`, or of `read` for a range of rows, reads the file's
    float32 values, as stored, and nothing keeps them: a corpus read from
    a manifest holds only its ground truth.  Training holds a video's
    features from its step's read to its backward; inference reads them
    one row block at a time.  `n_frames` and `feature_dim` come from the
    header.
    """

    def __init__(self, video_id: str, activity: int, features, gt_actions=None):
        if not isinstance(features, FeatureFile):
            features = np.asarray(features, dtype=np.float64)
        if len(features.shape) != 2 or features.shape[0] < 1:
            raise ValueError(f"video {video_id!r}: features must be T x d, T >= 1")
        if gt_actions is not None:
            gt_actions = np.asarray(gt_actions, dtype=np.int64)
            if gt_actions.shape != features.shape[:1]:
                raise ValueError(
                    f"video {video_id!r}: ground truth length "
                    f"{gt_actions.shape} does not match T={features.shape[0]}"
                )
        self.video_id = video_id
        self.activity = activity  # 1-based activity class
        self.gt_actions = gt_actions  # T action ids, 1-based, 0 = background
        self._features = features

    @property
    def features(self) -> np.ndarray:
        """T x d; float64 as given, or float32 read from a `FeatureFile` at each use."""
        return self.read()

    def read(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows `start:stop` of `features`; of a `FeatureFile`, only those rows are read."""
        features = self._features
        if isinstance(features, FeatureFile):
            return features.read(start, stop)
        return features[start:stop]

    @property
    def path(self) -> Path | None:
        """The feature file read, or None for features given as an array."""
        return self._features.path if isinstance(self._features, FeatureFile) else None

    @property
    def n_frames(self) -> int:
        return self._features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self._features.shape[1]


@dataclass
class Corpus:
    name: str
    n_activities: int
    activity_names: list
    videos: list
    canonical_actions: list | None = None  # generator metadata, per activity


def require_int(name: str, value, low: int) -> None:
    """Reject a config value that is not an integer >= `low`; bools and floats included."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def require_number(name: str, value, ok, rule: str) -> None:
    """Reject a config value that is not a finite real number satisfying `ok`; bools included."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and math.isfinite(value) and ok(value)):
        raise ValueError(f"{name} must be a number {rule}, got {value!r}")


@dataclass
class CorpusSpec:
    """Knobs for the procedural corpus generator."""

    n_activities: int = 4
    n_actions: int = 10
    shared_actions: int = 3  # actions appearing in >= 2 activities
    actions_per_activity: tuple = (2, 8)  # sanity bounds on list sizes
    videos_per_activity: int = 25
    frames_range: tuple = (100, 300)
    feature_dim: int = 32
    cluster_separation: float = 6.0  # min inter-mean distance, units of noise
    noise: float = 1.0
    drop_prob: float = 0.2  # chance an action is omitted from a video
    background_ratio: float = 0.0  # fraction of extra background frames
    seed: int = 0

    def __post_init__(self):
        for name in ("n_activities", "n_actions", "videos_per_activity", "feature_dim"):
            require_int(name, getattr(self, name), 1)
        require_int("shared_actions", self.shared_actions, 0)
        require_int("seed", self.seed, 0)
        for name in ("actions_per_activity", "frames_range"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError(f"{name} must be a list of two integers, got {pair!r}")
            low, high = pair
            require_int(f"{name} low", low, 1)
            require_int(f"{name} high", high, low)
        if self.shared_actions > self.n_actions:
            raise ValueError("shared_actions cannot exceed n_actions")
        if self.shared_actions > 0 and self.n_activities < 2:
            raise ValueError("shared actions need at least two activities")
        if self.actions_per_activity[0] > self.n_actions:
            raise ValueError("actions_per_activity lower bound exceeds n_actions")
        require_number("cluster_separation", self.cluster_separation, lambda x: x > 0, "> 0")
        require_number("drop_prob", self.drop_prob, lambda x: 0 <= x < 1, "in [0, 1)")
        for name in ("noise", "background_ratio"):
            require_number(name, getattr(self, name), lambda x: x >= 0, ">= 0")


def _activity_pairs(c: int) -> list:
    """Deterministic pair order: disjoint pairs first, then the rest."""
    disjoint = [(2 * i, 2 * i + 1) for i in range(c // 2)]
    rest = [p for p in combinations(range(c), 2) if p not in disjoint]
    return disjoint + rest


def _assign_actions(spec: CorpusSpec) -> list:
    """Which actions (1-based) belong to each activity (0-based list index).

    Shared actions go two-per-pair down a fixed pair enumeration, so specs
    with several shared actions produce both heavily-sharing and disjoint
    activity pairs; exclusive actions round-robin.
    """
    members = [set() for _ in range(spec.n_activities)]
    pairs = _activity_pairs(spec.n_activities)
    for s in range(spec.shared_actions):
        a, b = pairs[(s // 2) % len(pairs)]
        members[a].add(s + 1)
        members[b].add(s + 1)
    for action in range(spec.shared_actions + 1, spec.n_actions + 1):
        smallest = min(range(spec.n_activities), key=lambda i: (len(members[i]), i))
        members[smallest].add(action)
    lo, hi = spec.actions_per_activity
    for idx, actions in enumerate(members):
        if not lo <= len(actions) <= hi:
            raise CorpusError(
                f"activity {idx + 1} would have {len(actions)} actions, outside "
                f"[{lo}, {hi}]; adjust n_actions/shared_actions/actions_per_activity"
            )
    return [sorted(m) for m in members]


def _sample_means(spec: CorpusSpec, rng: np.random.Generator) -> np.ndarray:
    """Action means with pairwise distances >= cluster_separation * noise."""
    unit = spec.noise if spec.noise > 0.0 else 1.0  # noiseless corpora still separate
    threshold = spec.cluster_separation * unit
    scale = MEAN_SPREAD * threshold / math.sqrt(2.0 * spec.feature_dim)
    means = rng.normal(0.0, scale, (spec.n_actions, spec.feature_dim))
    for _ in range(_MAX_MEAN_ATTEMPTS):
        if spec.n_actions == 1:
            return means
        diff = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] >= threshold:
            return means
        means[i] = rng.normal(0.0, scale, spec.feature_dim)
    raise CorpusError(
        "could not separate action means; increase feature_dim or lower "
        "cluster_separation"
    )


def _segment_lengths(total: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Split `total` frames into k segments, proportions uniform in [1, 2]."""
    weights = rng.uniform(1.0, 2.0, k)
    raw = weights / weights.sum() * total
    lengths = np.floor(raw).astype(np.int64)
    lengths = np.maximum(lengths, 1)
    # largest remainders absorb the rounding gap (ties by lower index)
    gap = total - int(lengths.sum())
    if gap > 0:
        order = np.lexsort((np.arange(k), -(raw - np.floor(raw))))
        for idx in order[:gap]:
            lengths[idx] += 1
    while gap < 0:
        idx = int(np.argmax(lengths))
        lengths[idx] -= 1
        gap += 1
    return lengths


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Procedural corpus: per-activity canonical action sequences with drops.

    Every action has a fixed mean in feature space; frames are the mean
    plus isotropic Gaussian noise, rounded through float32 so written and
    in-memory corpora match bit-exactly.  Fully deterministic from the
    seed.
    """
    rng = np.random.default_rng(spec.seed)
    members = _assign_actions(spec)
    means = _sample_means(spec, rng)
    canonical = [[int(a) for a in rng.permutation(m)] for m in members]

    videos = []
    t_lo, t_hi = spec.frames_range
    for activity_idx, actions in enumerate(canonical):
        for v in range(spec.videos_per_activity):
            total = int(rng.integers(t_lo, t_hi + 1))
            dropped = rng.random(len(actions)) < spec.drop_prob
            kept = [a for a, d in zip(actions, dropped) if not d]
            if not kept:
                kept = [actions[int(rng.integers(len(actions)))]]
            lengths = _segment_lengths(total, len(kept), rng)
            gt = np.repeat(np.asarray(kept, dtype=np.int64), lengths)
            features = means[gt - 1] + rng.normal(0.0, spec.noise, (total, spec.feature_dim))
            if spec.background_ratio > 0.0:
                n_bg = int(round(spec.background_ratio * total))
                if n_bg:
                    lo_b = means.min() - spec.noise
                    hi_b = means.max() + spec.noise
                    head = n_bg // 2
                    bg = rng.uniform(lo_b, hi_b, (n_bg, spec.feature_dim))
                    features = np.concatenate([bg[:head], features, bg[head:]])
                    gt = np.concatenate(
                        [np.zeros(head, np.int64), gt, np.zeros(n_bg - head, np.int64)]
                    )
            features = features.astype(np.float32).astype(np.float64)
            videos.append(
                FeatureSequence(
                    video_id=f"a{activity_idx + 1:02d}_v{v:03d}",
                    activity=activity_idx + 1,
                    features=features,
                    gt_actions=gt,
                )
            )
    return Corpus(
        name="synthetic",
        n_activities=spec.n_activities,
        activity_names=[f"activity_{i + 1}" for i in range(spec.n_activities)],
        videos=videos,
        canonical_actions=canonical,
    )


# ---------------------------------------------------------------------------
# binary files and manifest


def _write_array(path: Path, magic: bytes, array: np.ndarray, dtype: str) -> None:
    """`magic`, the format version and the shape as u32, then the values as `dtype`."""
    array = np.ascontiguousarray(array, dtype=dtype)
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(f"<{1 + array.ndim}I", FORMAT_VERSION, *array.shape))
        f.write(array.tobytes())


def _read_at(fd: int, buffer: bytearray, offset: int) -> int:
    """Read into `buffer` from byte `offset` of `fd` until it is full or the
    file ends; the number of bytes read."""
    view = memoryview(buffer)
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], offset + done)
        if n == 0:
            break
        done += n
    return done


def _read_array(
    path: Path, magic: bytes, dtype: str, ndim: int, what: str, rows: slice | None = slice(None)
):
    """The shape of the `ndim`-d array `_write_array` wrote, and its `rows`.

    `rows` slices the first axis; None reads no values.  The header, and
    the file's size against it, are checked either way; floating-point
    values read must be finite.  Each CorpusError names `path` first, and
    for a non-finite value gives its byte offset from the file's start.
    Reads are unbuffered and positional: training calls this once per
    video per epoch, and a read buffer would only add to each call.
    """
    header = f"<{1 + ndim}I"
    start = 4 + struct.calcsize(header)
    try:
        f = open(path, "rb", buffering=0)
    except FileNotFoundError:
        raise CorpusError(f"{path}: referenced by manifest but missing") from None
    with f:
        fd = f.fileno()
        size = os.fstat(fd).st_size
        head = bytearray(start)
        del head[_read_at(fd, head, 0):]
        if len(head) < 4:
            raise CorpusError(f"{path}: truncated while reading magic")
        if head[:4] != magic:
            raise CorpusError(f"{path}: bad magic {bytes(head[:4])!r}, expected {magic!r}")
        if len(head) < start:
            raise CorpusError(f"{path}: truncated while reading header")
        version, *shape = struct.unpack_from(header, head, 4)
        if version != FORMAT_VERSION:
            raise CorpusError(f"{path}: unsupported {magic.decode()} format version {version}")
        row_bytes = math.prod(shape[1:]) * np.dtype(dtype).itemsize
        if size < start + shape[0] * row_bytes:
            raise CorpusError(f"{path}: truncated while reading {what}")
        if size > start + shape[0] * row_bytes:
            raise CorpusError(f"{path}: trailing bytes after {what}")
        if rows is None:
            return tuple(shape), None
        lo, hi, _ = rows.indices(shape[0])
        n_rows = max(hi - lo, 0)
        start += lo * row_bytes
        data = bytearray(n_rows * row_bytes)  # a writable buffer, so the array is too
        n_read = _read_at(fd, data, start)
    if n_read != len(data):  # the file shrank since its size was taken
        raise CorpusError(f"{path}: truncated while reading {what}")
    array = np.frombuffer(data, dtype=dtype).reshape(n_rows, *shape[1:])
    # a float64 sum of float32 values overflows only past 10**270 of them,
    # so it is finite exactly when they all are
    if array.dtype.kind == "f" and not math.isfinite(array.sum(dtype=np.float64)):
        bad = int(np.flatnonzero(~np.isfinite(array))[0])
        offset = start + bad * array.itemsize
        raise CorpusError(f"{path}: non-finite value in {what} (byte offset {offset})")
    return tuple(shape), array


def write_corpus(corpus: Corpus, out_dir) -> Path:
    """Write features, ground truth, and manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    entries = []
    has_gt = any(v.gt_actions is not None for v in corpus.videos)
    if has_gt:
        (out_dir / "gt").mkdir(exist_ok=True)
    for video in corpus.videos:
        feature_file = f"features/{video.video_id}.feat"
        _write_array(out_dir / feature_file, FEATURE_MAGIC, video.features, "<f4")
        entry = {
            "id": video.video_id,
            "activity": video.activity,
            "T": video.n_frames,
            "feature_file": feature_file,
        }
        if video.gt_actions is not None:
            gt_file = f"gt/{video.video_id}.gt"
            _write_array(out_dir / gt_file, GT_MAGIC, video.gt_actions, "<u4")
            entry["gt_file"] = gt_file
        entries.append(entry)
    manifest = {
        "dataset_name": corpus.name,
        "C": corpus.n_activities,
        "activity_names": corpus.activity_names,
        "videos": entries,
    }
    if corpus.canonical_actions is not None:
        manifest["canonical_actions"] = corpus.canonical_actions
    manifest_path = out_dir / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def write_json(path: Path, obj) -> None:
    """The one JSON artifact format: keys sorted, two-space indent, a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


# Video ids name the files written per video, so each must be a plain file
# name that cannot reach outside its directory.
_VIDEO_ID = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")
_VIDEO_KEYS = ("id", "activity", "T", "feature_file")


def _check_manifest(manifest, path: Path) -> None:
    """CorpusError naming `path` for a manifest that lacks what the readers use."""
    for key in ("C", "activity_names", "videos"):
        if not isinstance(manifest, dict) or key not in manifest:
            raise CorpusError(f"{path}: manifest has no {key!r}")
    n_activities = manifest["C"]
    if type(n_activities) is not int or n_activities < 1:
        raise CorpusError(f"{path}: 'C' must be a positive integer, got {n_activities!r}")
    names = manifest["activity_names"]
    if not (
        isinstance(names, list)
        and len(names) == n_activities
        and all(isinstance(name, str) for name in names)
    ):
        raise CorpusError(
            f"{path}: 'activity_names' must be a list of C={n_activities} strings, got {names!r}"
        )
    videos = manifest["videos"]
    if not isinstance(videos, list) or not videos:
        raise CorpusError(f"{path}: 'videos' must be a non-empty list")
    seen = set()
    for i, entry in enumerate(videos):
        for key in _VIDEO_KEYS:
            if not isinstance(entry, dict) or key not in entry:
                raise CorpusError(f"{path}: video {i} has no {key!r}")
        vid = entry["id"]
        if not isinstance(vid, str) or not _VIDEO_ID.fullmatch(vid):
            raise CorpusError(f"{path}: video {i} id {vid!r} is not a plain file name")
        if vid in seen:
            raise CorpusError(f"{path}: duplicate video id {vid!r}")
        seen.add(vid)
        activity = entry["activity"]
        if type(activity) is not int or not 1 <= activity <= n_activities:
            raise CorpusError(
                f"{path}: video {vid!r} activity {activity!r} outside [1, {n_activities}]"
            )
        frames = entry["T"]
        if type(frames) is not int or frames < 1:
            raise CorpusError(
                f"{path}: video {vid!r} 'T' must be a positive integer, got {frames!r}"
            )
        for key in ("feature_file", "gt_file"):
            if not isinstance(entry.get(key, ""), str):
                raise CorpusError(
                    f"{path}: video {vid!r} {key!r} must be a path string, got {entry[key]!r}"
                )


def read_corpus(manifest_path) -> Corpus:
    """Load a corpus: the manifest, every file's header and size, and the ground truth.

    Feature values are read where they are used (see `FeatureSequence`).
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise CorpusError(f"{manifest_path}: manifest not found")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise CorpusError(f"{manifest_path}: unparseable manifest: {exc}") from exc
    _check_manifest(manifest, manifest_path)
    base = manifest_path.parent
    videos = []
    for entry in manifest["videos"]:
        feature_path = base / entry["feature_file"]
        shape, _ = _read_array(feature_path, FEATURE_MAGIC, "<f4", 2, "feature values", None)
        if shape[0] != entry["T"]:
            raise CorpusError(
                f"{feature_path}: has {shape[0]} frames, manifest says {entry['T']}"
            )
        if shape[1] < 1:
            raise CorpusError(f"{feature_path}: has feature dim 0, expected at least 1")
        if videos and shape[1] != videos[0].feature_dim:
            raise CorpusError(
                f"{feature_path}: video {entry['id']!r} has feature dim {shape[1]}, "
                f"but video {videos[0].video_id!r} has {videos[0].feature_dim}"
            )
        gt = None
        if entry.get("gt_file"):
            gt_path = base / entry["gt_file"]
            _, gt = _read_array(gt_path, GT_MAGIC, "<u4", 1, "action ids")
            if len(gt) != entry["T"]:
                raise CorpusError(
                    f"{gt_path}: has {len(gt)} frames, manifest says {entry['T']}"
                )
        videos.append(
            FeatureSequence(
                video_id=entry["id"],
                activity=int(entry["activity"]),
                features=FeatureFile(feature_path, shape),
                gt_actions=gt,
            )
        )
    return Corpus(
        name=manifest.get("dataset_name", "unnamed"),
        n_activities=int(manifest["C"]),
        activity_names=list(manifest["activity_names"]),
        videos=videos,
        canonical_actions=manifest.get("canonical_actions"),
    )
