import json
import os
import re
import struct

import numpy as np
import pytest

from protoseg.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from protoseg.data import (
    FEATURE_MAGIC,
    Corpus,
    CorpusError,
    CorpusSpec,
    FeatureFile,
    FeatureSequence,
    _write_array,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from protoseg.losses import LossConfig
from protoseg.model import ModelConfig, init_parameters
from protoseg.trainer import TrainConfig


def small_spec(**kw):
    defaults = dict(
        n_activities=3,
        n_actions=6,
        shared_actions=2,
        videos_per_activity=4,
        frames_range=(30, 60),
        feature_dim=8,
        cluster_separation=6.0,
        noise=1.0,
        drop_prob=0.2,
        seed=0,
    )
    defaults.update(kw)
    return CorpusSpec(**defaults)


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = generate_corpus(small_spec())
        b = generate_corpus(small_spec())
        assert len(a.videos) == len(b.videos)
        for va, vb in zip(a.videos, b.videos):
            assert va.video_id == vb.video_id
            assert va.features.tobytes() == vb.features.tobytes()
            assert np.array_equal(va.gt_actions, vb.gt_actions)

    def test_different_seed_differs(self):
        a = generate_corpus(small_spec(seed=0))
        b = generate_corpus(small_spec(seed=1))
        assert a.videos[0].features.tobytes() != b.videos[0].features.tobytes()

    def test_zero_noise_nearest_mean_perfect(self):
        corpus = generate_corpus(small_spec(noise=0.0))
        # recover the means from frames, then classify every frame
        means = {}
        for video in corpus.videos:
            for action in np.unique(video.gt_actions):
                frames = video.features[video.gt_actions == action]
                means.setdefault(int(action), frames[0])
                assert np.allclose(frames, frames[0])
        actions = sorted(means)
        mean_mat = np.stack([means[a] for a in actions])
        for video in corpus.videos:
            d = ((video.features[:, None, :] - mean_mat[None]) ** 2).sum(axis=2)
            predicted = np.array(actions)[d.argmin(axis=1)]
            assert np.array_equal(predicted, video.gt_actions)

    def test_no_sharing_when_disabled(self):
        corpus = generate_corpus(small_spec(shared_actions=0))
        seen = {}
        for activity, actions in enumerate(corpus.canonical_actions, start=1):
            for action in actions:
                seen.setdefault(action, set()).add(activity)
        assert all(len(acts) == 1 for acts in seen.values())

    def test_shared_actions_span_activities(self):
        corpus = generate_corpus(small_spec())
        in_gt = {}
        for video in corpus.videos:
            for action in np.unique(video.gt_actions):
                in_gt.setdefault(int(action), set()).add(video.activity)
        shared = [a for a, acts in in_gt.items() if len(acts) >= 2]
        assert len(shared) >= 1

    def test_video_actions_follow_canonical_order(self):
        corpus = generate_corpus(small_spec())
        for video in corpus.videos:
            canonical = corpus.canonical_actions[video.activity - 1]
            # segment sequence (order of first appearance) must be a
            # subsequence of the canonical list
            seq = [int(video.gt_actions[0])]
            for a in video.gt_actions[1:]:
                if a != seq[-1]:
                    seq.append(int(a))
            assert len(seq) == len(set(seq))
            positions = [canonical.index(a) for a in seq]
            assert positions == sorted(positions)
            assert set(seq) <= set(canonical)

    def test_mean_separation_honored(self):
        spec = small_spec()
        corpus = generate_corpus(spec)
        means = {}
        for video in corpus.videos:
            for action in np.unique(video.gt_actions):
                if action not in means:
                    frames = video.features[video.gt_actions == action]
                    means[int(action)] = frames.mean(axis=0)
        ids = sorted(means)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                dist = np.linalg.norm(means[a] - means[b])
                # empirical means wobble by the noise; allow slack
                assert dist > 0.8 * spec.cluster_separation * spec.noise

    def test_frame_share_close_to_uniform(self):
        # within an activity every action is treated symmetrically, so the
        # expected per-action frame share is 1/k; Monte-Carlo at 100 videos
        spec = small_spec(videos_per_activity=100, drop_prob=0.2, seed=3)
        corpus = generate_corpus(spec)
        for activity, actions in enumerate(corpus.canonical_actions, start=1):
            counts = {a: 0 for a in actions}
            total = 0
            for video in corpus.videos:
                if video.activity != activity:
                    continue
                for a in actions:
                    c = int(np.sum(video.gt_actions == a))
                    counts[a] += c
                    total += c
            for a in actions:
                assert abs(counts[a] / total - 1.0 / len(actions)) < 0.05

    def test_background_mode(self):
        corpus = generate_corpus(small_spec(background_ratio=0.3))
        for video in corpus.videos:
            n_bg = int(np.sum(video.gt_actions == 0))
            assert n_bg > 0
            assert abs(n_bg / video.n_frames - 0.3 / 1.3) < 0.1

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_activities=1, shared_actions=2, n_actions=5)
        with pytest.raises(CorpusError):
            generate_corpus(small_spec(actions_per_activity=(5, 8)))


class TestCorpusIO:
    def test_round_trip_bit_exact(self, tmp_path):
        corpus = generate_corpus(small_spec())
        manifest = write_corpus(corpus, tmp_path)
        loaded = read_corpus(manifest)
        assert loaded.n_activities == corpus.n_activities
        assert loaded.activity_names == corpus.activity_names
        assert loaded.canonical_actions == corpus.canonical_actions
        for va, vb in zip(corpus.videos, loaded.videos):
            assert va.video_id == vb.video_id
            assert va.activity == vb.activity
            # the generator rounds through float32; the file stores those values
            assert vb.features.dtype == np.float32
            assert vb.features.astype(np.float64).tobytes() == va.features.tobytes()
            assert np.array_equal(va.gt_actions, vb.gt_actions)

    def test_write_is_deterministic(self, tmp_path):
        corpus = generate_corpus(small_spec())
        m1 = write_corpus(corpus, tmp_path / "a")
        m2 = write_corpus(corpus, tmp_path / "b")
        assert m1.read_bytes() == m2.read_bytes()
        for video in corpus.videos:
            f1 = (tmp_path / "a" / "features" / f"{video.video_id}.feat").read_bytes()
            f2 = (tmp_path / "b" / "features" / f"{video.video_id}.feat").read_bytes()
            assert f1 == f2

    def test_missing_feature_file_named(self, tmp_path):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        victim = tmp_path / "features" / f"{corpus.videos[0].video_id}.feat"
        victim.unlink()
        with pytest.raises(CorpusError, match=victim.name):
            read_corpus(manifest)

    def test_wrong_frame_count_rejected(self, tmp_path):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        text = manifest.read_text().replace(
            f'"T": {corpus.videos[0].n_frames}', '"T": 1', 1
        )
        manifest.write_text(text)
        with pytest.raises(CorpusError, match="manifest says"):
            read_corpus(manifest)

    @pytest.mark.parametrize("victims", [[0, 1, 2], [1]])
    def test_zero_width_feature_file_is_refused(self, tmp_path, victims):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        paths = [tmp_path / "features" / f"{v.video_id}.feat" for v in corpus.videos]
        for i in victims:
            _write_array(paths[i], FEATURE_MAGIC, np.zeros((corpus.videos[i].n_frames, 0)), "<f4")
        with pytest.raises(CorpusError) as raised:
            read_corpus(manifest)
        path = paths[victims[0]]
        assert str(raised.value) == f"{path}: has feature dim 0, expected at least 1"

    def test_bad_magic_rejected(self, tmp_path):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        victim = tmp_path / "features" / f"{corpus.videos[0].video_id}.feat"
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"NOPE"
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorpusError, match="magic"):
            read_corpus(manifest)

    def test_truncated_gt_rejected(self, tmp_path):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        victim = tmp_path / "gt" / f"{corpus.videos[0].video_id}.gt"
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-5])
        with pytest.raises(CorpusError, match="truncated"):
            read_corpus(manifest)

    @pytest.mark.parametrize("kind, header", [("features", "<II"), ("gt", "<I")])
    def test_declared_size_beyond_file_is_truncation(self, tmp_path, kind, header):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        suffix = "feat" if kind == "features" else "gt"
        victim = tmp_path / kind / f"{corpus.videos[0].video_id}.{suffix}"
        blob = bytearray(victim.read_bytes())
        size = struct.calcsize(header)
        blob[8 : 8 + size] = struct.pack(header, *[0xFFFFFFFF] * (size // 4))
        victim.write_bytes(bytes(blob))
        with pytest.raises(CorpusError, match=f"{re.escape(str(victim))}: truncated"):
            read_corpus(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            read_corpus(tmp_path / "nope" / "manifest.json")

    @pytest.mark.parametrize("kind", ["features", "gt"])
    def test_each_damage_has_its_message(self, tmp_path, kind):
        corpus = generate_corpus(small_spec(videos_per_activity=1, frames_range=(3, 4)))
        manifest = write_corpus(corpus, tmp_path)
        suffix, header, what = (
            ("feat", 12, "feature values") if kind == "features" else ("gt", 8, "action ids")
        )
        path = tmp_path / kind / f"{corpus.videos[0].video_id}.{suffix}"
        blob = path.read_bytes()

        def message(damaged):
            if damaged is None:
                path.unlink()
            else:
                path.write_bytes(damaged)
            with pytest.raises(CorpusError) as raised:
                read_corpus(manifest)
            return str(raised.value)

        for cut in range(len(blob)):
            part = "magic" if cut < 4 else "header" if cut < 4 + header else what
            assert message(blob[:cut]) == f"{path}: truncated while reading {part}"
        assert message(blob + b"\0") == f"{path}: trailing bytes after {what}"
        bad = blob[:4] + struct.pack("<I", 2) + blob[8:]
        assert message(bad) == f"{path}: unsupported {blob[:4].decode()} format version 2"
        assert message(b"NOPE" + blob[4:]) == f"{path}: bad magic b'NOPE', expected {blob[:4]!r}"
        assert message(None) == f"{path}: referenced by manifest but missing"

    def test_manifest_not_utf8(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"C": 2\xff}')
        with pytest.raises(CorpusError) as raised:
            read_corpus(manifest)
        assert str(raised.value).startswith(f"{manifest}: unparseable manifest: ")

    @pytest.mark.parametrize("frames", [0, -3, True, 2.0, "40"])
    def test_frame_count_must_be_positive_integer(self, tmp_path, frames):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        text = json.loads(manifest.read_text())
        text["videos"][1]["T"] = frames
        if frames == 0:  # and a feature file that agrees
            _write_array(tmp_path / text["videos"][1]["feature_file"], FEATURE_MAGIC,
                         np.zeros((0, 8)), "<f4")
        manifest.write_text(json.dumps(text))
        with pytest.raises(CorpusError) as raised:
            read_corpus(manifest)
        vid = text["videos"][1]["id"]
        assert str(raised.value) == (
            f"{manifest}: video {vid!r} 'T' must be a positive integer, got {frames!r}"
        )

    @pytest.mark.parametrize("key", ["C", "activity"])
    def test_boolean_count_or_activity_is_refused(self, tmp_path, key):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        text = json.loads(manifest.read_text())
        (text if key == "C" else text["videos"][0])[key] = True
        manifest.write_text(json.dumps(text))
        with pytest.raises(CorpusError) as raised:
            read_corpus(manifest)
        assert str(raised.value).startswith(f"{manifest}: ") and "True" in str(raised.value)

    @pytest.mark.parametrize(
        "key, value",
        [("feature_file", 7), ("gt_file", 7), ("gt_file", None), ("activity_names", 3),
         ("activity_names", "ab"), ("activity_names", ["a"]), ("activity_names", [7, "b", "c"]),
         ("activity_names", ["a", "b", "c", "d"])],
    )
    def test_non_string_file_or_non_list_names_is_refused(self, tmp_path, key, value):
        corpus = generate_corpus(small_spec(videos_per_activity=1))
        manifest = write_corpus(corpus, tmp_path)
        text = json.loads(manifest.read_text())
        (text if key == "activity_names" else text["videos"][0])[key] = value
        manifest.write_text(json.dumps(text))
        with pytest.raises(CorpusError) as raised:
            read_corpus(manifest)
        assert str(raised.value).startswith(f"{manifest}: ") and repr(value) in str(raised.value)


class TestLazyFeatures:
    """A corpus read from a manifest reads each feature file at each use."""

    def _corpus(self, tmp_path):
        corpus = generate_corpus(small_spec(videos_per_activity=1, frames_range=(3, 4)))
        manifest = write_corpus(corpus, tmp_path)
        video = read_corpus(manifest).videos[0]
        return corpus.videos[0], video, tmp_path / "features" / f"{video.video_id}.feat"

    def test_header_gives_shape_and_nothing_is_kept(self, tmp_path):
        made, video, path = self._corpus(tmp_path)
        assert isinstance(video._features, FeatureFile)
        assert (video.n_frames, video.feature_dim) == made.features.shape
        first, second = video.features, video.features
        assert first.dtype == second.dtype == np.float32
        assert not np.shares_memory(first, second) and first.flags.writeable
        assert first.tobytes() == second.tobytes()
        assert first.astype(np.float64).tobytes() == made.features.tobytes()

    def test_file_truncated_after_reading_corpus_is_refused(self, tmp_path):
        _, video, path = self._corpus(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CorpusError) as raised:
            video.features
        assert str(raised.value) == f"{path}: truncated while reading feature values"

    def test_file_reshaped_after_reading_corpus_is_refused(self, tmp_path):
        _, video, path = self._corpus(tmp_path)
        t, d = video.n_frames, video.feature_dim
        _write_array(path, FEATURE_MAGIC, np.zeros((d, t)), "<f4")
        with pytest.raises(CorpusError) as raised:
            video.features
        assert str(raised.value) == (
            f"{path}: now holds {d} x {t} features, not the {t} x {d} read before"
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_named_with_its_offset(self, tmp_path, bad):
        _, video, path = self._corpus(tmp_path)
        values = video.features.astype(np.float32)
        values[1, 5] = values[2, 0] = bad
        _write_array(path, FEATURE_MAGIC, values, "<f4")
        read_corpus(tmp_path / "manifest.json")  # the header still checks out
        with pytest.raises(CorpusError) as raised:
            video.features
        offset = 16 + 4 * (video.feature_dim + 5)
        assert str(raised.value) == (
            f"{path}: non-finite value in feature values (byte offset {offset})"
        )

    def test_a_row_range_reads_those_rows_alone(self, tmp_path):
        made, video, _ = self._corpus(tmp_path)
        whole = video.features
        for start, stop in ((0, 1), (1, 3), (2, None), (0, None)):
            rows = video.read(start, stop)
            assert rows.dtype == np.float32 and rows.tobytes() == whole[start:stop].tobytes()
        assert made.read(1, 3).tobytes() == made.features[1:3].tobytes()  # float64, in memory

    def test_a_row_range_checks_its_rows_and_the_whole_file(self, tmp_path):
        _, video, path = self._corpus(tmp_path)
        values = video.features
        values[2, 3] = np.nan
        _write_array(path, FEATURE_MAGIC, values, "<f4")
        assert video.read(0, 2).tobytes() == values[:2].tobytes()  # the rows before it
        with pytest.raises(CorpusError) as raised:
            video.read(2, 3)
        offset = 16 + 4 * (2 * video.feature_dim + 3)  # counted from the file's start
        assert str(raised.value) == (
            f"{path}: non-finite value in feature values (byte offset {offset})"
        )
        path.write_bytes(path.read_bytes()[:-1])  # cuts the last row
        with pytest.raises(CorpusError) as raised:
            video.read(0, 1)
        assert str(raised.value) == f"{path}: truncated while reading feature values"

    def test_short_reads_are_resumed_until_the_file_ends(self, tmp_path, monkeypatch):
        _, video, path = self._corpus(tmp_path)
        whole = video.features
        preadv, offsets = os.preadv, []

        def seven_bytes_at_a_time(fd, buffers, offset):
            offsets.append(offset)
            return preadv(fd, [memoryview(buffers[0])[:7]], offset)

        monkeypatch.setattr(os, "preadv", seven_bytes_at_a_time)
        assert video.features.tobytes() == whole.tobytes()
        assert offsets == [0, 7, 14, *range(16, 16 + whole.size * 4, 7)]
        # a file that ends early mid-read, as one that shrank would
        monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset:
                            0 if offset >= 30 else seven_bytes_at_a_time(fd, buffers, offset))
        with pytest.raises(CorpusError) as raised:
            video.features
        assert str(raised.value) == f"{path}: truncated while reading feature values"


class TestFeatureSequence:
    def test_gt_length_validated(self):
        with pytest.raises(ValueError):
            FeatureSequence("v", 1, np.zeros((4, 2)), np.zeros(3, dtype=np.int64))

    def test_empty_video_rejected(self):
        with pytest.raises(ValueError):
            FeatureSequence("v", 1, np.zeros((0, 2)))


def _tiny_file(kind, tmp_path):
    """A small file of one binary format, and a call that reads it."""
    if kind == "CADC":
        cfg = ModelConfig(input_dim=2, n_activities=2, n_prototypes=2, embed_dim=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(
            Checkpoint(init_parameters(cfg, 0), cfg, TrainConfig(), LossConfig(), 1, "00"),
            path,
        )
        return path, lambda: load_checkpoint(path)
    corpus = generate_corpus(small_spec(videos_per_activity=1, frames_range=(3, 4)))
    manifest = write_corpus(corpus, tmp_path)
    vid = corpus.videos[0].video_id
    path = tmp_path / "features" / f"{vid}.feat" if kind == "CADF" else tmp_path / "gt" / f"{vid}.gt"
    return path, lambda: read_corpus(manifest)


@pytest.mark.parametrize("kind", ["CADF", "CADG", "CADC"])
def test_truncated_or_extended_file_is_a_named_error(tmp_path, kind):
    path, load = _tiny_file(kind, tmp_path)
    blob = path.read_bytes()
    assert blob[:4] == kind.encode()
    for damaged in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        path.write_bytes(damaged)
        with pytest.raises((CorpusError, CheckpointError), match=re.escape(str(path)) + ": "):
            load()
