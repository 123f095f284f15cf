import dataclasses
import gc
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg import losses as losses_mod
from protoseg.checkpoint import (
    Checkpoint,
    CheckpointError,
    FORMAT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from protoseg.data import (
    CorpusSpec,
    FeatureFile,
    FeatureSequence,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from protoseg.losses import LossConfig
from protoseg.model import ModelConfig, infer, init_parameters, parameter_layout
from protoseg.rng import Xoshiro256StarStar
from protoseg.trainer import (
    AdamState,
    NonFiniteLossError,
    TrainConfig,
    adam_step,
    train,
    video_loss,
)

from conftest import (
    unfused_activity_loss,
    unfused_affinity,
    unfused_linear,
    unfused_mean_latent,
    unfused_softmax_affine,
    unfused_tmse,
    unfused_total_loss,
)


def toy_corpus(seed=0, separation=10.0, videos_per_class=3, t_frames=10):
    """Two activities with far-apart constant features; linearly separable."""
    rng = np.random.default_rng(seed)
    corpus = []
    for activity, center in ((1, separation), (2, -separation)):
        for v in range(videos_per_class):
            feats = center + 0.1 * rng.normal(size=(t_frames, 3))
            corpus.append(
                FeatureSequence(f"toy{activity}_{v}", activity, feats)
            )
    return corpus


def toy_model_cfg():
    return ModelConfig(input_dim=3, n_activities=2, n_prototypes=2, embed_dim=3)


class TestAdamStep:
    def _scalar_params(self, value=0.0):
        cfg = toy_model_cfg()
        params = init_parameters(cfg, seed=0)
        return cfg, params

    def test_zero_gradient_leaves_parameters(self):
        cfg, params = self._scalar_params()
        before = {n: a.copy() for n, a in params.items()}
        grads = {n: np.zeros_like(a) for n, a in params.items()}
        adam_step(params, grads, AdamState.zeros_like(params), TrainConfig())
        for name, arr in before.items():
            assert np.array_equal(params[name], arr)

    def test_first_step_magnitude_is_lr(self):
        # p=0, g=1: bias correction makes |delta| = lr/(1 + eps) ~ lr
        cfg, params = self._scalar_params()
        params["embed_b"][...] = 0.0
        grads = {n: np.zeros_like(a) for n, a in params.items()}
        grads["embed_b"][...] = 1.0
        tc = TrainConfig(lr=0.001)
        adam_step(params, grads, AdamState.zeros_like(params), tc)
        assert np.allclose(params["embed_b"], -tc.lr, atol=1e-9)

    def test_constant_gradient_moves_against_sign(self):
        cfg, params = self._scalar_params()
        start = params["embed_b"].copy()
        grads = {n: np.zeros_like(a) for n, a in params.items()}
        grads["embed_b"][...] = 0.7
        state = AdamState.zeros_like(params)
        tc = TrainConfig(lr=0.01)
        for _ in range(50):
            adam_step(params, grads, state, tc)
        assert np.all(params["embed_b"] < start - 0.1)


class TestTrain:
    def test_lr_zero_keeps_parameters_bit_exact(self):
        corpus = toy_corpus(videos_per_class=1)
        cfg = toy_model_cfg()
        tc = TrainConfig(lr=0.0, epochs=1, batch_size=8, seed=0)
        result = train(corpus, cfg, tc, LossConfig())
        init = init_parameters(cfg, tc.seed)  # the draw train starts from
        assert list(result.params) == list(init)
        for name, arr in init.items():
            assert np.array_equal(result.params[name], arr)

    def test_same_seed_bit_identical(self, tmp_path):
        corpus = toy_corpus()
        cfg = toy_model_cfg()
        tc = TrainConfig(lr=0.001, epochs=3, batch_size=2, seed=42)
        lc = LossConfig()
        paths = []
        for run in range(2):
            result = train(corpus, cfg, tc, lc)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(
                Checkpoint(result.params, cfg, tc, lc, tc.epochs, result.rng_digest), path
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fused_records_train_like_the_unfused_chains(self, monkeypatch):
        # the fused records must leave training bitwise unchanged
        corpus = toy_corpus(seed=5, separation=1.0, t_frames=12)
        cfg = ModelConfig(input_dim=3, n_activities=2, n_prototypes=4, embed_dim=3)
        tc = TrainConfig(lr=0.01, epochs=4, batch_size=2, seed=3)
        fused = train(corpus, cfg, tc, LossConfig())
        monkeypatch.setattr(ad, "linear", unfused_linear)
        monkeypatch.setattr(ad, "affinity", unfused_affinity)
        monkeypatch.setattr(losses_mod, "tmse_loss", unfused_tmse)
        monkeypatch.setattr(ad, "mean_latent", unfused_mean_latent)
        monkeypatch.setattr(ad, "softmax_affine", unfused_softmax_affine)  # each head
        monkeypatch.setattr(losses_mod, "activity_loss", unfused_activity_loss)
        monkeypatch.setattr(losses_mod, "total_loss", unfused_total_loss)
        oracle = train(corpus, cfg, tc, LossConfig())
        for name, arr in fused.params.items():
            assert np.array_equal(arr, oracle.params[name])
        assert fused.trace == oracle.trace
        assert fused.trace[-1]["loss"] < fused.trace[0]["loss"]

    def test_separable_corpus_loss_halves(self):
        corpus = toy_corpus()
        cfg = toy_model_cfg()
        tc = TrainConfig(lr=0.01, epochs=50, batch_size=4, seed=0)
        result = train(corpus, cfg, tc, LossConfig())
        first = result.trace[0]["loss_p"] + result.trace[0]["loss_g"]
        last = result.trace[-1]["loss_p"] + result.trace[-1]["loss_g"]
        assert last <= 0.5 * first

    def test_descent_on_frozen_batch_small_lr(self):
        corpus = toy_corpus(videos_per_class=2)
        cfg = toy_model_cfg()
        lc = LossConfig()
        params = init_parameters(cfg, seed=1)

        def total(ps):
            return sum(
                float(video_loss(v, ps, cfg, lc)[1].value) for v in corpus
            )

        before = total(params)
        grads = {n: np.zeros_like(a) for n, a in params.items()}
        for video in corpus:
            tape, loss, bound, _ = video_loss(video, params, cfg, lc)
            tape.backward(loss)
            for name, grad in grads.items():
                grad += bound[name].grad / len(corpus)
        adam_step(params, grads, AdamState.zeros_like(params), TrainConfig(lr=1e-5))
        assert total(params) < before

    def test_reads_each_feature_file_once_per_epoch(self, tmp_path, monkeypatch):
        # each step reads its video as stored; float32 promotes to float64 exactly
        spec = CorpusSpec(n_activities=2, n_actions=4, shared_actions=1, videos_per_activity=2,
                          frames_range=(5, 9), feature_dim=3)
        made = generate_corpus(spec)
        corpus = read_corpus(write_corpus(made, tmp_path))
        reads = []
        read = FeatureFile.read
        monkeypatch.setattr(
            FeatureFile, "read", lambda f, *rows: reads.append(f.path) or read(f, *rows)
        )
        tc = TrainConfig(epochs=3, batch_size=2, seed=1)
        result = train(corpus.videos, toy_model_cfg(), tc, LossConfig())
        assert sorted(reads) == sorted(tmp_path / "features" / f"{v.video_id}.feat"
                                       for v in made.videos for _ in range(tc.epochs))
        monkeypatch.undo()
        in_memory = train(made.videos, toy_model_cfg(), tc, LossConfig())
        assert list(result.params) == list(in_memory.params)
        for name, arr in in_memory.params.items():
            assert result.params[name].tobytes() == arr.tobytes()
        assert result.trace == in_memory.trace

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train([], toy_model_cfg(), TrainConfig(epochs=1), LossConfig())

    def test_bad_activity_label_rejected(self):
        corpus = [FeatureSequence("v", 5, np.zeros((3, 3)))]
        with pytest.raises(ValueError, match="activity"):
            train(corpus, toy_model_cfg(), TrainConfig(epochs=1), LossConfig())

    def test_nonfinite_loss_names_video(self):
        corpus = [FeatureSequence("bad_video", 1, np.full((4, 3), 1e200))]
        with np.errstate(all="ignore"), pytest.raises((NonFiniteLossError, FloatingPointError)):
            train(corpus, toy_model_cfg(), TrainConfig(epochs=1), LossConfig())


class TestTrainingMemory:
    def test_peak_does_not_grow_with_the_corpus(self, tmp_path):
        # one epoch over N and 2N file-backed videos of 200 x 64 frames each
        frames, dim = 200, 64
        cfg = ModelConfig(input_dim=dim, n_activities=2, n_prototypes=4, embed_dim=4)
        peaks = []
        for per_activity in (2, 4):
            spec = CorpusSpec(n_activities=2, n_actions=4, shared_actions=1,
                              videos_per_activity=per_activity, frames_range=(frames, frames),
                              feature_dim=dim)
            manifest = write_corpus(generate_corpus(spec), tmp_path / f"n{per_activity}")
            videos = read_corpus(manifest).videos
            tracemalloc.start()
            try:
                train(videos, cfg, TrainConfig(epochs=1, batch_size=2), LossConfig())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one_video = frames * dim * 8  # its features in float64
        assert peaks[0] > one_video  # a step holds its video
        assert abs(peaks[1] - peaks[0]) < one_video


class TestGraphLifetime:
    """Forward graphs are freed by reference counting, with no cycles left."""

    def _cyclic_garbage_after(self, run):
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    def test_infer_leaves_no_cycles(self):
        cfg = ModelConfig(input_dim=16, n_activities=3, n_prototypes=5)
        params = init_parameters(cfg, 0)
        x = np.random.default_rng(0).normal(size=(50, 16))
        assert self._cyclic_garbage_after(lambda: infer(x, params, cfg)) == 0

    def test_backward_leaves_no_cycles(self):
        video = toy_corpus()[0]
        params = init_parameters(toy_model_cfg(), 0)

        def run():
            tape, loss, _, _ = video_loss(video, params, toy_model_cfg(), LossConfig())
            tape.backward(loss)

        assert self._cyclic_garbage_after(run) == 0


class TestShuffleRng:
    def test_fisher_yates_deterministic(self):
        a = list(range(20))
        b = list(range(20))
        Xoshiro256StarStar(7).shuffle(a)
        Xoshiro256StarStar(7).shuffle(b)
        assert a == b
        assert a != list(range(20))

    def test_below_is_unbiased_range(self):
        rng = Xoshiro256StarStar(1)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_distinct_seeds_differ(self):
        assert Xoshiro256StarStar(1).next_uint64() != Xoshiro256StarStar(2).next_uint64()


class TestCheckpointIO:
    def _make(self, seed=0):
        cfg = toy_model_cfg()
        params = init_parameters(cfg, seed)
        return Checkpoint(
            params=params,
            model=cfg,
            train=TrainConfig(epochs=3, seed=seed),
            loss=LossConfig(),
            epoch=3,
            rng_digest="ab" * 32,
        )

    def test_round_trip_bit_exact(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert list(loaded.params) == list(ckpt.params)
        for name, a in ckpt.params.items():
            b = loaded.params[name]
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert loaded.train == ckpt.train
        assert loaded.loss == ckpt.loss
        assert loaded.model == ckpt.model
        assert loaded.epoch == ckpt.epoch and loaded.rng_digest == ckpt.rng_digest

    def test_save_is_deterministic(self, tmp_path):
        ckpt = self._make()
        save_checkpoint(ckpt, tmp_path / "a.ckpt")
        save_checkpoint(ckpt, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_save_rejects_parameters_that_do_not_fit_the_model(self, tmp_path):
        ckpt = self._make()
        ckpt.model = dataclasses.replace(ckpt.model, n_prototypes=ckpt.model.n_prototypes + 1)
        with pytest.raises(ValueError, match="prototypes has shape"):
            save_checkpoint(ckpt, tmp_path / "model.ckpt")
        assert not (tmp_path / "model.ckpt").exists()

    def test_truncated_file_errors_with_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._make(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="byte offset"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._make(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "version", [FORMAT_VERSION - 1, FORMAT_VERSION + 1], ids=["older", "newer"]
    )
    def test_version_mismatch_rejected(self, tmp_path, version):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._make(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=r"version.*byte offset 4\)"):
            load_checkpoint(path)

    def test_body_is_raw_tensors_in_param_names_order(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        (meta_len,) = struct.unpack("<I", blob[8:12])
        assert "tensors" not in json.loads(blob[12 : 12 + meta_len])
        layout = parameter_layout(ckpt.model)
        body = b"".join(ckpt.params[name].astype("<f8").tobytes() for name in layout)
        assert blob[12 + meta_len :] == body
        # the layout, not the dict's own order, fixes the bytes
        ckpt.params = dict(reversed(ckpt.params.items()))
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == blob

    def _with_metadata(self, path, edit):
        blob = path.read_bytes()
        (meta_len,) = struct.unpack("<I", blob[8:12])
        meta = json.loads(blob[12 : 12 + meta_len])
        edit(meta)
        meta_bytes = json.dumps(meta, sort_keys=True).encode()
        path.write_bytes(blob[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes
                         + blob[12 + meta_len :])

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda meta: meta.pop("rng_digest"), "rng_digest"),
            (lambda meta: meta["model"].update(distance="euclidean"), "distance"),
            (lambda meta: meta["train"].pop("lr"), "lr"),
        ],
        ids=["missing_rng_digest", "unknown_model_distance", "missing_train_lr"],
    )
    def test_missing_or_unknown_metadata_key_named(self, tmp_path, edit, key):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._make(), path)
        self._with_metadata(path, edit)
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: .*'{key}'"):
            load_checkpoint(path)

    def test_metadata_dimension_beyond_file_is_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._make(), path)
        self._with_metadata(path, lambda meta: meta["model"].update(input_dim=2**31))
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: truncated.*byte offset"):
            load_checkpoint(path)

    def test_invalid_model_section_is_metadata_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._make(), path)
        self._with_metadata(path, lambda meta: meta["model"].update(n_prototypes=0))
        with pytest.raises(CheckpointError, match=r"n_prototypes.*\(byte offset 12\)$"):
            load_checkpoint(path)

    def test_nonfinite_value_errors_with_its_offset(self, tmp_path):
        ckpt = self._make()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        (meta_len,) = struct.unpack("<I", blob[8:12])
        starts, offset = {}, 12 + meta_len
        for name, arr in ckpt.params.items():
            starts[name] = offset
            offset += arr.nbytes
        first = starts["embed_w"] + 8 * 3
        later = starts["head_g_w"] + 8 * 1
        blob[first : first + 8] = struct.pack("<d", np.nan)
        blob[later : later + 8] = struct.pack("<d", -np.inf)
        path.write_bytes(bytes(blob))
        for name, offset in (("embed_w", first), ("head_g_w", later)):
            want = (f"{path}: invalid checkpoint contents: {name} contains non-finite values "
                    f"(byte offset {offset})")
            with pytest.raises(CheckpointError, match=f"^{re.escape(want)}$"):
                load_checkpoint(path)
            blob[first : first + 8] = struct.pack("<d", 0.5)  # the later value is then the first
            path.write_bytes(bytes(blob))
