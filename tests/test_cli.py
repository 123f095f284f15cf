import ctypes
import hashlib
import importlib
import json
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from protoseg import cli
from protoseg import model as model_mod
from protoseg.checkpoint import load_checkpoint, save_checkpoint
from protoseg.cli import _read_segment_file, _write_segment_file, main
from protoseg.data import (
    FEATURE_MAGIC, GT_MAGIC, CorpusError, FeatureFile, _write_array, read_corpus
)
from protoseg.inference import naive_labels
from protoseg.matching import VideoEval, kl_prototype_sharing, match_at_level
from protoseg.model import infer


TINY_CONFIG = {
    "model": {"n_prototypes": 4, "embed_dim": 6},
    "train": {"epochs": 2, "batch_size": 2, "seed": 0},
    "corpus": {
        "n_activities": 2,
        "n_actions": 4,
        "shared_actions": 1,
        "videos_per_activity": 3,
        "frames_range": [20, 40],
        "feature_dim": 8,
        "seed": 0,
    },
}


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    return tmp_path, cfg_path


def run(args):
    return main([str(a) for a in args])


def _pipeline(tmp_path, cfg_path, out="out"):
    out_dir = tmp_path / out
    manifest = tmp_path / "corpus" / "manifest.json"
    ckpt = out_dir / "model.ckpt"
    base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
            "--checkpoint", ckpt]
    assert run(["generate", *base]) == 0
    assert run(["train", *base]) == 0
    assert run(["segment", *base]) == 0
    assert run(["eval", *base, "--scope", "global"]) == 0
    return out_dir, manifest, ckpt


class TestPipeline:
    def test_end_to_end(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        assert ckpt.exists()
        assert (out_dir / "loss_trace.tsv").exists()
        report = json.loads((out_dir / "metrics_global.json").read_text())
        assert report["scope"] == "global"
        assert 0.0 <= report["mof"] <= 1.0
        seg_files = list((out_dir / "segments").glob("*.seg.txt"))
        assert len(seg_files) == 6
        # one prototype id per frame, and no matched labels written by eval
        lines = seg_files[0].read_text().splitlines()
        assert all(len(line.split()) == 1 for line in lines)
        assert int(lines[0]) >= 1

    def test_benchmark_output_checks_pass(self, workdir, monkeypatch):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        checks = importlib.import_module("checks")
        entries = json.loads(manifest.read_text())["videos"]
        lengths = {e["id"]: int(e["T"]) for e in entries}
        files, err = checks.segment_files(out_dir, lengths)
        assert err is None and len(files) == len(lengths)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        for scope in ("video", "activity", "global"):
            assert run(["eval", *base, "--scope", scope]) == 0
            mof, err = checks.eval_mof(out_dir, scope)
            assert err is None and mof is not None

    def test_traced_benchmark_targets_resolve(self, monkeypatch):
        # the benchmark's tracer rebinds these names; reading them installs nothing
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        tracing = importlib.import_module("tracing")
        missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
                   if not callable(getattr(importlib.import_module(module), attr, None))]
        assert tracing.TARGETS and missing == []
        assert callable(importlib.import_module("protoseg.autodiff").Tape.backward)

    def test_segment_index_records_digests_not_paths(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        raw = (out_dir / "segments" / "index.json").read_text()
        index = json.loads(raw)
        assert index["manifest_sha256"] == hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert index["checkpoint_sha256"] == hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert str(tmp_path) not in raw
        assert tmp_path.name not in raw

    def test_recognize(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["recognize", *base, "--wp", "0.5", "--wg", "0.5"]) == 0
        tsv = (out_dir / "activity_predictions.tsv").read_text().splitlines()
        assert tsv[0] == "video_id\ttrue_activity\tpredicted_activity"
        assert len(tsv) == 7

    def test_segment_toggles_match_naive_labels(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["segment", *base, "--no-decode", "--no-smooth"]) == 0
        corpus = read_corpus(manifest)
        # the parameters the stage runs: a float32 embedding weight
        checkpoint = cli._load_checkpoint_for(ckpt, corpus, manifest)
        for video in corpus.videos:
            affinity, _, _ = infer(video.features, checkpoint.params, checkpoint.model)
            expected = naive_labels(affinity)
            lines = (out_dir / "segments" / f"{video.video_id}.seg.txt").read_text()
            got = np.array([int(l) for l in lines.splitlines()])
            assert np.array_equal(got, expected)

    def test_inference_checkpoint_has_a_float32_embedding_weight(self, trained):
        _, manifest, ckpt = trained
        stored = load_checkpoint(ckpt).params
        params = cli._load_checkpoint_for(ckpt, read_corpus(manifest), manifest).params
        assert params.keys() == stored.keys()
        assert params["embed_w"].dtype == np.float32
        assert np.array_equal(params["embed_w"], stored["embed_w"].astype(np.float32))
        for name in stored.keys() - {"embed_w"}:
            assert params[name].dtype == np.float64
            assert params[name].tobytes() == stored[name].tobytes()

    def test_labeling_stages_keep_only_the_affinity_parameters(self, trained):
        _, manifest, ckpt = trained
        full = cli._load_checkpoint_for(ckpt, read_corpus(manifest), manifest).params
        kept = cli._load_checkpoint_for(
            ckpt, read_corpus(manifest), manifest, affinity_only=True
        ).params
        assert tuple(kept) == model_mod.AFFINITY_PARAMETERS == ("embed_w", "embed_b", "prototypes")
        for name, values in kept.items():
            assert values.dtype == full[name].dtype
            assert values.tobytes() == full[name].tobytes()

    def test_activity_scope_segment_and_eval(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["segment", *base, "--scope", "activity", "--nprime", "gt"]) == 0
        assert run(["eval", *base, "--scope", "activity"]) == 0
        report = json.loads((out_dir / "metrics_activity.json").read_text())
        assert len(report["units"]) == 2

    def test_segment_index_records_nprime(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        index = out_dir / "segments" / "index.json"
        assert json.loads(index.read_text())["nprime"] is None  # global scope keeps no count
        recorded = {}
        for nprime in ("gt", "2", "3"):
            assert run(["segment", *base, "--scope", "activity", "--nprime", nprime]) == 0
            recorded[nprime] = json.loads(index.read_text())["nprime"]
        assert recorded == {"gt": "gt", "2": 2, "3": 3}
        assert run(["eval", *base, "--scope", "activity"]) == 0
        report = json.loads((out_dir / "metrics_activity.json").read_text())
        assert report["segments"]["nprime"] == 3


    def test_eval_kl_matches_naive_labels_of_infer(self, workdir):
        tmp_path, cfg_path = workdir
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {"kl": True}}))
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        report = json.loads((out_dir / "metrics_global.json").read_text())
        corpus = read_corpus(manifest)
        checkpoint = cli._load_checkpoint_for(ckpt, corpus, manifest)
        by_activity = {}
        for video in corpus.videos:
            affinity, _, _ = infer(video.features, checkpoint.params, checkpoint.model)
            by_activity.setdefault(video.activity, []).append(naive_labels(affinity))
        sharing, activities = kl_prototype_sharing(by_activity, checkpoint.model.n_prototypes)
        assert report["kl"]["prototype_sharing"] == {
            "activities": activities, "matrix": sharing.tolist()
        }


class TestSegmentStreams:
    """`segment` runs one activity at a time and writes its files at the end."""

    @pytest.mark.parametrize("scope", ["activity", "global"])
    def test_holds_under_half_of_the_corpus_affinities(self, tmp_path, scope):
        corpus = {**TINY_CONFIG["corpus"], "n_activities": 4, "n_actions": 8,
                  "videos_per_activity": 20, "frames_range": [200, 200]}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "corpus": corpus, "train": {"epochs": 1},
                                        "model": {"n_prototypes": 50, "embed_dim": 6}}))
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        argv = ["segment", "--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt, "--scope", scope]
        assert run(argv) == 0  # a first run imports what argparse loads lazily
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        all_affinities = 4 * 20 * 200 * 50 * 8  # T_total x N float64
        assert peak < all_affinities / 2

    @pytest.mark.parametrize("scope", ["activity", "global"])
    def test_bad_features_in_the_last_activity_leave_no_output(
        self, trained, tmp_path, capsys, scope
    ):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        text["videos"].reverse()  # segment reads activity by activity, not in this order
        top = max(entry["activity"] for entry in text["videos"])
        last = [entry for entry in text["videos"] if entry["activity"] == top][-1]
        nan = manifest.parent / "features" / f"nan_{tmp_path.name}.feat"
        values = np.ones((last["T"], TINY_CONFIG["corpus"]["feature_dim"]))
        values[-1, -1] = np.nan
        _write_array(nan, FEATURE_MAGIC, values, "<f4")
        last["feature_file"] = nan.relative_to(manifest.parent).as_posix()
        bad = manifest.with_name(f"bad_{tmp_path.name}.json")
        bad.write_text(json.dumps(text))
        code = run(["segment", "--config", cfg_path, "--manifest", bad, "--scope", scope,
                    "--out-dir", tmp_path / "new" / "out", "--checkpoint", ckpt])
        assert code == 1
        offset = 16 + 4 * (values.size - 1)
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {nan}: non-finite value in "
            f"feature values (byte offset {offset})\n"
        )
        assert not (tmp_path / "new").exists()

    def test_threads_run_videos_of_two_activities_at_once(self, tmp_path, monkeypatch):
        corpus = {**TINY_CONFIG["corpus"], "n_activities": 4, "n_actions": 8,
                  "videos_per_activity": 1}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "corpus": corpus}))
        out1, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        assert {e["activity"] for e in json.loads(manifest.read_text())["videos"]} == {1, 2, 3, 4}
        assert run(["segment", "--config", cfg_path, "--manifest", manifest, "--out-dir", out1,
                    "--checkpoint", ckpt, "--scope", "activity"]) == 0
        infer_affinity, both = cli.model_mod.infer_affinity, threading.Barrier(2, timeout=10)
        lock, in_flight, most = threading.Lock(), [0], [0]

        def recording(features, params):
            with lock:
                in_flight[0] += 1
                most[0] = max(most[0], in_flight[0])
            both.wait()  # returns only once two videos, of two activities, run
            try:
                return infer_affinity(features, params)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(cli.model_mod, "infer_affinity", recording)
        out2 = tmp_path / "out_threads2"
        assert run(["segment", "--config", cfg_path, "--manifest", manifest, "--out-dir", out2,
                    "--checkpoint", ckpt, "--scope", "activity", "--threads", 2]) == 0
        assert most[0] == 2
        files = sorted((out1 / "segments").iterdir())
        assert len(files) == 5  # 4 videos and the index
        for path in files:
            assert path.read_bytes() == (out2 / "segments" / path.name).read_bytes()


def _with_own_feature_file(trained, tmp_path, name, values=None):
    """A manifest whose last video reads a feature file of its own: `values`,
    or a copy of its own file; returns the manifest and the file."""
    _, manifest, _ = trained
    text = json.loads(manifest.read_text())
    entry = text["videos"][-1]  # of the last activity, so read last
    path = manifest.parent / "features" / f"{name}_{tmp_path.name}.feat"
    if values is None:
        path.write_bytes((manifest.parent / entry["feature_file"]).read_bytes())
    else:
        _write_array(path, FEATURE_MAGIC, values, "<f4")
    entry["feature_file"] = path.relative_to(manifest.parent).as_posix()
    bad = manifest.with_name(f"{name}_{tmp_path.name}.json")
    bad.write_text(json.dumps(text))
    return bad, path


def _record_reads(monkeypatch, after_read=lambda f: None):
    reads, read = [], FeatureFile.read

    def recording(f, *rows):
        reads.append(f.path)
        values = read(f, *rows)
        after_read(f)
        return values

    monkeypatch.setattr(FeatureFile, "read", recording)
    return reads


class TestInferenceBlocks:
    """Inference reads each video one row block at a time (five frames here), and a
    fault found in a later block fails the stage as one whole-video read did."""

    @pytest.mark.parametrize("command", ["segment", "recognize"])
    def test_nan_in_the_last_block_fails_as_before(
        self, trained, tmp_path, capsys, monkeypatch, small_blocks, command
    ):
        cfg_path, manifest, ckpt = trained
        t = json.loads(manifest.read_text())["videos"][-1]["T"]
        values = np.ones((t, TINY_CONFIG["corpus"]["feature_dim"]))
        values[-1, -1] = np.nan
        bad, nan = _with_own_feature_file(trained, tmp_path, "nan", values)
        reads = _record_reads(monkeypatch)
        code = run([command, "--config", cfg_path, "--manifest", bad,
                    "--out-dir", tmp_path / "new" / "out", "--checkpoint", ckpt])
        assert code == 1
        offset = 16 + 4 * (values.size - 1)
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {nan}: non-finite value in "
            f"feature values (byte offset {offset})\n"
        )
        assert not (tmp_path / "new").exists()
        assert reads.count(nan) == -(-t // 5) >= 4  # every block, the last one failing

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command", ["segment", "recognize"])
    def test_frames_that_overflow_the_float32_embedding_name_their_file(
        self, trained, tmp_path, capsys, command, threads
    ):
        cfg_path, manifest, ckpt = trained
        t = json.loads(manifest.read_text())["videos"][-1]["T"]
        w = load_checkpoint(ckpt).params["embed_w"]
        w = w[:, np.abs(w).sum(axis=0).argmax()]
        values = np.ones((t, TINY_CONFIG["corpus"]["feature_dim"]))
        # finite in float32, but the terms of one embedded value all take one
        # sign, and their float32 sum overflows
        values[0] = np.finfo(np.float32).max * np.sign(w)
        assert np.abs(w).sum() > 1.0
        bad, path = _with_own_feature_file(trained, tmp_path, "big", values)
        # numpy's error state is per thread: each worker must turn the
        # overflow warning off itself, or it would be the stage's error
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            code = run([command, "--config", cfg_path, "--manifest", bad,
                        "--out-dir", tmp_path / "new" / "out", "--checkpoint", ckpt,
                        "--threads", threads])
            assert np.geterr() == before
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: runtime: FloatingPointError: {path}: non-finite values produced by matmul\n"
        )
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["segment", "recognize"])
    def test_file_cut_short_after_its_first_block_fails_as_before(
        self, trained, tmp_path, capsys, monkeypatch, small_blocks, command
    ):
        cfg_path, _, ckpt = trained
        bad, cut = _with_own_feature_file(trained, tmp_path, "cut")

        def cut_after_its_first_block(f):
            if f.path == cut and reads.count(cut) == 1:
                cut.write_bytes(cut.read_bytes()[:-1])

        reads = _record_reads(monkeypatch, cut_after_its_first_block)
        code = run([command, "--config", cfg_path, "--manifest", bad,
                    "--out-dir", tmp_path / "new" / "out", "--checkpoint", ckpt])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {cut}: truncated while reading feature values\n"
        )
        assert not (tmp_path / "new").exists()
        assert reads.count(cut) == 2

    def test_threads_give_the_bytes_of_one_thread(self, trained, tmp_path, small_blocks):
        _, manifest, ckpt = trained
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {"kl": True, "f1": True}}))
        outputs = []
        for threads in (1, 2):
            out_dir = tmp_path / f"threads{threads}"
            base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                    "--checkpoint", ckpt, "--threads", threads]
            assert run(["segment", *base, "--scope", "activity"]) == 0
            assert run(["eval", *base, "--scope", "video"]) == 0
            assert run(["recognize", *base]) == 0
            outputs.append({path.relative_to(out_dir): path.read_bytes()
                            for path in sorted(out_dir.rglob("*"))
                            if path.is_file() and path.name != "effective_config.json"})
        assert "metrics_video.json" in {path.name for path in outputs[0]}
        assert outputs[0] == outputs[1]


class TestTrainingReads:
    """`train` reads each video at its step, once per epoch, so a fault that
    `read_corpus`'s header and size checks cannot see fails it at that step,
    with the error that reading every video up front gave."""

    def test_nan_in_the_last_row_fails_with_its_offset(self, trained, tmp_path, capsys):
        cfg_path, manifest, _ = trained
        t = json.loads(manifest.read_text())["videos"][-1]["T"]
        values = np.ones((t, TINY_CONFIG["corpus"]["feature_dim"]))
        values[-1, -1] = np.nan
        bad, nan = _with_own_feature_file(trained, tmp_path, "nan", values)
        code = run(["train", "--config", cfg_path, "--manifest", bad,
                    "--out-dir", tmp_path / "new" / "out"])
        assert code == 1
        offset = 16 + 4 * (values.size - 1)
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {nan}: non-finite value in "
            f"feature values (byte offset {offset})\n"
        )
        assert not (tmp_path / "new").exists()

    def test_file_cut_short_after_its_first_epoch_fails(
        self, trained, tmp_path, capsys, monkeypatch
    ):
        cfg_path, _, _ = trained
        bad, cut = _with_own_feature_file(trained, tmp_path, "cut")

        def cut_after_its_first_read(f):
            if f.path == cut and reads.count(cut) == 1:
                cut.write_bytes(cut.read_bytes()[:-1])

        reads = _record_reads(monkeypatch, cut_after_its_first_read)
        code = run(["train", "--config", cfg_path, "--manifest", bad,
                    "--out-dir", tmp_path / "new" / "out"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {cut}: truncated while reading feature values\n"
        )
        assert not (tmp_path / "new").exists()
        assert reads.count(cut) == 2 == TINY_CONFIG["train"]["epochs"]

class TestSha256File:
    @pytest.mark.parametrize("size", [0, 1, 1 << 20, (1 << 20) + 1])
    def test_digest_is_hashlibs(self, tmp_path, size):
        blob = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(blob)
        assert cli._sha256_file(path) == hashlib.sha256(blob).hexdigest()

    @pytest.mark.parametrize("size, low, high", [(3 << 20, 1 << 20, 5 << 18), (100, 0, 64 << 10)])
    def test_hashes_through_one_buffer_of_at_most_1_mib(self, tmp_path, size, low, high):
        path = tmp_path / "blob"
        path.write_bytes(bytes(size))
        cli._sha256_file(path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli._sha256_file(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert low <= peak < high


def _leaf_keys(cfg, prefix=""):
    """The dotted name of every key of `cfg` whose value is no section."""
    keys = []
    for name, value in cfg.items():
        keys += _leaf_keys(value, f"{prefix}{name}.") if isinstance(value, dict) else [prefix + name]
    return keys


class TestErrors:
    def test_eval_without_checkpoint_is_config_error(self, workdir, capsys):
        # with kl on, eval runs the model, so it needs the checkpoint
        tmp_path, _ = workdir
        cfg_path = tmp_path / "kl.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {"kl": True}}))
        code = run(["eval", "--config", cfg_path, "--manifest", cfg_path,
                    "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: config: paths.checkpoint is required for this command\n"
        assert not (tmp_path / "out").exists()

    def test_eval_before_segment_is_config_error(self, trained, tmp_path, capsys):
        cfg_path, manifest, _ = trained
        code = run(["eval", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: no segmentation index") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_generate_checks_manifest_name_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run(["generate", "--manifest", tmp_path / "corpus" / "corpus.json",
                    "--out-dir", out_dir])
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not out_dir.exists() and not (tmp_path / "corpus").exists()

    def test_unknown_command_exits_2(self, capsys):
        assert run(["transmogrify"]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")

    def test_config_not_utf8_is_named_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"threads": 1\xff}')
        assert run(["generate", "--config", bad, "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: unparseable config {bad}: ")
        assert "utf-8" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", _leaf_keys(cli.DEFAULT_CONFIG))
    def test_every_leaf_key_refuses_a_list(self, tmp_path, capsys, monkeypatch, key):
        # a list is no value of any key, so every key must be checked
        # before generate writes anything
        cfg = json.loads(json.dumps(TINY_CONFIG))
        section, _, name = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[name] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        monkeypatch.chdir(tmp_path)
        # --out-dir would override paths.out_dir
        out_dir = [] if key == "paths.out_dir" else ["--out-dir", tmp_path / "out"]
        assert run(["generate", "--config", bad, *out_dir]) == 2
        err = capsys.readouterr().err
        named = f"{section}: " if section else f"{name} "
        assert err.startswith(f"error: config: {named}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [bad]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"modle": {}}))
        assert run(["generate", "--config", bad, "--out-dir", tmp_path / "out"]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_segment_video_scope_rejected(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        written = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        assert run(["segment", *base, "--scope", "video"]) == 2
        # the labelings and effective_config.json of the earlier segment stay
        assert {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()} == written

    @pytest.mark.parametrize(
        "command, flag",
        [("generate", ["--wp", "3"]), ("train", ["--scope", "video"]),
         ("recognize", ["--sigma", "1"])],
    )
    def test_flag_of_another_stage_is_usage_error(self, workdir, capsys, command, flag):
        tmp_path, cfg_path = workdir
        code = run([command, "--config", cfg_path, "--out-dir", tmp_path / "out", *flag])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: usage:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, args, override, section",
        [
            ("train", ["--alpha", "2"], {}, "loss"),
            ("train", [], {"train": {"epochs": 0}}, "train"),
            ("train", [], {"model": {"n_prototypes": 0}}, "model"),
            ("generate", [], {"corpus": {"drop_prob": 1.5}}, "corpus"),
            ("segment", [], {"infer": {"nprime": "many"}}, "infer"),
            ("segment", [], {"infer": {"smooth": "false"}}, "infer"),
            ("segment", ["--sigma", "-1"], {}, "infer"),
            ("segment", ["--eta", "1"], {}, "infer"),
            ("segment", ["--nprime", "0"], {}, "infer"),
            ("recognize", ["--wp", "-1"], {}, "recognize"),
            ("recognize", [], {"recognize": {"wp": 0, "wg": 0.0}}, "recognize"),
            ("eval", [], {"eval": {"kl": "no"}}, "eval"),
            ("generate", [], {"corpus": {"frames_range": [300, 100]}}, "corpus"),
            ("generate", [], {"corpus": {"frames_range": [0, 0]}}, "corpus"),
            ("generate", [], {"corpus": {"feature_dim": 0}}, "corpus"),
            ("generate", [], {"corpus": {"noise": -1}}, "corpus"),
            ("generate", [], {"corpus": {"background_ratio": -0.5}}, "corpus"),
            ("generate", [], {"infer": 5}, "infer"),
            ("generate", [], [1, 2], None),  # None: the error names the file
            ("generate", [], {"corpus": {"feature_dim": 2.5}}, "corpus"),
            ("generate", [], {"corpus": {"videos_per_activity": 1.5}}, "corpus"),
            ("generate", [], {"corpus": {"seed": -1}}, "corpus"),
            ("generate", [], {"corpus": {"actions_per_activity": [9, 1]}}, "corpus"),
            ("generate", [], {"corpus": {"frames_range": [1.5, 3]}}, "corpus"),
            ("generate", [], {"corpus": {"n_activities": True}}, "corpus"),
            ("train", [], {"train": {"epochs": 1.5}}, "train"),
            ("train", [], {"train": {"batch_size": 2.5}}, "train"),
            ("train", [], {"train": {"seed": -3}}, "train"),
            ("train", [], {"model": {"n_prototypes": 2.5}}, "model"),
            ("train", [], {"model": {"embed_dim": 0}}, "model"),
            ("train", [], {"loss": {"tau": float("nan")}}, "loss"),
            ("train", [], {"loss": {"lambda": float("nan")}}, "loss"),
            *[
                (command, [], {section: {key: value}}, section)
                for command, section, key in [
                    ("generate", "corpus", "noise"),
                    ("generate", "corpus", "background_ratio"),
                    ("generate", "corpus", "cluster_separation"),
                    ("train", "train", "lr"),
                    ("train", "loss", "alpha"),
                ]
                for value in (float("nan"), float("inf"), True)
            ],
            ("train", [], {"loss": {"lambda": float("inf")}}, "loss"),
            # every stage checks every section, also those it does not read
            ("generate", [], {"loss": {"alpha": 7}}, "loss"),
            ("generate", [], {"train": {"epochs": 0}}, "train"),
            ("generate", [], {"model": {"n_prototypes": 0}}, "model"),
            ("segment", [], {"train": {"batch_size": 0}}, "train"),
            ("recognize", [], {"corpus": {"drop_prob": 1.5}}, "corpus"),
            ("eval", [], {"model": {"embed_dim": 0}}, "model"),
        ],
    )
    def test_bad_config_value_is_config_error(
        self, workdir, capsys, command, args, override, section
    ):
        tmp_path, cfg_path = workdir
        manifest = tmp_path / "corpus" / "manifest.json"
        assert run(["generate", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", tmp_path / "gen"]) == 0
        capsys.readouterr()
        cfg = override if isinstance(override, list) else {
            **TINY_CONFIG,
            **{k: {**TINY_CONFIG.get(k, {}), **v} if isinstance(v, dict) else v
               for k, v in override.items()},
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = run([command, "--config", bad, "--manifest", manifest,
                    "--out-dir", tmp_path / "out", "--checkpoint", tmp_path / "m.ckpt", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {section or bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # not even effective_config.json

    @pytest.mark.parametrize(
        "key, value, rule",
        [("tau", 0, "> 0"), ("tau", float("nan"), "> 0"), ("lambda", float("inf"), ">= 0"),
         ("lambda", -1, ">= 0"), ("alpha", 2, "in [0, 1]")],
    )
    def test_loss_error_names_the_config_key(self, trained, tmp_path, capsys, key, value, rule):
        _, manifest, _ = trained
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_CONFIG, "loss": {key: value}}))
        code = run(["train", "--config", bad, "--manifest", manifest, "--out-dir", tmp_path])
        assert code == 2
        got = f"{value:g}" if isinstance(value, float) else str(value)
        assert capsys.readouterr().err == (
            f"error: config: loss: {key} must be a number {rule}, got {got}\n"
        )

    def test_diverging_train_names_the_video_and_the_epoch(self, trained, tmp_path, capsys):
        _, manifest, _ = trained
        cfg_path = tmp_path / "lr.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "train": {"lr": 1e200}}))
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            code = run(["train", "--config", cfg_path, "--manifest", manifest,
                        "--out-dir", tmp_path / "new" / "out"])
            assert np.geterr() == before
        assert code == 1
        # one line, with no RuntimeWarning from the overflow before it
        err = capsys.readouterr().err
        found = re.fullmatch(r"error: runtime: FloatingPointError: (.+) at epoch (\d+): "
                             r"non-finite values produced by \w+\n", err)
        assert found, err
        feature_files = {str(manifest.parent / entry["feature_file"])
                         for entry in json.loads(manifest.read_text())["videos"]}
        assert found[1] in feature_files
        assert int(found[2]) < TINY_CONFIG["train"]["epochs"]
        assert not (tmp_path / "new").exists()

    def test_checkpoint_of_another_feature_dim_names_both_files(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        out_dir, _, ckpt = _pipeline(tmp_path, cfg_path)
        wide_cfg = tmp_path / "wide.json"
        corpus = {**TINY_CONFIG["corpus"], "feature_dim": 16}
        wide_cfg.write_text(json.dumps({**TINY_CONFIG, "corpus": corpus,
                                        "eval": {"kl": True}}))
        wide = tmp_path / "wide" / "manifest.json"
        assert run(["generate", "--config", wide_cfg, "--manifest", wide,
                    "--out-dir", tmp_path / "gen"]) == 0
        capsys.readouterr()
        for command in ("segment", "recognize", "eval"):
            code = run([command, "--config", wide_cfg, "--manifest", wide,
                        "--out-dir", out_dir, "--checkpoint", ckpt])
            assert code == 1
            err = capsys.readouterr().err
            assert err == (
                f"error: runtime: ValueError: checkpoint {ckpt} takes feature dim 8, "
                f"but manifest {wide} has feature dim 16\n"
            )

    def test_recognize_refuses_a_checkpoint_of_another_activity_count(
        self, trained, tmp_path, capsys
    ):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        text["C"] += 2
        text["activity_names"] += ["held_out_1", "held_out_2"]
        text["videos"][-1]["activity"] = text["C"]
        wider = manifest.with_name(f"wider_{tmp_path.name}.json")
        wider.write_text(json.dumps(text))
        base = ["--config", cfg_path, "--manifest", wider, "--checkpoint", ckpt]
        code = run(["recognize", *base, "--out-dir", tmp_path / "new" / "out"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: runtime: ValueError: checkpoint {ckpt} scores 2 activities, "
            f"but manifest {wider} has C=4\n"
        )
        assert not (tmp_path / "new").exists()
        # labeling frames reads no head, so it stays legal on a held-out corpus
        assert run(["segment", *base, "--out-dir", tmp_path / "held_out"]) == 0

    def test_bad_nprime_value(self, workdir):
        tmp_path, cfg_path = workdir
        code = run(["segment", "--config", cfg_path, "--nprime", "many",
                    "--manifest", tmp_path / "m.json", "--out-dir", tmp_path / "out"])
        assert code == 2

    @pytest.mark.parametrize("nprime", [5, 100])
    def test_nprime_above_the_checkpoints_prototypes_is_refused(
        self, trained, tmp_path, capsys, nprime
    ):
        cfg_path, manifest, ckpt = trained
        base = ["--config", cfg_path, "--manifest", manifest, "--checkpoint", ckpt,
                "--scope", "activity"]
        code = run(["segment", *base, "--nprime", nprime, "--out-dir", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config: infer: nprime {nprime} exceeds the 4 prototypes "
            f"of checkpoint {ckpt}\n"
        )
        assert not (tmp_path / "out").exists()
        assert run(["segment", *base, "--nprime", 4, "--out-dir", tmp_path / "at_n"]) == 0

    def test_nprime_gt_above_the_checkpoints_prototypes_is_refused(
        self, trained, tmp_path, capsys
    ):
        cfg_path, manifest, _ = trained
        narrow_cfg = tmp_path / "narrow.json"
        narrow_cfg.write_text(json.dumps({**TINY_CONFIG, "model": {"n_prototypes": 1},
                                          "train": {"epochs": 1}}))
        narrow = tmp_path / "narrow.ckpt"
        assert run(["train", "--config", narrow_cfg, "--manifest", manifest,
                    "--out-dir", tmp_path / "train", "--checkpoint", narrow]) == 0
        capsys.readouterr()
        code = run(["segment", "--config", narrow_cfg, "--manifest", manifest,
                    "--checkpoint", narrow, "--scope", "activity", "--nprime", "gt",
                    "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        found = re.fullmatch(
            rf"error: config: infer: nprime 'gt': activity 1 has (\d+) actions in the ground "
            rf"truth of {re.escape(str(manifest))}, more than the 1 prototypes of checkpoint "
            rf"{re.escape(str(narrow))}\n",
            err,
        )
        assert found and int(found[1]) > 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [[], [1, 2, 3], 5])
    @pytest.mark.parametrize("key", ["frames_range", "actions_per_activity"])
    def test_malformed_pair_names_its_key(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"corpus": {key: value}}))
        code = run(["generate", "--config", cfg_path, "--out-dir", tmp_path / "out"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: config: corpus: {key} must be a list of two integers, got {value!r}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["segment", "recognize", "eval"])
    def test_embedding_weight_that_overflows_float32_names_the_checkpoint(
        self, trained, tmp_path, capsys, command
    ):
        _, manifest, ckpt = trained
        big = load_checkpoint(ckpt)
        big.params["embed_w"][0, 0] = 1e39  # finite in float64, not in float32
        big_path = tmp_path / "big.ckpt"
        save_checkpoint(big, big_path)
        cfg_path = tmp_path / "kl.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {"kl": True}}))
        out_dir = tmp_path / "new" / "out"
        if command == "eval":  # eval reads the labelings of an earlier segment
            (out_dir / "segments").mkdir(parents=True)
            index = ckpt.parent / "segments" / "index.json"
            (out_dir / "segments" / "index.json").write_bytes(index.read_bytes())
        with np.errstate(over="warn", invalid="warn"):
            before = np.geterr()
            code = run([command, "--config", cfg_path, "--manifest", manifest,
                        "--out-dir", out_dir, "--checkpoint", big_path])
            assert np.geterr() == before
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: runtime: FloatingPointError: {big_path}: "
                       f"non-finite values produced by float32 cast\n")
        if command == "eval":  # no metrics written
            new = tmp_path / "new"
            assert sorted(p.relative_to(new).as_posix() for p in new.rglob("*")) == [
                "out", "out/segments", "out/segments/index.json"]
        else:
            assert not (tmp_path / "new").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config, a generated corpus's manifest and a trained checkpoint."""
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    _, manifest, ckpt = _pipeline(tmp_path, cfg_path)
    return cfg_path, manifest, ckpt


class TestSegmentFiles:
    @pytest.mark.parametrize(
        "labels, text",
        [
            ([2, 2, 5], "2\n2\n5\n"),
            ([1, -1, 3, 4], "1\n-1\n3\n4\n"),
            ([7], "7\n"),
        ],
        ids=["plain", "background", "one-frame"],
    )
    def test_bytes_and_read_back(self, tmp_path, labels, text):
        path = tmp_path / "v.seg.txt"
        assert not path.exists()
        _write_segment_file(path, np.array(labels))
        assert path.read_bytes() == text.encode("ascii")
        back = _read_segment_file(path)
        assert back.dtype == np.int64 and np.array_equal(back, labels)

    @pytest.mark.parametrize(
        "text",
        ["-1\n1\n999999999999999999\n", "999999999999999999\n", "-1\n", "1\n",
         "".join(f"{i}\n" for i in [3, -1, 1, 50, 999999999999999999, 1, -1] * 40)],
        ids=["all-three", "eighteen-digits", "background-only", "one", "long"],
    )
    def test_parse_equals_split(self, tmp_path, text):
        path = tmp_path / "v.seg.txt"
        path.write_bytes(text.encode("ascii"))
        expected = np.array(text.encode("ascii").split(), dtype=np.int64)
        back = _read_segment_file(path)
        assert back.dtype == expected.dtype and np.array_equal(back, expected)

    @pytest.mark.parametrize(
        "text",
        ["", "\n", "1", "1\n\n", "\n1\n", "0\n", "-0\n", "-2\n", "01\n", "+3\n", " 7\n",
         "7 \n", "1_0\n", "1 2\n", "x\n", "1.0\n", "1e3\n", "1\r\n", "1000000000000000000\n"],
    )
    def test_malformed_is_refused_with_one_line(self, tmp_path, text):
        path = tmp_path / "v.seg.txt"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(CorpusError) as raised:
            _read_segment_file(path)
        assert str(raised.value) == (
            f"{path}: expected one prototype id >= 1, or -1 for background, on each line"
        )

    def test_shorter_labeling_leaves_no_stale_tail(self, tmp_path):
        path = tmp_path / "v.seg.txt"
        _write_segment_file(path, np.full(12, 40))
        long = path.read_bytes()
        _write_segment_file(path, np.array([1, 2]))
        assert len(long) > len(path.read_bytes())
        assert path.read_bytes() == b"1\n2\n"
        assert np.array_equal(_read_segment_file(path), [1, 2])

    def test_eval_in_any_order_keeps_labelings_and_metrics(self, trained, tmp_path):
        cfg_path, manifest, ckpt = trained
        scopes = ["video", "activity", "global"]
        outs = []
        for name, order in (("forward", scopes), ("reverse", scopes[::-1])):
            out_dir = tmp_path / name
            base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                    "--checkpoint", ckpt]
            assert run(["segment", *base]) == 0
            seg_dir = out_dir / "segments"

            def labelings():
                # a rewrite with the same bytes would still move the mtime
                return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
                        for p in sorted(seg_dir.iterdir())}

            written = labelings()
            for scope in order:
                assert run(["eval", *base, "--scope", scope]) == 0
                assert labelings() == written
            scored = {p.name: p.read_bytes() for scope in scopes
                      for p in (out_dir / f"metrics_{scope}.json",
                                out_dir / f"per_video_mof_{scope}.tsv")}
            outs.append(({f: data for f, (data, _) in written.items()}, scored))
        assert len(outs[0][0]) == 7 and len(outs[0][1]) == 6
        assert outs[0] == outs[1]

    def test_labelings_and_assignments_give_the_matched_labels(self, trained, tmp_path):
        cfg_path, manifest, ckpt = trained
        out_dir = tmp_path / "out"
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["segment", *base, "--scope", "activity", "--eta", "0.5"]) == 0
        corpus = read_corpus(manifest)
        read = {v.video_id: _read_segment_file(out_dir / "segments" / f"{v.video_id}.seg.txt")
                for v in corpus.videos}
        assert any(np.any(pred == -1) for pred in read.values())
        videos = [VideoEval(v.video_id, v.activity, read[v.video_id], v.gt_actions)
                  for v in corpus.videos]
        for scope in ("video", "activity", "global"):
            assert run(["eval", *base, "--scope", scope]) == 0
            report = json.loads((out_dir / f"metrics_{scope}.json").read_text())
            assignments = {u["unit"]: {c: a for c, a in u["assignment"]} for u in report["units"]}
            tsv = (out_dir / f"per_video_mof_{scope}.tsv").read_text().splitlines()[1:]
            mof = dict(line.split("\t") for line in tsv)
            expected = match_at_level(videos, scope)
            assert len(mof) == len(corpus.videos)
            for v in corpus.videos:
                unit = {"video": v.video_id, "activity": str(v.activity), "global": "corpus"}
                assignment = assignments[unit[scope]]
                pred = read[v.video_id]
                labels = [-1 if p == -1 else assignment.get(int(p), 0) for p in pred]
                assert np.array_equal(labels, expected.mapped[v.video_id])
                keep = (v.gt_actions != 0) & (pred != -1)
                hits = np.sum((np.array(labels) == v.gt_actions) & keep)
                assert mof[v.video_id] == f"{hits / keep.sum():.10g}"


def _one_line_runtime_error(capsys, kind, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: runtime: {kind}: {path}: ") and err.count("\n") == 1


def _drop_first_id(m):
    del m["videos"][0]["id"]


def _duplicate_id(m):
    m["videos"][1]["id"] = m["videos"][0]["id"]


def _escaping_id(m):
    m["videos"][0]["id"] = "../../escaped"


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "edit",
        [lambda m: m.pop("videos"), _drop_first_id, lambda m: m.update(videos=[]),
         _duplicate_id, _escaping_id, lambda m: m["videos"][0].update(activity=7),
         lambda m: m["videos"][1].update(activity=0), lambda m: m.update(C="2")],
        ids=["no-videos", "no-id", "empty", "duplicate-id", "escaping-id", "activity-7",
             "activity-0", "C-not-integer"],
    )
    def test_bad_manifest_is_named_corpus_error(self, trained, tmp_path, capsys, edit):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        edit(text)
        bad = manifest.with_name(f"bad_{tmp_path.name}.json")
        bad.write_text(json.dumps(text))
        out_dir = tmp_path / "a" / "out"
        code = run(["segment", "--config", cfg_path, "--manifest", bad,
                    "--out-dir", out_dir, "--checkpoint", ckpt])
        assert code == 1
        _one_line_runtime_error(capsys, "CorpusError", bad)
        assert not list(tmp_path.rglob("*.seg.txt"))
        assert not list(manifest.parent.parent.rglob("escaped*"))

    def test_manifest_not_utf8_is_named_corpus_error(self, trained, tmp_path, capsys):
        cfg_path, _, _ = trained
        bad = tmp_path / "manifest.json"
        bad.write_bytes(b'{"C": 2\xff}')
        out_dir = tmp_path / "out"
        code = run(["train", "--config", cfg_path, "--manifest", bad, "--out-dir", out_dir,
                    "--checkpoint", out_dir / "model.ckpt"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime: CorpusError: {bad}: unparseable manifest: ")
        assert "utf-8" in err and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "command, broken",
        [("train", "manifest"), ("segment", "checkpoint"), ("recognize", "manifest"),
         ("recognize", "checkpoint"), ("train", "nan"), ("segment", "nan"),
         ("recognize", "nan")],
    )
    def test_failed_stage_leaves_no_output_directory(
        self, trained, tmp_path, capsys, command, broken
    ):
        cfg_path, manifest, ckpt = trained
        if broken in ("manifest", "nan"):
            text = json.loads(manifest.read_text())
            entry = text["videos"][-1 if broken == "nan" else 0]  # nan: read last
            if broken == "manifest":
                entry["feature_file"] = "features/missing.feat"
            else:
                nan = manifest.parent / "features" / f"nan_{tmp_path.name}.feat"
                values = np.ones((entry["T"], TINY_CONFIG["corpus"]["feature_dim"]))
                values[2, 1] = np.nan
                _write_array(nan, FEATURE_MAGIC, values, "<f4")
                entry["feature_file"] = nan.relative_to(manifest.parent).as_posix()
            manifest = manifest.with_name(f"bad_{tmp_path.name}.json")
            manifest.write_text(json.dumps(text))
        else:
            truncated = tmp_path / "model.ckpt"
            truncated.write_bytes(ckpt.read_bytes()[:100])
            ckpt = truncated
        out_dir = tmp_path / "new" / "out"
        code = run([command, "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", out_dir, "--checkpoint", ckpt])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if broken == "nan":
            offset = 16 + 4 * (2 * TINY_CONFIG["corpus"]["feature_dim"] + 1)
            assert err == (f"error: runtime: CorpusError: {nan}: non-finite value in "
                           f"feature values (byte offset {offset})\n")
        assert not (tmp_path / "new").exists()

    def test_eval_without_kl_reads_no_feature_values(self, workdir):
        tmp_path, cfg_path = workdir
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {"f1": True}}))
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        scopes = ("video", "activity", "global")
        names = [f"{kind}_{scope}{ext}" for scope in scopes
                 for kind, ext in (("metrics", ".json"), ("per_video_mof", ".tsv"))]

        def evaluate():
            for scope in scopes:
                assert run(["eval", *base, "--scope", scope]) == 0
            return {name: (out_dir / name).read_bytes() for name in names}

        before = evaluate()
        for path in (manifest.parent / "features").glob("*.feat"):
            blob = path.read_bytes()  # a 16-byte header, then float32 values
            path.write_bytes(blob[:16] + np.full((len(blob) - 16) // 4, np.nan, "<f4").tobytes())
        assert evaluate() == before
        assert run(["recognize", *base]) == 1  # inference does read them

    def test_frame_count_zero_is_named_corpus_error(self, trained, tmp_path, capsys):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        empty = manifest.parent / "features" / f"empty_{tmp_path.name}.feat"
        _write_array(empty, FEATURE_MAGIC, np.zeros((0, 8)), "<f4")
        text["videos"][2].update(T=0, feature_file=empty.relative_to(manifest.parent).as_posix())
        bad = manifest.with_name(f"bad_{tmp_path.name}.json")
        bad.write_text(json.dumps(text))
        code = run(["segment", "--config", cfg_path, "--manifest", bad,
                    "--out-dir", tmp_path / "out", "--checkpoint", ckpt])
        assert code == 1
        vid = text["videos"][2]["id"]
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {bad}: video {vid!r} 'T' must be a positive "
            "integer, got 0\n"
        )
        assert not (tmp_path / "out").exists()

    def test_zero_width_feature_file_is_named_corpus_error(self, trained, tmp_path, capsys):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        for entry in text["videos"]:
            flat = manifest.parent / "features" / f"flat_{tmp_path.name}_{entry['id']}.feat"
            _write_array(flat, FEATURE_MAGIC, np.zeros((entry["T"], 0)), "<f4")
            entry["feature_file"] = flat.relative_to(manifest.parent).as_posix()
        bad = manifest.with_name(f"bad_{tmp_path.name}.json")
        bad.write_text(json.dumps(text))
        out_dir = tmp_path / "out"
        code = run(["train", "--config", cfg_path, "--manifest", bad, "--out-dir", out_dir,
                    "--checkpoint", out_dir / "model.ckpt"])
        assert code == 1
        first = manifest.parent / text["videos"][0]["feature_file"]
        assert capsys.readouterr().err == (
            f"error: runtime: CorpusError: {first}: has feature dim 0, expected at least 1\n"
        )
        assert not out_dir.exists()

    def test_mixed_feature_dims_is_named_corpus_error(self, trained, tmp_path, capsys):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        entry = text["videos"][1]
        odd = manifest.parent / "features" / f"odd_{tmp_path.name}.feat"
        wide = np.zeros((entry["T"], TINY_CONFIG["corpus"]["feature_dim"] * 2))
        _write_array(odd, FEATURE_MAGIC, wide, "<f4")
        entry["feature_file"] = odd.relative_to(manifest.parent).as_posix()
        bad = manifest.with_name(f"bad_{tmp_path.name}.json")
        bad.write_text(json.dumps(text))
        out_dir = tmp_path / "out"
        code = run(["train", "--config", cfg_path, "--manifest", bad, "--out-dir", out_dir,
                    "--checkpoint", out_dir / "model.ckpt"])
        assert code == 1
        _one_line_runtime_error(capsys, "CorpusError", odd)
        assert not (out_dir / "model.ckpt").exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: [*lines[:3], "3 1", *lines[4:]],
            lambda lines: [*lines[:3], "x", *lines[4:]],
            lambda lines: [*lines[:3], "0", *lines[4:]],
            lambda lines: [f"{t} {l}" for t, l in enumerate(lines)],
            lambda lines: [],
            lambda lines: lines[:-1],
            lambda lines: [f"{t} {l} -1" for t, l in enumerate(lines)],
            lambda lines: [*lines[:3], "1_0", *lines[4:]],
            lambda lines: [*lines[:3], "+3", *lines[4:]],
            lambda lines: [*lines[:3], " 7 ", *lines[4:]],
        ],
        ids=["two-fields", "not-integer", "prototype-0", "all-two-fields", "empty",
             "frame-count", "old-three-fields", "underscore", "plus-sign", "spaces"],
    )
    def test_malformed_labeling_file_is_named_corpus_error(
        self, trained, tmp_path, capsys, edit
    ):
        cfg_path, manifest, ckpt = trained
        out_dir = tmp_path / "out"
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["segment", *base]) == 0
        seg = sorted((out_dir / "segments").glob("*.seg.txt"))[1]
        lines = edit(seg.read_text().splitlines())
        seg.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert run(["eval", *base]) == 1
        _one_line_runtime_error(capsys, "CorpusError", seg)

    def test_nprime_gt_without_actions_names_activity_and_manifest(
        self, trained, tmp_path, capsys
    ):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        for entry in text["videos"]:
            if entry["activity"] == 2:
                empty = manifest.parent / "gt" / f"empty_{tmp_path.name}_{entry['id']}.gt"
                _write_array(empty, GT_MAGIC, np.zeros(entry["T"], dtype=np.int64), "<u4")
                entry["gt_file"] = empty.relative_to(manifest.parent).as_posix()
        bad = manifest.with_name(f"bad_{tmp_path.name}.json")
        bad.write_text(json.dumps(text))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        code = run(["segment", "--config", cfg_path, "--manifest", bad, "--out-dir", out_dir,
                    "--checkpoint", ckpt, "--scope", "activity", "--nprime", "gt"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count("\n") == 1
        assert "activity 2" in err and str(bad) in err and "--nprime" in err
        assert not out_dir.exists()  # not even effective_config.json


# criterion 9's config
SMALL_CONFIG = {
    "model": {"n_prototypes": 5, "embed_dim": 8},
    "train": {"epochs": 3, "batch_size": 4, "seed": 11},
    "eval": {"kl": True, "f1": True},
    "corpus": {
        "n_activities": 2,
        "n_actions": 5,
        "shared_actions": 1,
        "videos_per_activity": 4,
        "frames_range": [30, 60],
        "feature_dim": 8,
        "seed": 11,
    },
}


def _without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


class TestProvenance:
    @pytest.fixture
    def segmented(self, tmp_path):
        """Labelings from checkpoint A (train seed 11); B (seed 12) is trained too."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        manifest = tmp_path / "corpus" / "manifest.json"
        assert run(["generate", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", tmp_path / "gen"]) == 0
        ckpts = {}
        for seed in (11, 12):
            ckpts[seed] = tmp_path / f"seed{seed}.ckpt"
            assert run(["train", "--config", cfg_path, "--manifest", manifest, "--seed", seed,
                        "--out-dir", tmp_path / "train", "--checkpoint", ckpts[seed]]) == 0
        out_dir = tmp_path / "out"
        assert run(["segment", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", out_dir, "--checkpoint", ckpts[11]]) == 0
        return cfg_path, manifest, ckpts, out_dir

    def test_eval_refuses_labelings_of_another_checkpoint(self, segmented, capsys):
        cfg_path, manifest, ckpts, out_dir = segmented
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--scope", "activity"]
        capsys.readouterr()
        assert run(["eval", *base, "--checkpoint", ckpts[12]]) == 1
        index = out_dir / "segments" / "index.json"
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime: ValueError: {index}: checkpoint_sha256 ")
        assert str(ckpts[12]) in err and err.count("\n") == 1
        assert not (out_dir / "metrics_activity.json").exists()

        assert run(["eval", *base, "--checkpoint", ckpts[11]]) == 0
        report = json.loads((out_dir / "metrics_activity.json").read_text())
        recorded = json.loads(index.read_text())
        del recorded["videos"]
        assert report["segments"] == recorded and "kl" in report

    def test_failed_eval_leaves_every_output_file(self, segmented, capsys):
        cfg_path, manifest, ckpts, out_dir = segmented
        base = ["--config", cfg_path, "--out-dir", out_dir, "--checkpoint", ckpts[11]]
        assert run(["eval", *base, "--manifest", manifest, "--scope", "activity"]) == 0
        written = {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}
        # the same corpus under other bytes, so only the digest check fails
        other = manifest.with_name("other.json")
        other.write_text(manifest.read_text() + "\n")
        capsys.readouterr()
        assert run(["eval", *base, "--manifest", other, "--scope", "video"]) == 1
        assert "manifest_sha256 does not match" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()} == written

    def test_eval_refuses_labelings_of_another_manifest(self, segmented, capsys):
        cfg_path, manifest, ckpts, out_dir = segmented
        before = manifest.read_bytes()
        assert run(["generate", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", out_dir.parent / "gen", "--seed", 13]) == 0
        assert manifest.read_bytes() != before
        capsys.readouterr()
        assert run(["eval", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", out_dir, "--checkpoint", ckpts[11]]) == 1
        index = out_dir / "segments" / "index.json"
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime: ValueError: {index}: manifest_sha256 ")
        assert str(manifest) in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit",
        [lambda text: text[:-5], lambda text: "[]", _without("manifest_sha256"),
         _without("checkpoint_sha256")],
        ids=["unparseable", "not-an-object", "no-manifest-digest", "no-checkpoint-digest"],
    )
    def test_bad_index_is_named_error(self, trained, tmp_path, capsys, edit):
        cfg_path, manifest, ckpt = trained
        out_dir = tmp_path / "out"
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["segment", *base]) == 0
        index = out_dir / "segments" / "index.json"
        index.write_text(edit(index.read_text()))
        capsys.readouterr()
        assert run(["eval", *base]) == 1
        _one_line_runtime_error(capsys, "ValueError", index)


def test_eval_without_kl_needs_no_checkpoint(trained, tmp_path):
    cfg_path, manifest, ckpt = trained
    out_dir = tmp_path / "out"
    base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir]
    assert run(["segment", *base, "--checkpoint", ckpt]) == 0
    outputs = [out_dir / "metrics_activity.json", out_dir / "per_video_mof_activity.tsv"]
    assert run(["eval", *base, "--checkpoint", ckpt, "--scope", "activity"]) == 0
    with_ckpt = [p.read_bytes() for p in outputs]
    assert run(["eval", *base, "--scope", "activity"]) == 0
    assert [p.read_bytes() for p in outputs] == with_ckpt


class TestConfigHandling:
    def test_flag_overrides_config_and_is_echoed(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir = tmp_path / "out"
        manifest = tmp_path / "corpus" / "manifest.json"
        assert run(["generate", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", out_dir, "--seed", "7"]) == 0
        effective = json.loads((out_dir / "effective_config.json").read_text())
        assert effective["corpus"]["seed"] == 7
        assert effective["train"]["seed"] == 7
        assert effective["model"]["n_prototypes"] == 4  # from config file

    @pytest.mark.parametrize("command", ["generate", "train", "segment", "eval", "recognize"])
    def test_help_lists_only_the_stage_flags(self, capsys, command):
        shared = {"--config", "--manifest", "--out-dir", "--checkpoint", "--seed", "--threads"}
        own = {
            "generate": set(),
            "train": {"--alpha", "--lambda"},
            "segment": {"--scope", "--sigma", "--nprime", "--eta", "--no-smooth", "--no-decode"},
            "eval": {"--scope"},
            "recognize": {"--wp", "--wg"},
        }[command]
        assert run([command, "--help"]) == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help"} | shared | own

    def test_echoed_config_reads_back(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        assert run(["segment", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", out_dir, "--checkpoint", ckpt, "--scope", "activity",
                    "--nprime", "3", "--no-smooth", "--seed", "5"]) == 0
        echoed = tmp_path / "echoed.json"
        echoed.write_bytes((out_dir / "effective_config.json").read_bytes())
        effective = json.loads(echoed.read_text())
        assert effective["infer"]["nprime"] == 3 and effective["infer"]["smooth"] is False
        assert run(["segment", "--config", echoed]) == 0
        assert (out_dir / "effective_config.json").read_bytes() == echoed.read_bytes()

    def test_rerun_overwrites_identically(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        first = {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }
        _pipeline(tmp_path, cfg_path)
        second = {
            p.relative_to(out_dir): p.read_bytes()
            for p in sorted(out_dir.rglob("*"))
            if p.is_file()
        }
        assert first == second

    def test_threads_flag_gives_same_outputs(self, workdir, monkeypatch):
        tmp_path, cfg_path = workdir
        out1, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--checkpoint", ckpt]
        files = sorted((out1 / "segments").iterdir())
        assert len(files) == 7  # 6 videos and the index
        workers = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
        for threads in (4, 9):  # 9: more than the corpus has videos
            out2 = tmp_path / f"out_threads{threads}"
            workers.clear()
            assert run(["segment", *base, "--out-dir", out2, "--threads", threads]) == 0
            assert max(workers) == min(threads, 6)
            for path in files:
                assert path.read_bytes() == (out2 / "segments" / path.name).read_bytes()

    def test_echoed_config_is_valid_for_train_and_generate(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir = tmp_path / "out"
        base = ["--config", cfg_path, "--manifest", tmp_path / "corpus" / "manifest.json",
                "--out-dir", out_dir, "--checkpoint", out_dir / "model.ckpt"]
        echoed = out_dir / "effective_config.json"
        for stage in ["generate", "train", "segment", "eval", "recognize"]:
            assert run([stage, *base]) == 0
            again = tmp_path / f"again_{stage}"
            paths = ["--manifest", again / "corpus" / "manifest.json", "--out-dir", again,
                     "--checkpoint", again / "model.ckpt"]
            assert run(["generate", "--config", echoed, *paths]) == 0
            assert run(["train", "--config", echoed, *paths]) == 0


class TestKeepFreedHeap:
    TRIM, MMAP = (-1, 128 << 20), (-3, 32 << 20)  # glibc's parameter ids, and the values

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        cli._keep_freed_heap()
        assert calls == [self.TRIM, self.MMAP]

    def test_glibc_accepts_both_values(self):
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError):
            pytest.skip("this C library has no mallopt")
        assert mallopt(*self.TRIM) == 1 and mallopt(*self.MMAP) == 1

    @pytest.mark.parametrize("missing", ["library", "mallopt"])
    def test_does_nothing_without_mallopt(self, monkeypatch, missing):
        def cdll(name):
            if missing == "library":
                raise OSError("cannot open the C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli._keep_freed_heap() is None

    def test_train_sets_them_before_training(self, trained, tmp_path, monkeypatch):
        cfg_path, manifest, _ = trained
        events = []
        train = cli.trainer_mod.train
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: events.append("mallopt"))
        monkeypatch.setattr(cli.trainer_mod, "train",
                            lambda *args: events.append("train") or train(*args))
        assert run(["train", "--config", cfg_path, "--manifest", manifest,
                    "--out-dir", tmp_path, "--checkpoint", tmp_path / "m.ckpt"]) == 0
        assert events == ["mallopt", "train"]

    @pytest.mark.parametrize("command", ["segment", "eval", "recognize"])
    def test_inference_stages_set_them_before_reading_features(
        self, trained, tmp_path, monkeypatch, command
    ):
        _, manifest, ckpt = trained
        cfg_path = tmp_path / "kl.json"
        cfg_path.write_text(json.dumps({**TINY_CONFIG, "eval": {"kl": True}}))
        argv = ["--config", cfg_path, "--manifest", manifest, "--out-dir", tmp_path,
                "--checkpoint", ckpt]
        assert run(["segment", *argv]) == 0  # eval reads its labelings
        events, read = [], FeatureFile.read
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: events.append("mallopt"))
        monkeypatch.setattr(FeatureFile, "read",
                            lambda f, *rows: events.append("read") or read(f, *rows))
        assert run([command, *argv]) == 0
        assert events[0] == "mallopt" and events.count("mallopt") == 1 and "read" in events
