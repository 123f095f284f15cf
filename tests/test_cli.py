import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from protoseg.checkpoint import load_checkpoint
from protoseg.cli import main
from protoseg.data import _write_features, read_corpus
from protoseg.inference import naive_labels
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
        # matched labels were filled in after eval
        line = seg_files[0].read_text().splitlines()[0]
        frame, proto, action = line.split()
        assert frame == "0" and int(proto) >= 1

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
        checkpoint = load_checkpoint(ckpt)
        for video in corpus.videos:
            affinity, _, _ = infer(video.features, checkpoint.params, checkpoint.model)
            expected = naive_labels(affinity)
            lines = (out_dir / "segments" / f"{video.video_id}.seg.txt").read_text()
            got = np.array([int(l.split()[1]) for l in lines.splitlines()])
            assert np.array_equal(got, expected)

    def test_activity_scope_segment_and_eval(self, workdir):
        tmp_path, cfg_path = workdir
        out_dir, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--out-dir", out_dir,
                "--checkpoint", ckpt]
        assert run(["segment", *base, "--scope", "activity", "--nprime", "gt"]) == 0
        assert run(["eval", *base, "--scope", "activity"]) == 0
        report = json.loads((out_dir / "metrics_activity.json").read_text())
        assert len(report["units"]) == 2


class TestErrors:
    def test_eval_without_checkpoint_is_config_error(self, workdir, capsys):
        tmp_path, cfg_path = workdir
        code = run(["eval", "--config", cfg_path, "--manifest", tmp_path / "nope.json",
                    "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and err.count("\n") == 1

    def test_unknown_command_exits_2(self, capsys):
        assert run(["transmogrify"]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")

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
        assert run(["segment", *base, "--scope", "video"]) == 2

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
        cfg = {**TINY_CONFIG, **{k: {**TINY_CONFIG.get(k, {}), **v} for k, v in override.items()}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        code = run([command, "--config", bad, "--manifest", manifest,
                    "--out-dir", tmp_path / "out", "--checkpoint", tmp_path / "m.ckpt", *args])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {section}: ") and err.count("\n") == 1

    def test_bad_nprime_value(self, workdir):
        tmp_path, cfg_path = workdir
        code = run(["segment", "--config", cfg_path, "--nprime", "many",
                    "--manifest", tmp_path / "m.json", "--out-dir", tmp_path / "out"])
        assert code == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A config, a generated corpus's manifest and a trained checkpoint."""
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    _, manifest, ckpt = _pipeline(tmp_path, cfg_path)
    return cfg_path, manifest, ckpt


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

    def test_mixed_feature_dims_is_named_corpus_error(self, trained, tmp_path, capsys):
        cfg_path, manifest, ckpt = trained
        text = json.loads(manifest.read_text())
        entry = text["videos"][1]
        odd = manifest.parent / "features" / f"odd_{tmp_path.name}.feat"
        _write_features(odd, np.zeros((entry["T"], TINY_CONFIG["corpus"]["feature_dim"] * 2)))
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
            lambda lines: [*lines[:3], "3 x -1", *lines[4:]],
            lambda lines: [*lines[:3], "4 1 -1", *lines[4:]],
            lambda lines: [*lines[:3], "3 0 -1", *lines[4:]],
            lambda lines: [l.rsplit(" ", 1)[0] for l in lines],
            lambda lines: [],
            lambda lines: lines[:-1],
        ],
        ids=["two-fields", "not-integer", "frame-column", "prototype-0", "all-two-fields",
             "empty", "frame-count"],
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

    def test_threads_flag_gives_same_outputs(self, workdir):
        tmp_path, cfg_path = workdir
        out1, manifest, ckpt = _pipeline(tmp_path, cfg_path)
        base = ["--config", cfg_path, "--manifest", manifest, "--checkpoint", ckpt]
        out2 = tmp_path / "out_threads"
        assert run(["segment", *base, "--out-dir", out2, "--threads", "4"]) == 0
        for seg in sorted((out1 / "segments").glob("*.seg.txt")):
            twin = out2 / "segments" / seg.name
            # eval already rewrote out1's files with matched labels; compare
            # prototype columns only
            a = [l.split()[:2] for l in seg.read_text().splitlines()]
            b = [l.split()[:2] for l in twin.read_text().splitlines()]
            assert a == b
