"""Acceptance criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Training-based
criteria share module-scoped fixtures; everything is seeded.  The whole
module is marked `slow`, so `pytest -m "not slow"` leaves it out.
"""
import itertools
import time

import numpy as np
import pytest

from protoseg import cli
from protoseg.data import CorpusSpec, generate_corpus
from protoseg.inference import gaussian_smooth, naive_labels, segment_corpus, viterbi_decode
from protoseg.losses import LossConfig
from protoseg.matching import (
    VideoEval,
    hungarian_solve,
    kl_prototype_sharing,
    match_at_level,
)
from protoseg.model import ModelConfig, infer, init_parameters
from protoseg.trainer import TrainConfig, train
from protoseg.autodiff import Tape, finite_diff_check
from protoseg import autodiff as ad

from conftest import GRADCHECK_CASES, brute_force_assignment_value, run_gradcheck_case
from test_model import full_loss_gradient_error

pytestmark = pytest.mark.slow


def _nprime_by_activity(videos):
    counts = {}
    for v in videos:
        counts.setdefault(v.activity, set()).update(
            int(a) for a in np.unique(v.gt_actions) if a
        )
    return {a: len(s) for a, s in counts.items()}


def _mof(affinities, corpus, scope, labelings):
    activities = {v.video_id: v.activity for v in corpus.videos}
    gt = {v.video_id: v for v in corpus.videos}
    vids = [
        VideoEval(vid, activities[vid], labels, gt[vid].gt_actions)
        for vid, labels in labelings.items()
    ]
    return match_at_level(vids, scope).mof


@pytest.fixture(scope="module")
def default_run():
    """The full-scale default run shared by criteria 5, 6, and 7."""
    spec = CorpusSpec()
    corpus = generate_corpus(spec)
    cfg = ModelConfig(
        input_dim=spec.feature_dim, n_activities=spec.n_activities, n_prototypes=10
    )
    t0 = time.perf_counter()
    result = train(corpus.videos, cfg, TrainConfig(epochs=240, seed=0), LossConfig())
    train_seconds = time.perf_counter() - t0
    affinities = {
        v.video_id: infer(v.features, result.params, cfg)[0] for v in corpus.videos
    }
    return {
        "spec": spec,
        "corpus": corpus,
        "cfg": cfg,
        "params": result.params,
        "affinities": affinities,
        "train_seconds": train_seconds,
    }


def _activity_labelings(run, **kw):
    activities = {v.video_id: v.activity for v in run["corpus"].videos}
    return segment_corpus(
        run["affinities"],
        activities,
        scope="activity",
        n_keep=_nprime_by_activity(run["corpus"].videos),
        **kw,
    )


def test_criterion_1_scope_statement():
    """Paper-scale results are out of reach at desk scale by design; the
    suite below is property-based plus directional synthetic findings."""
    assert True


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    for name, _, _ in GRADCHECK_CASES:
        worst = run_gradcheck_case(name, seeds=range(100))
        assert worst <= 1e-4, f"{name}: max relative error {worst:.2e}"
    # full combined loss over every parameter on toy instances
    for seed in range(100):
        err = full_loss_gradient_error(seed=seed, t_frames=5)
        assert err <= 1e-4, f"loss gradients seed {seed}: {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_3_hungarian_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        counts = rng.integers(0, 100, size=(n, m))
        _, total = hungarian_solve(counts)
        assert total == brute_force_assignment_value(counts)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"hungarian oracle took {elapsed:.1f}s"


class TestCriterion4StructuralInvariants:
    def test_affinity_rows_and_proto_repr(self):
        rng = np.random.default_rng(0)
        cfg = ModelConfig(input_dim=6, n_activities=3, n_prototypes=4, embed_dim=5)
        params = init_parameters(cfg, seed=1)
        for _ in range(20):
            t = int(rng.integers(1, 30))
            affinity, _, _ = infer(rng.normal(size=(t, 6)), params, cfg)
            assert np.allclose(affinity.sum(axis=1), 1.0, atol=1e-9)
            assert abs(affinity.sum() - t) <= 1e-6  # V^p total equals T

    def test_viterbi_monotone_vs_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            t = int(rng.integers(2, 11))
            k = int(rng.integers(1, 5))
            a = rng.uniform(0.01, 1.0, size=(t, k))
            ordering = list(range(1, k + 1))
            got = viterbi_decode(a, ordering, ordering)
            emit = np.log(np.maximum(a, 1e-12))
            paths = []
            for advances in range(min(k - 1, t - 1) + 1):
                for pos in itertools.combinations(range(1, t), advances):
                    level, path = 0, []
                    for step in range(t):
                        if step in pos:
                            level += 1
                        path.append(level)
                    paths.append(path)
            best = max(sum(emit[i, l] for i, l in enumerate(p)) for p in paths)
            got_score = sum(emit[i, int(l) - 1] for i, l in enumerate(got))
            assert got_score == pytest.approx(best, abs=1e-9)
            pos = [ordering.index(int(l)) for l in got]
            assert pos[0] == 0 and all(b - a_ in (0, 1) for a_, b in zip(pos, pos[1:]))

    def test_smoothing_preserves_mass(self):
        rng = np.random.default_rng(2)
        for t, sigma in ((200, 5.0), (40, 3.0), (9, 5.0)):
            a = rng.uniform(size=(t, 5))
            out = gaussian_smooth(a, sigma)
            assert np.allclose(out.sum(axis=0), a.sum(axis=0), atol=1e-6)

    def test_mof_scope_ordering_on_50_random_corpora(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            videos = []
            for i in range(int(rng.integers(2, 7))):
                t = int(rng.integers(5, 40))
                videos.append(
                    VideoEval(
                        f"v{i}",
                        int(rng.integers(1, 4)),
                        rng.integers(1, 7, size=t),
                        rng.integers(1, 6, size=t),
                    )
                )
            mv = match_at_level(videos, "video").mof
            ma = match_at_level(videos, "activity").mof
            mg = match_at_level(videos, "global").mof
            assert mv >= ma - 1e-12 >= mg - 2e-12


class TestCriterion5EndToEndRecovery:
    def test_runtime_budget(self, default_run):
        assert default_run["train_seconds"] < 600.0

    def test_global_and_activity_mof(self, default_run):
        labelings = _activity_labelings(default_run, smooth=True, sigma=5.0, decode=True)
        corpus = default_run["corpus"]
        global_mof = _mof(default_run["affinities"], corpus, "global", labelings)
        activity_mof = _mof(default_run["affinities"], corpus, "activity", labelings)
        print(f"\n  criterion 5: global MoF {global_mof:.3f} (>= 0.75), "
              f"activity MoF {activity_mof:.3f} (>= 0.85)")
        assert global_mof >= 0.75
        assert activity_mof >= 0.85


def test_criterion_6_ablation_directions(default_run):
    corpus = default_run["corpus"]
    naive = _activity_labelings(default_run)
    decoded = _activity_labelings(default_run, decode=True)
    smoothed = _activity_labelings(default_run, smooth=True, sigma=5.0, decode=True)
    mof_naive = _mof(default_run["affinities"], corpus, "activity", naive)
    mof_decode = _mof(default_run["affinities"], corpus, "activity", decoded)
    mof_smooth = _mof(default_run["affinities"], corpus, "activity", smoothed)
    print(f"\n  criterion 6: naive {mof_naive:.3f} < decode {mof_decode:.3f} "
          f"< smooth+decode {mof_smooth:.3f}")
    assert mof_decode > mof_naive
    assert mof_smooth > mof_decode


def test_criterion_7_sharing_analysis(default_run):
    corpus = default_run["corpus"]
    by_activity = {}
    for video in corpus.videos:
        labels = naive_labels(default_run["affinities"][video.video_id])
        by_activity.setdefault(video.activity, []).append(labels)
    matrix, ids = kl_prototype_sharing(by_activity, default_run["cfg"].n_prototypes)
    sharing = {}
    for i, acts_i in enumerate(corpus.canonical_actions):
        for j, acts_j in enumerate(corpus.canonical_actions):
            if i < j:
                sharing[(i + 1, j + 1)] = len(set(acts_i) & set(acts_j))
    sym = {
        pair: 0.5 * (matrix[ids.index(pair[0]), ids.index(pair[1])]
                     + matrix[ids.index(pair[1]), ids.index(pair[0])])
        for pair in sharing
    }
    heavy = [kl for pair, kl in sym.items() if sharing[pair] >= 2]
    disjoint = [kl for pair, kl in sym.items() if sharing[pair] == 0]
    assert heavy and disjoint, "default spec must produce both pair kinds"
    print(f"\n  criterion 7: max sharing-pair KL {max(heavy):.3f} "
          f"< min disjoint-pair KL {min(disjoint):.3f}")
    assert max(heavy) < min(disjoint)


def test_criterion_8_activity_recognition_heldout(default_run):
    corpus = default_run["corpus"]
    spec = default_run["spec"]
    rng = np.random.default_rng(0)
    train_videos, test_videos = [], []
    for activity in range(1, spec.n_activities + 1):
        group = [v for v in corpus.videos if v.activity == activity]
        order = rng.permutation(len(group))
        cut = int(round(0.8 * len(group)))
        train_videos += [group[i] for i in order[:cut]]
        test_videos += [group[i] for i in order[cut:]]
    cfg = default_run["cfg"]
    result = train(train_videos, cfg, TrainConfig(epochs=240, seed=0), LossConfig())

    def accuracy(wp, wg):
        correct = 0
        for v in test_videos:
            _, yp, yg = infer(v.features, result.params, cfg)
            pred = int(np.argmax(wp * yp + wg * yg)) + 1
            correct += int(pred == v.activity)
        return correct / len(test_videos)

    combined = accuracy(0.5, 0.5)
    proto_only = accuracy(1.0, 0.0)
    visual_only = accuracy(0.0, 1.0)
    print(f"\n  criterion 8: combined {combined:.3f}, proto {proto_only:.3f}, "
          f"visual {visual_only:.3f}")
    assert combined >= 0.90
    assert combined >= proto_only and combined >= visual_only


def test_criterion_9_determinism(tmp_path):
    config = {
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
    import json

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    snapshots = []
    for run_dir in ("run_a", "run_b"):
        out = tmp_path / run_dir
        manifest = out / "corpus" / "manifest.json"
        args = ["--config", str(cfg_path), "--manifest", str(manifest),
                "--out-dir", str(out), "--checkpoint", str(out / "model.ckpt")]
        for command in ("generate", "train", "segment", "eval"):
            assert cli.main([command, *args]) == 0
        snapshots.append(
            {
                p.relative_to(out): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "effective_config.json"
            }
        )
    assert sorted(snapshots[0]) == sorted(snapshots[1])
    for key in snapshots[0]:
        assert snapshots[0][key] == snapshots[1][key], f"{key} differs between runs"


def test_criterion_10_prototype_count_sensitivity():
    spec = CorpusSpec(videos_per_activity=10, frames_range=(60, 150), seed=5)
    corpus = generate_corpus(spec)
    activities = {v.video_id: v.activity for v in corpus.videos}
    moc = {}
    for n_protos in (8, 10, 12):
        cfg = ModelConfig(
            input_dim=spec.feature_dim,
            n_activities=spec.n_activities,
            n_prototypes=n_protos,
        )
        result = train(corpus.videos, cfg, TrainConfig(epochs=120, seed=0), LossConfig())
        videos = []
        for v in corpus.videos:
            affinity, _, _ = infer(v.features, result.params, cfg)
            videos.append(
                VideoEval(v.video_id, v.activity, naive_labels(affinity), v.gt_actions)
            )
        moc[n_protos] = match_at_level(videos, "global").reports[0].moc
    print(f"\n  criterion 10: MoC by prototype count {moc}")
    assert moc[10] > moc[8]
    assert moc[10] > moc[12]
