import math

import numpy as np
import pytest

from protoseg.matching import (
    VideoEval,
    _run_bounds,
    build_contingency,
    corpus_f1,
    hungarian_solve,
    kl_action_distribution,
    kl_divergence,
    kl_prototype_sharing,
    match_at_level,
    smoothed_distribution,
)

from conftest import (
    add_at_contingency,
    apply_assignment,
    brute_force_assignment_value,
    f1_segments,
    loop_runs,
    per_unit_match,
    per_video_f1,
    split_runs,
)


class TestContingency:
    def test_identical_labelings_diagonal(self):
        labels = np.array([1, 1, 2, 3, 3, 3])
        cont = build_contingency(labels, labels)
        assert np.array_equal(cont.counts, np.diag([2, 1, 3]))

    def test_hand_counts(self):
        cont = build_contingency(np.array([1, 1, 2]), np.array([1, 2, 2]))
        assert np.array_equal(cont.cluster_ids, [1, 2])
        assert np.array_equal(cont.action_ids, [1, 2])
        assert np.array_equal(cont.counts, [[1, 1], [0, 1]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_contingency(np.ones(3, dtype=int), np.ones(4, dtype=int))

    def test_matches_add_at_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = int(rng.integers(1, 60))
            pred = rng.integers(1, int(rng.integers(2, 12)), size=t)
            gt = rng.integers(0, int(rng.integers(1, 9)), size=t)
            cont = build_contingency(pred, gt)
            assert cont.counts.dtype == np.int64
            assert np.array_equal(cont.counts, add_at_contingency(pred, gt))

    def test_empty_input(self):
        cont = build_contingency(np.array([], dtype=int), np.array([], dtype=int))
        assert cont.counts.shape == (0, 0)


class TestHungarian:
    def test_diagonal_dominant_identity(self):
        counts = np.eye(4) * 10 + 1
        pairs, total = hungarian_solve(counts)
        assert pairs == [(i, i) for i in range(4)]
        assert total == 44.0

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(1)
        cases = []
        for _ in range(200):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(1, 8))
            cases.append(rng.integers(0, 50, size=(n, m)))
        for _ in range(50):  # tall and wide, up to 50 x 2 and 2 x 50, half the cells empty
            shape = (int(rng.integers(1, 51)), int(rng.integers(1, 3)))
            counts = rng.integers(0, 50, size=shape) * (rng.random(shape) < 0.5)
            cases += [counts, counts.T]
        for counts in cases:
            pairs, total = hungarian_solve(counts)
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            assert all(counts[i, j] > 0 for i, j in pairs)
            assert total == brute_force_assignment_value(counts)
            if np.all(counts > 0):
                assert len(pairs) == min(counts.shape)

    def test_all_equal_counts(self):
        counts = np.full((3, 5), 7)
        _, total = hungarian_solve(counts)
        assert total == 3 * 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hungarian_solve(np.zeros((0, 3)))


def _video(vid, activity, pred, gt, background=None):
    """A VideoEval whose prediction reads -1 where `background` is set."""
    pred = np.array(pred) if background is None else np.where(background, -1, pred)
    return VideoEval(vid, activity, pred, np.array(gt))


class TestMatchLevels:
    def test_single_video_video_equals_global(self):
        v = _video("v0", 1, [1, 1, 2, 2], [3, 3, 4, 4])
        assert match_at_level([v], "video").mof == match_at_level([v], "global").mof

    def test_video_level_can_beat_activity_level(self):
        # the two videos use the same cluster for different actions
        videos = [
            _video("v0", 1, [1, 1, 1, 2], [1, 1, 1, 2]),
            _video("v1", 1, [1, 1, 1, 3], [2, 2, 2, 1]),
        ]
        video_mof = match_at_level(videos, "video").mof
        activity_mof = match_at_level(videos, "activity").mof
        assert video_mof > activity_mof

    def test_zero_overlap_cluster_has_no_match(self):
        # clusters 1 and 2 cover action 1 on 5 and 4 frames; cluster 3 covers
        # actions 2 and 3 on 1 frame each, so cluster 2 overlaps no free action
        v = _video("v0", 1, [1] * 5 + [2] * 4 + [3, 3], [1] * 9 + [2, 3])
        result = match_at_level([v], "video")
        assignment = dict(result.reports[0].assignment)
        assert 2 not in assignment
        assert assignment[1] == 1 and assignment[3] in (2, 3)
        assert np.all(result.mapped["v0"][5:9] == 0)

    @pytest.mark.parametrize("scope", ["video", "activity", "global"])
    def test_mapped_is_minus_one_at_masked_and_zero_at_unmatched_frames(self, scope):
        # cluster 2 overlaps no action that cluster 1 leaves free; cluster 1
        # also covers the masked frames, which must not take its action
        background = np.array([False] * 9 + [True] * 3)
        v = _video("v0", 1, [1] * 5 + [2] * 4 + [1] * 3, [1] * 9 + [2] * 3, background)
        result = match_at_level([v], scope)
        assert dict(result.reports[0].assignment) == {1: 1}
        assert np.array_equal(result.mapped["v0"], [1] * 5 + [0] * 4 + [-1] * 3)

    def test_scope_ordering_on_random_corpora(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            videos = []
            n_videos = int(rng.integers(2, 6))
            for i in range(n_videos):
                t = int(rng.integers(5, 30))
                videos.append(
                    _video(
                        f"v{i}",
                        int(rng.integers(1, 4)),
                        rng.integers(1, 6, size=t),
                        rng.integers(1, 5, size=t),
                    )
                )
            mof_video = match_at_level(videos, "video").mof
            mof_activity = match_at_level(videos, "activity").mof
            mof_global = match_at_level(videos, "global").mof
            assert mof_video >= mof_activity - 1e-12
            assert mof_activity >= mof_global - 1e-12

    def test_cluster_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        perm = {1: 4, 2: 9, 3: 1, 4: 2, 5: 7}
        videos, permuted = [], []
        for i in range(4):
            t = 25
            pred = rng.integers(1, 6, size=t)
            gt = rng.integers(1, 5, size=t)
            videos.append(_video(f"v{i}", 1 + i % 2, pred, gt))
            permuted.append(_video(f"v{i}", 1 + i % 2, [perm[p] for p in pred], gt))
        for scope in ("video", "activity", "global"):
            a = match_at_level(videos, scope)
            b = match_at_level(permuted, scope)
            assert a.mof == pytest.approx(b.mof, abs=1e-12)
            for ra, rb in zip(a.reports, b.reports):
                assert ra.mop == pytest.approx(rb.mop, abs=1e-12)
                assert ra.moc == pytest.approx(rb.moc, abs=1e-12)

    def test_pooled_n_evaluated_counts_scored_frames(self):
        rng = np.random.default_rng(0)
        videos = [
            _video(f"v{i}", 1 + i % 2, rng.integers(1, 5, size=50), rng.integers(0, 4, size=50),
                   rng.random(50) < 0.2)  # gt zeros are background
            for i in range(3)
        ]
        scored = sum(int(np.sum((v.gt != 0) & (v.pred != -1))) for v in videos)
        for scope in ("video", "activity", "global"):
            reports = match_at_level(videos, scope).reports
            assert sum(r.n_evaluated for r in reports) == scored

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            match_at_level([_video("v", 1, [1], [1])], "cosmic")


def _mixed_activity_videos():
    rng = np.random.default_rng(4)
    return [
        _video(f"v{i}", activity, rng.integers(1, 5, size=20), rng.integers(0, 4, size=20),
               rng.random(20) < 0.1)
        for i, activity in enumerate([2, 10, 1, 2, 10])
    ]


_UNIT = {
    "video": lambda v: v.video_id,
    "activity": lambda v: str(v.activity),
    "global": lambda v: "corpus",
}


class TestMatchedLabeling:
    def test_activity_units_in_numeric_order(self):
        result = match_at_level(_mixed_activity_videos(), "activity")
        assert [rep.unit for rep in result.reports] == ["1", "2", "10"]

    @pytest.mark.parametrize("scope", ["video", "activity", "global"])
    def test_mapped_applies_the_unit_assignment(self, scope):
        videos = _mixed_activity_videos()
        result = match_at_level(videos, scope)
        reports = {rep.unit: rep for rep in result.reports}
        assert len(reports) == len(result.reports)
        for v in videos:
            assignment = dict(reports[_UNIT[scope](v)].assignment)
            assert np.array_equal(result.mapped[v.video_id], apply_assignment(v.pred, assignment))

    def test_corpus_f1_scores_the_mapped_labels(self):
        videos = _mixed_activity_videos()
        mapped = match_at_level(videos, "activity").mapped
        expected = np.mean([f1_segments(mapped[v.video_id], v.gt, v.evaluated()) for v in videos])
        assert corpus_f1(videos, mapped) == expected

    @pytest.mark.parametrize("scope", ["video", "activity", "global"])
    def test_unscored_frames_change_no_metric(self, scope):
        videos = _mixed_activity_videos()
        rng = np.random.default_rng(5)
        changed = [
            _video(v.video_id, v.activity,
                   np.where(v.evaluated() | (v.pred == -1), v.pred,
                            rng.integers(5, 9, size=len(v.pred))),
                   v.gt)
            for v in videos
        ]
        assert any(not np.array_equal(a.pred, b.pred) for a, b in zip(videos, changed))

        def metrics(vs):
            result = match_at_level(vs, scope)
            kl = [kl_action_distribution([v for v in vs if v.activity == activity], result.mapped)
                  for activity in (1, 2, 10)]
            reports = [(r.assignment, r.mof, r.mop, r.moc) for r in result.reports]
            f1 = corpus_f1(vs, result.mapped)
            return result.mof, result.per_video_mof, reports, f1, kl

        assert metrics(changed) == metrics(videos)


class TestMetrics:
    def test_perfect_predictions_all_ones(self):
        gt = np.array([1, 1, 2, 2, 3])
        rep = match_at_level([_video("v", 1, gt, gt)], "global").reports[0]
        assert rep.mof == 1.0 and rep.mop == 1.0 and rep.moc == 1.0

    def test_mof_vs_moc_imbalance(self):
        # class 1: 100 frames all correct; class 2: 10 frames all wrong
        pred = np.array([1] * 100 + [1] * 10)
        gt = np.array([1] * 100 + [2] * 10)
        rep = match_at_level([_video("v", 1, pred, gt)], "global").reports[0]
        assert rep.mof == pytest.approx(100 / 110)
        assert rep.moc == pytest.approx(0.5)

    def test_unmatched_classes_count_zero_in_moc(self):
        # one cluster, three classes: only one class can match
        pred = np.array([1] * 9)
        gt = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3])
        rep = match_at_level([_video("v", 1, pred, gt)], "global").reports[0]
        assert rep.moc == pytest.approx(1 / 3)

    def test_empty_evaluation_rejected(self):
        with pytest.raises(ValueError):
            match_at_level([_video("v", 1, [1, 2], [0, 0])], "global")


def _every(labels):
    return np.ones(len(labels), dtype=bool)


def _random_runs_cases(rng, n):
    """(labels, keep) pairs: random, T = 1, all masked, alternating masks, label 0."""
    cases = [
        (np.array([3]), np.array([True])),
        (np.array([3]), np.array([False])),
        (np.array([0, 0, 1, 1]), np.ones(4, dtype=bool)),
        (np.array([2, 2, 2, 2, 2]), np.zeros(5, dtype=bool)),
        (np.array([1, 1, 1, 1, 1, 1]), np.arange(6) % 2 == 0),
        (np.array([0, 1, 0, 1, 1, 0]), np.arange(6) % 2 == 1),
    ]
    while len(cases) < n:
        t = int(rng.integers(1, 40))
        labels = rng.integers(0, int(rng.integers(1, 5)), size=t)
        kind = len(cases) % 4
        if kind == 0:
            keep = np.zeros(t, dtype=bool)
        elif kind == 1:
            keep = (np.arange(t) + int(rng.integers(2))) % 2 == 0
        else:
            keep = rng.random(t) < rng.uniform(0.3, 1.0)
        cases.append((labels, keep))
    return cases


def _runs(labels, keep):
    """One video's runs from the flat run finder, as (label, start, end)."""
    labels, keep = np.asarray(labels), np.asarray(keep, dtype=bool)
    starts, ends = _run_bounds(labels, keep, np.arange(len(labels)) == 0)
    return list(zip(labels[starts].tolist(), starts.tolist(), ends.tolist()))


class TestRuns:
    def test_matches_loop_oracle(self):
        cases = _random_runs_cases(np.random.default_rng(12), 240)
        assert sum(not keep.any() for _, keep in cases) >= 50
        for labels, keep in cases:
            assert _runs(labels, keep) == loop_runs(labels, keep)

    def test_hand_case(self):
        labels = np.array([0, 0, 1, 1, 1, 2])
        keep = np.array([1, 1, 1, 0, 1, 1], dtype=bool)
        assert _runs(labels, keep) == [(0, 0, 2), (1, 2, 3), (1, 4, 5), (2, 5, 6)]

    def test_corpus_runs_are_each_videos_runs(self):
        cases = _random_runs_cases(np.random.default_rng(13), 60)
        labels = np.concatenate([labels for labels, _ in cases])
        keep = np.concatenate([keep for _, keep in cases])
        offsets = np.cumsum([0] + [len(labels) for labels, _ in cases])
        first = np.isin(np.arange(len(labels)), offsets[:-1])
        starts, ends = _run_bounds(labels, keep, first)
        expected = [(label, start + offset, end + offset)
                    for (lab, kp), offset in zip(cases, offsets)
                    for label, start, end in split_runs(lab, kp)]
        assert list(zip(labels[starts].tolist(), starts.tolist(), ends.tolist())) == expected


class TestF1Segments:
    def test_identical_segmentations(self):
        gt = np.array([1, 1, 2, 2, 2, 3])
        assert f1_segments(gt, gt, _every(gt)) == 1.0

    def test_no_overlap(self):
        gt = np.array([2, 2, 1, 1])
        assert f1_segments(np.array([1, 1, 2, 2]), gt, _every(gt)) == 0.0

    def test_half_coverage_hand_case(self):
        # gt: two segments of 10; predictions cover 60% of segment one and
        # 40% of segment two with the right labels, plus spurious segments.
        gt = np.array([1] * 10 + [2] * 10)
        pred = np.concatenate(
            [
                [1] * 6,
                [9] * 4,  # spurious segment
                [2] * 4,
                [8] * 6,  # spurious segment
            ]
        )
        # precision: pred segments for 1 and 2 both sit inside their gt
        # segments (overlap > half of the pred segment); 9 and 8 never match
        # -> 2/4.  recall: segment one recalled (6/10 > 1/2), two not (4/10)
        # -> 1/2.  F1 = 0.5
        assert f1_segments(pred, gt, _every(gt)) == pytest.approx(0.5)

    def test_exactly_half_is_not_recalled(self):
        gt = np.array([1] * 10)
        pred = np.array([1] * 5 + [2] * 5)
        # 5/10 is not > 50%: gt segment missed; pred segment 1 is precise
        assert f1_segments(pred, gt, _every(gt)) == 0.0

    def test_background_excluded(self):
        # frame 0 and 3 are background, the last frame is masked
        gt = np.array([0, 1, 1, 0, 2, 2, 2])
        mapped = np.array([7, 1, 1, 7, 2, 2, 7])
        mask = np.array([0, 0, 0, 0, 0, 0, 1], dtype=bool)
        assert corpus_f1([_video("v", 1, mapped, gt, mask)], {"v": mapped}) == 1.0


class TestKL:
    def test_identical_distributions_zero(self):
        p = smoothed_distribution(np.array([3.0, 5.0, 2.0]))
        assert kl_divergence(p, p) == 0.0

    def test_hand_value(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)

    def test_action_distribution_hand_value(self):
        # pred assigns half the frames to each action, truth is 25/75
        mapped = np.array([1, 1, 2, 2])
        got = kl_action_distribution([_video("v", 1, mapped, [1, 2, 2, 2])], {"v": mapped})
        forward = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        reverse = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert got == pytest.approx((forward, reverse), abs=1e-4)

    def test_action_distribution_missed_action(self):
        # the prediction never shows action 2; the reverse direction sees it
        mapped = np.array([1, 1, 1, 0])
        pred_vs_gt, gt_vs_pred = kl_action_distribution(
            [_video("v", 1, mapped, [1, 1, 2, 2])], {"v": mapped}
        )
        p = smoothed_distribution(np.array([3.0, 0.0]))
        q = smoothed_distribution(np.array([2.0, 2.0]))
        assert pred_vs_gt == kl_divergence(p, q) == pytest.approx(math.log(2.0), abs=1e-6)
        assert gt_vs_pred == kl_divergence(q, p) == pytest.approx(9.066, abs=1e-3)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = smoothed_distribution(rng.uniform(0, 10, size=6))
            q = smoothed_distribution(rng.uniform(0, 10, size=6))
            assert kl_divergence(p, q) >= 0.0

    def test_prototype_sharing_matrix(self):
        # activities 1/2 share prototypes; activity 3 is disjoint
        labelings = {
            1: [np.array([1, 1, 2, 2])],
            2: [np.array([1, 2, 2, 2])],
            3: [np.array([5, 5, 6, 6])],
        }
        matrix, ids = kl_prototype_sharing(labelings, n_prototypes=6)
        assert ids == [1, 2, 3]
        assert np.allclose(np.diag(matrix), 0.0)
        assert matrix[0, 1] < matrix[0, 2]
        assert matrix[1, 0] < matrix[1, 2]
        assert np.all(np.isfinite(matrix))

    def test_sharing_self_zero(self):
        matrix, _ = kl_prototype_sharing({1: [np.array([1, 2])]}, 3)
        assert matrix.shape == (1, 1) and matrix[0, 0] == 0.0

    def test_background_frames_count_for_no_prototype(self):
        masked = {1: [np.array([-1, 1, 1, -1, 2])], 2: [np.array([3, -1]), np.array([-1, -1])]}
        kept = {1: [np.array([1, 1, 2])], 2: [np.array([3])]}
        matrix, ids = kl_prototype_sharing(masked, 3)
        expected, expected_ids = kl_prototype_sharing(kept, 3)
        assert ids == expected_ids and matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("label", [0, -2, 4])
    def test_label_outside_the_bank_is_named(self, label):
        labelings = {1: [np.array([1, 2])], 2: [np.array([-1, 3, label, 1])]}
        with pytest.raises(ValueError) as raised:
            kl_prototype_sharing(labelings, 3)
        assert str(raised.value) == f"prototype label {label} outside [1, 3]"


PROTOTYPE_999 = 999999999999999999


def _random_scoring_corpus(rng):
    """VideoEvals with -1 masks, 0 background, one-video activities and huge ids."""
    videos = []
    for i in range(int(rng.integers(1, 9))):
        t = 1 if rng.random() < 0.2 else int(rng.integers(2, 60))
        ids = rng.choice([1, 2, 3, 7, 50, PROTOTYPE_999], size=int(rng.integers(1, 5)),
                         replace=False)
        pred = rng.choice(ids, size=t)
        gt = rng.integers(0, int(rng.integers(2, 6)), size=t)
        activity = 100 + i if rng.random() < 0.3 else int(rng.choice([1, 2, 10]))
        videos.append(_video(f"v{i}", activity, pred, gt, rng.random(t) < 0.15))
    return videos


def _same_match(got, expected):
    def mofs(result):
        return {vid: "nan" if math.isnan(m) else m for vid, m in result.per_video_mof.items()}

    return (
        got.scope == expected.scope
        and got.mof == expected.mof
        and [vars(r) for r in got.reports] == [vars(r) for r in expected.reports]
        and list(mofs(got).items()) == list(mofs(expected).items())
        and list(got.mapped) == list(expected.mapped)
        and all(got.mapped[vid].dtype == expected.mapped[vid].dtype
                and np.array_equal(got.mapped[vid], expected.mapped[vid]) for vid in got.mapped)
    )


class TestFlatScoringOracles:
    """The flat matching and F1 against the per-unit, per-video loops they replaced."""

    def test_match_at_level_equals_per_unit_loop(self):
        rng = np.random.default_rng(21)
        compared = 0
        for _ in range(150):
            videos = _random_scoring_corpus(rng)
            for scope in ("video", "activity", "global"):
                try:
                    expected = per_unit_match(videos, scope)
                except ValueError as exc:
                    with pytest.raises(ValueError) as raised:
                        match_at_level(videos, scope)
                    assert str(raised.value) == str(exc)
                    continue
                assert _same_match(match_at_level(videos, scope), expected)
                compared += 1
        assert compared >= 200

    def test_prototype_999_is_matched_without_a_table_by_id(self):
        v = _video("v", 1, [PROTOTYPE_999] * 3 + [2] * 2, [4, 4, 4, 0, 5])
        result = match_at_level([v], "video")
        assert result.reports[0].assignment == [(2, 5), (PROTOTYPE_999, 4)]
        assert _same_match(result, per_unit_match([v], "video"))

    def test_corpus_f1_equals_per_video_loop(self):
        rng = np.random.default_rng(22)
        for _ in range(150):
            videos = _random_scoring_corpus(rng)
            try:
                mapped = per_unit_match(videos, "global").mapped
            except ValueError:
                continue
            expected = np.mean([per_video_f1(mapped[v.video_id], v.gt, v.evaluated())
                                for v in videos])
            assert corpus_f1(videos, mapped) == expected

    def test_f1_segments_equals_per_video_loop(self):
        rng = np.random.default_rng(23)
        for labels, keep in _random_runs_cases(rng, 300):
            mapped = rng.integers(0, 4, size=len(labels))
            assert f1_segments(mapped, labels, keep) == per_video_f1(mapped, labels, keep)


class TestApplyAssignment:
    def test_basic_mapping(self):
        mapped = apply_assignment(np.array([1, 2, 3]), {1: 7, 3: 9})
        assert np.array_equal(mapped, [7, 0, 9])
