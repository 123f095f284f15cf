import itertools
import math

import numpy as np
import pytest

from protoseg.inference import (
    action_ordering,
    activity_reduce,
    background_mask,
    gaussian_kernel,
    gaussian_smooth,
    naive_labels,
    recognize_activity,
    segment_corpus,
    viterbi_decode,
    viterbi_decode_batch,
)

from conftest import per_video_viterbi


class TestNaiveLabels:
    def test_one_hot_rows(self):
        a = np.eye(4)[[2, 0, 3, 1]]
        assert np.array_equal(naive_labels(a), [3, 1, 4, 2])

    def test_hand_row(self):
        assert naive_labels(np.array([[0.2, 0.5, 0.3]]))[0] == 2

    def test_tie_takes_lowest_index(self):
        assert naive_labels(np.array([[0.5, 0.5]]))[0] == 1


class TestActivityReduce:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.01, 1.0, size=(6, 4))
        a = raw / raw.sum(axis=1, keepdims=True)
        kept, reduced = activity_reduce([a], 4)
        assert np.array_equal(kept, [1, 2, 3, 4])
        assert np.allclose(reduced[0], a)

    def test_keeps_most_frequent(self):
        # prototype 1 on 100 frames, 2 on 50, 3 on a single frame
        a = np.zeros((151, 3))
        a[:100, 0] = 1.0
        a[100:150, 1] = 1.0
        a[150, 2] = 1.0
        kept, _ = activity_reduce([a], 2)
        assert np.array_equal(kept, [1, 2])

    def test_reduced_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        mats = []
        for _ in range(3):
            raw = rng.uniform(0.0, 1.0, size=(10, 5))
            mats.append(raw / raw.sum(axis=1, keepdims=True))
        _, reduced = activity_reduce(mats, 3)
        for r in reduced:
            assert np.allclose(r.sum(axis=1), 1.0, atol=1e-9)

    def test_count_tie_keeps_lower_id(self):
        a = np.zeros((4, 3))
        a[:2, 2] = 1.0
        a[2:, 1] = 1.0
        kept, _ = activity_reduce([a], 1)
        assert np.array_equal(kept, [2])

    def test_bad_nkeep_rejected(self):
        a = np.full((2, 3), 1 / 3)
        with pytest.raises(ValueError):
            activity_reduce([a], 4)
        with pytest.raises(ValueError):
            activity_reduce([a], 0)


class TestGaussianSmooth:
    def test_constant_column_unchanged(self):
        a = np.tile([0.3, 0.7], (50, 1))
        out = gaussian_smooth(a, 5.0)
        assert np.allclose(out, a, atol=1e-12)

    def test_impulse_recovers_kernel(self):
        sigma = 5.0
        kernel = gaussian_kernel(sigma)
        radius = (len(kernel) - 1) // 2
        t_total = 2 * len(kernel) + 1
        a = np.zeros((t_total, 1))
        center = t_total // 2
        a[center, 0] = 1.0
        out = gaussian_smooth(a, sigma)
        assert np.allclose(out[center - radius : center + radius + 1, 0], kernel, atol=1e-12)

    def test_mass_preserved(self):
        rng = np.random.default_rng(2)
        for t_total, sigma in ((100, 5.0), (30, 3.0), (7, 5.0), (3, 10.0)):
            a = rng.uniform(size=(t_total, 4))
            out = gaussian_smooth(a, sigma)
            assert np.allclose(out.sum(axis=0), a.sum(axis=0), atol=1e-6)

    def test_short_columns_reflect_again_and_again(self):
        # below the radius ceil(4 sigma) = 20 a column reflects more than once
        sigma = 5.0
        kernel = gaussian_kernel(sigma)
        radius = (len(kernel) - 1) // 2
        rng = np.random.default_rng(3)
        for t_total in range(1, 2 * radius + 3):
            a = rng.uniform(size=(t_total, 3))
            out = gaussian_smooth(a, sigma)
            for col in range(a.shape[1]):
                # c b a | a b c | c b a | a b c ...: the column, then mirror
                # images of it, alternately reversed, outward on both sides
                block, left, right = list(a[:, col]), [], []
                while len(left) < radius:
                    block = block[::-1]
                    left, right = block + left, right + block
                padded = np.array(left[len(left) - radius :] + list(a[:, col]) + right[:radius])
                want = np.convolve(padded, kernel, mode="valid")
                assert out[:, col].tobytes() == want.tobytes(), (t_total, col)

    def test_block_constant_labels_survive_smoothing(self):
        sigma = 2.0
        block = int(9 * sigma)
        a = np.zeros((3 * block, 3))
        a[:block, 0] = 1.0
        a[block : 2 * block, 1] = 1.0
        a[2 * block :, 2] = 1.0
        before = naive_labels(a)
        after = naive_labels(gaussian_smooth(a, sigma))
        assert np.array_equal(before, after)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_smooth(np.ones((5, 2)), 0.0)


class TestActionOrdering:
    def test_first_second_half(self):
        labels = [np.array([3] * 10 + [7] * 10), np.array([3] * 4 + [7] * 12)]
        assert np.array_equal(action_ordering(labels, [3, 7]), [3, 7])

    def test_late_prototype_after_early(self):
        early = np.array([5] + [9] * 9)  # 5 at t/T=0.0, 9 later
        assert np.array_equal(action_ordering([early], [9, 5]), [5, 9])

    def test_tied_averages_by_lower_id(self):
        labels = [np.array([4, 2])]  # both average to mid-video after pooling
        # 4 at t=0 (0.0), 2 at t=1 (0.5): order by timestamp -> [4, 2]
        assert np.array_equal(action_ordering(labels, [2, 4]), [4, 2])
        same = [np.array([6]), np.array([1])]  # both at 0.0 -> tie -> lower id
        assert np.array_equal(action_ordering(same, [6, 1]), [1, 6])

    def test_empty_prototype_goes_last(self):
        labels = [np.array([2, 2, 2])]
        assert np.array_equal(action_ordering(labels, [5, 2]), [2, 5])


def _enumerate_monotone_paths(t_total, k_total):
    """All label paths that start at element 0 and stay/advance each step."""
    for advances in range(min(k_total - 1, t_total - 1) + 1):
        for positions in itertools.combinations(range(1, t_total), advances):
            path = []
            level = 0
            for t in range(t_total):
                if t in positions:
                    level += 1
                path.append(level)
            yield path


class TestViterbi:
    def test_single_prototype(self):
        a = np.random.default_rng(0).uniform(size=(5, 1))
        labels = viterbi_decode(a, [4], [4])
        assert np.array_equal(labels, [4] * 5)

    def test_hand_case(self):
        a = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
        labels = viterbi_decode(a, [1, 2], [1, 2])
        assert np.array_equal(labels, [1, 2, 2])

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            t_total = int(rng.integers(2, 11))
            k_total = int(rng.integers(1, 5))
            a = rng.uniform(0.01, 1.0, size=(t_total, k_total))
            ordering = list(range(1, k_total + 1))
            got = viterbi_decode(a, ordering, ordering)
            emit = np.log(np.maximum(a, 1e-12))
            best = -np.inf
            for path in _enumerate_monotone_paths(t_total, k_total):
                score = sum(emit[t, lvl] for t, lvl in enumerate(path))
                best = max(best, score)
            got_score = sum(
                emit[t, int(label) - 1] for t, label in enumerate(got)
            )
            assert got_score == pytest.approx(best, abs=1e-9)

    def test_output_is_monotone_prefix_expansion(self):
        rng = np.random.default_rng(4)
        ordering = [5, 2, 8, 1]
        for _ in range(20):
            a = rng.uniform(size=(12, 4))
            labels = viterbi_decode(a, ordering, [1, 2, 5, 8])
            pos = [ordering.index(int(l)) for l in labels]
            assert pos[0] == 0
            assert all(b - a_ in (0, 1) for a_, b in zip(pos, pos[1:]))
            assert sum(b != a_ for a_, b in zip(labels, labels[1:])) <= len(ordering) - 1

    def test_rejects_unknown_ordering_id(self):
        with pytest.raises(ValueError):
            viterbi_decode(np.ones((3, 2)), [1, 9], [1, 2])


class TestViterbiBatch:
    """The batched recursion against the one-video loop it replaced."""

    def test_equals_per_video_loop(self):
        rng = np.random.default_rng(31)
        for k in range(1, 9):
            for _ in range(12):
                column_ids = np.arange(1, k + 3) * 7
                ordering = rng.permutation(column_ids)[:k]
                affinities = []
                for _ in range(int(rng.integers(1, 10))):
                    t = 1 if rng.random() < 0.25 else int(rng.integers(2, 80))
                    a = rng.uniform(size=(t, k + 2))
                    a[rng.random(a.shape) < 0.3] = 0.0  # exact zeros tie after the clamp
                    if rng.random() < 0.15:
                        a[:] = 0.0  # every path ties
                    affinities.append(a)
                got = viterbi_decode_batch(affinities, ordering, column_ids)
                assert len(got) == len(affinities)
                for a, labels in zip(affinities, got):
                    expected = per_video_viterbi(a, ordering, column_ids)
                    assert labels.dtype == np.int64 and np.array_equal(labels, expected)
                    assert np.array_equal(viterbi_decode(a, ordering, column_ids), expected)

    def test_segment_corpus_decodes_each_video_as_alone(self):
        rng = np.random.default_rng(32)
        affinities, activities = {}, {}
        for i in range(9):
            raw = rng.uniform(size=(int(rng.integers(1, 40)), 6))
            raw[rng.random(raw.shape) < 0.3] = 0.0
            raw[:, 0] += 1e-3
            affinities[f"v{i}"] = raw / raw.sum(axis=1, keepdims=True)
            activities[f"v{i}"] = 1 + i % 3
        got = segment_corpus(affinities, activities, scope="activity", n_keep=4, decode=True)
        for activity in (1, 2, 3):
            vids = sorted(v for v in affinities if activities[v] == activity)
            kept, reduced = activity_reduce([affinities[v] for v in vids], 4)
            order = action_ordering([kept[np.argmax(a, axis=1)] for a in reduced], kept)
            for vid, a in zip(vids, reduced):
                assert np.array_equal(got[vid], per_video_viterbi(a, order, kept))

    @pytest.mark.parametrize("as_dict", [False, True])
    def test_segment_corpus_refuses_more_kept_prototypes_than_n(self, as_dict):
        affinities = {f"v{i}": np.full((5, 6), 1 / 6) for i in range(4)}
        activities = {vid: 1 + i % 2 for i, vid in enumerate(affinities)}
        n_keep = {1: 3, 2: 7} if as_dict else 7
        with pytest.raises(ValueError, match=r"n_keep 7 outside \[1, 6\]"):
            segment_corpus(affinities, activities, scope="activity", n_keep=n_keep)


class TestBackgroundMask:
    def test_eta_zero_no_background(self):
        a = np.random.default_rng(5).uniform(size=(10, 3))
        assert not background_mask(a, 0.0).any()

    def test_four_frames_keep_one(self):
        a = np.zeros((4, 2))
        a[:, 0] = [0.9, 0.8, 0.7, 0.6]
        a[:, 1] = 1.0 - a[:, 0]
        mask = background_mask(a, 0.75)
        assert np.array_equal(mask, [False, True, True, True])

    def test_kept_frames_dominate_masked(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(40, 4))
        a = a / a.sum(axis=1, keepdims=True)
        mask = background_mask(a, 0.5)
        labels = naive_labels(a)
        for pid in np.unique(labels):
            frames = labels == pid
            kept = a[frames & ~mask, pid - 1]
            dropped = a[frames & mask, pid - 1]
            if kept.size and dropped.size:
                assert kept.min() >= dropped.max()

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            background_mask(np.ones((2, 2)), 1.0)


class TestRecognizeActivity:
    def test_wg_zero_uses_proto_head(self):
        assert recognize_activity([0.1, 0.9], [0.9, 0.1], 1.0, 0.0) == 2

    def test_hand_mixture(self):
        assert recognize_activity([0.6, 0.4], [0.2, 0.8], 0.5, 0.5) == 2

    def test_weight_scaling_invariance(self):
        yp, yg = [0.3, 0.5, 0.2], [0.1, 0.2, 0.7]
        a = recognize_activity(yp, yg, 0.4, 0.6)
        b = recognize_activity(yp, yg, 4.0, 6.0)
        assert a == b

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            recognize_activity([1.0], [1.0], 0.0, 0.0)
        with pytest.raises(ValueError):
            recognize_activity([1.0], [1.0], -1.0, 1.0)


class TestSegmentCorpus:
    def _affinities(self):
        rng = np.random.default_rng(7)
        affinities, activities = {}, {}
        for i in range(4):
            raw = rng.uniform(0.01, 1.0, size=(12, 5))
            affinities[f"v{i}"] = raw / raw.sum(axis=1, keepdims=True)
            activities[f"v{i}"] = 1 + i % 2
        return affinities, activities

    def test_global_is_naive(self):
        affinities, activities = self._affinities()
        out = segment_corpus(affinities, activities, scope="global")
        for vid, labels in out.items():
            assert labels.dtype == np.int64
            assert np.array_equal(labels, naive_labels(affinities[vid]))

    def test_activity_scope_labels_are_kept_ids(self):
        affinities, activities = self._affinities()
        out = segment_corpus(
            affinities, activities, scope="activity", n_keep=3, smooth=True, decode=True
        )
        for labels in out.values():
            assert np.all((labels >= 1) & (labels <= 5))

    def test_deterministic(self):
        affinities, activities = self._affinities()
        a = segment_corpus(affinities, activities, scope="activity", n_keep=2, decode=True)
        b = segment_corpus(affinities, activities, scope="activity", n_keep=2, decode=True)
        for vid in a:
            assert np.array_equal(a[vid], b[vid])

    @pytest.mark.parametrize("scope", ["global", "activity"])
    def test_masked_frames_are_minus_one(self, scope):
        affinities, activities = self._affinities()
        plain = segment_corpus(affinities, activities, scope=scope, n_keep=3, decode=True)
        masked = segment_corpus(affinities, activities, scope=scope, n_keep=3, decode=True,
                                eta=0.5)
        for vid, labels in masked.items():
            mask = background_mask(affinities[vid], 0.5)
            assert mask.any() and not mask.all()
            assert np.array_equal(labels, np.where(mask, -1, plain[vid]))

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            segment_corpus({}, {}, scope="galaxy")
