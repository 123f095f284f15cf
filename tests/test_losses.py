import math

import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg import losses as losses_mod
from protoseg.autodiff import Tape
from protoseg.losses import LossConfig, activity_loss, one_hot, tmse_loss, total_loss

from conftest import finite_diff_check, two_log_bce, unfused_total_loss


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.alpha == 0.5 and cfg.smooth_weight == 0.15 and cfg.truncation == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5)
        with pytest.raises(ValueError):
            LossConfig(smooth_weight=-0.1)
        with pytest.raises(ValueError):
            LossConfig(truncation=0.0)
        for bad in ({"smooth_weight": math.nan}, {"truncation": math.nan}):
            with pytest.raises(ValueError):
                LossConfig(**bad)
        for bad in ({"alpha": True}, {"smooth_weight": math.inf}, {"truncation": "4"}):
            with pytest.raises(ValueError):
                LossConfig(**bad)

    def test_integers_and_numpy_scalars_accepted(self):
        cfg = LossConfig(alpha=np.float64(0.25), smooth_weight=0, truncation=np.float32(4.0))
        assert (cfg.alpha, cfg.smooth_weight, cfg.truncation) == (0.25, 0, 4.0)


class TestActivityLoss:
    def test_perfect_prediction_limit(self):
        tape = Tape()
        probs = tape.var(np.array([1.0 - 1e-9, 1e-9]))
        loss = activity_loss(probs, np.array([1.0, 0.0]))
        # clamp floor is 1e-7, so the limit is bounded by ~4e-7
        assert loss.value < 1e-6

    def test_uniform_two_class_hand_value(self):
        tape = Tape()
        probs = tape.var(np.array([0.5, 0.5]))
        loss = activity_loss(probs, np.array([1.0, 0.0]))
        assert float(loss.value) == pytest.approx(2.0 * math.log(2.0), abs=1e-9)

    def test_nonnegative_and_monotone(self):
        prev = None
        for p_true in np.linspace(0.2, 0.95, 12):
            tape = Tape()
            other = (1.0 - p_true) / 2.0
            probs = tape.var(np.array([p_true, other, other]))
            loss = float(activity_loss(probs, np.array([1.0, 0.0, 0.0])).value)
            assert loss >= 0.0
            if prev is not None:
                assert loss < prev
            prev = loss

    def test_rejects_non_one_hot(self):
        tape = Tape()
        probs = tape.var(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="one-hot"):
            activity_loss(probs, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="one-hot"):
            activity_loss(probs, np.array([1.0, 1.0]))

    def test_matches_two_log_oracle_bitwise(self):
        rng = np.random.default_rng(12)
        for case in range(700):
            n = int(rng.integers(2, 12))
            probs = np.exp(rng.normal(scale=3.0, size=n))
            probs /= probs.sum()
            if case % 7 == 0:
                probs[rng.integers(n)] = (0.0, 1.0, 1e-9, 1.0 - 1e-9)[case // 7 % 4]
            target = one_hot(int(rng.integers(1, n + 1)), n)
            results = []
            for loss_fn in (activity_loss, two_log_bce):
                tape = Tape()
                p = tape.var(probs)
                loss = loss_fn(p, target)
                tape.backward(loss)
                results.append((loss.value, p.grad))
            (value, grad), (oracle_value, oracle_grad) = results
            assert np.array_equal(value, oracle_value), (case, probs, target)
            assert np.array_equal(grad, oracle_grad), (case, probs, target)

    def test_one_hot_helper(self):
        assert np.array_equal(one_hot(2, 4), [0, 1, 0, 0])
        with pytest.raises(ValueError):
            one_hot(0, 4)
        with pytest.raises(ValueError):
            one_hot(5, 4)


class TestTmseLoss:
    def test_time_constant_affinity_zero(self):
        tape = Tape()
        a = tape.var(np.tile([0.3, 0.7], (6, 1)))
        assert float(tmse_loss(a, 4.0).value) == 0.0

    def test_truncated_hand_value(self):
        # |log e^5 - log e^0| = 5, truncated to 4 -> 16 / (T*N = 2) = 8
        tape = Tape()
        a = tape.var(np.array([[1.0], [math.exp(5.0)]]))
        assert float(tmse_loss(a, 4.0).value) == pytest.approx(8.0, abs=1e-9)

    def test_time_reversal_invariant(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0.05, 1.0, size=(7, 4))
        t1, t2 = Tape(), Tape()
        fwd = float(tmse_loss(t1.var(vals), 4.0).value)
        rev = float(tmse_loss(t2.var(vals[::-1]), 4.0).value)
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_single_frame_warns_and_returns_zero(self):
        tape = Tape()
        a = tape.var(np.array([[0.5, 0.5]]))
        with pytest.warns(UserWarning):
            assert float(tmse_loss(a, 4.0).value) == 0.0

    def test_nonnegative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tape = Tape()
            a = tape.var(rng.uniform(0.0, 1.0, size=(5, 3)))
            assert float(tmse_loss(a, 4.0).value) >= 0.0

    def test_truncation_keeps_tau_squared_and_zero_gradient(self):
        # one jump far above tau: contributes tau^2, zero gradient through it
        tape = Tape()
        a = tape.var(np.array([[1.0], [math.exp(9.0)]]))
        loss = tmse_loss(a, 4.0)
        assert float(loss.value) == pytest.approx(16.0 / 2.0, abs=1e-9)
        tape.backward(loss)
        assert np.allclose(a.grad, 0.0)


class TestTotalLoss:
    def test_alpha_one_lambda_zero(self):
        tape = Tape()
        lp, lg, ls = tape.var(2.0), tape.var(4.0), tape.var(1.0)
        cfg = LossConfig(alpha=1.0, smooth_weight=0.0)
        assert float(total_loss(lp, lg, ls, cfg).value) == pytest.approx(2.0)

    def test_hand_combination(self):
        tape = Tape()
        lp, lg, ls = tape.var(2.0), tape.var(4.0), tape.var(1.0)
        cfg = LossConfig(alpha=0.5, smooth_weight=0.15)
        assert float(total_loss(lp, lg, ls, cfg).value) == pytest.approx(3.15, abs=1e-12)

    def test_gradient_through_weights(self):
        def fn(tape, lp, lg, ls):
            return total_loss(lp, lg, ls, LossConfig(alpha=0.3, smooth_weight=0.2))

        err = finite_diff_check(fn, [np.array(1.3), np.array(0.4), np.array(2.2)])
        assert err <= 1e-4

    # which leaf fills each term: one Var may fill several, and then its
    # adjoints add in the chain's order
    @pytest.mark.parametrize("leaves", [(0, 1, 2), (0, 0, 2), (0, 0, 0)])
    def test_one_record_bitwise_the_scale_add_chain(self, leaves):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 5.0, size=3)
        # (0.15 + 0.9) + 0.1 and (0.1 + 0.9) + 0.15 differ in the last bit
        cfg = LossConfig(alpha=0.1, smooth_weight=0.15)
        results = []
        for combine in (total_loss, unfused_total_loss):
            tape = Tape()
            terms = [tape.var(v) for v in values]
            terms = [terms[i] for i in leaves]
            loss = combine(*terms, cfg)
            records = len(tape._records)
            tape.backward(loss)
            results.append((records, loss.value.tobytes(), [t.grad.tobytes() for t in terms]))
        (fused_records, *fused), (chain_records, *chain) = results
        assert (fused_records, chain_records) == (1, 5)
        assert fused == chain


def test_loss_composition_gradients():
    """Classification + smoothing combo has finite-difference-clean gradients."""

    def fn(tape, probs_logits, a_raw):
        probs = ad.softmax(probs_logits)
        a = ad.row_normalize(ad.clamp(a_raw, 0.01, None))
        lp = activity_loss(probs, np.array([0.0, 1.0, 0.0]))
        ls = tmse_loss(a, 4.0)
        return total_loss(lp, lp, ls, LossConfig())

    rng = np.random.default_rng(2)
    err = finite_diff_check(fn, [rng.normal(size=3), rng.uniform(0.05, 1.0, size=(5, 4))])
    assert err <= 1e-4
