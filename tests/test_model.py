import tracemalloc

import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg import losses as losses_mod
from protoseg import model as model_mod
from protoseg.autodiff import Tape, finite_diff_check
from protoseg.losses import LossConfig
from protoseg.model import (
    ForwardOutputs,
    ModelConfig,
    ModelParameters,
    PARAM_NAMES,
    bind_parameters,
    forward,
    init_parameters,
)


@pytest.fixture
def made_vars(monkeypatch):
    """Every Var constructed during the test, in order."""
    made = []
    var_init = ad.Var.__init__

    def tracking_init(var, value, tape, needs_grad):
        var_init(var, value, tape, needs_grad)
        made.append(var)

    monkeypatch.setattr(ad.Var, "__init__", tracking_init)
    return made


def tiny_config(**kw):
    defaults = dict(input_dim=5, n_activities=3, n_prototypes=3, embed_dim=4)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestEmbedFrames:
    def test_identity_passthrough(self):
        tape = Tape()
        x = tape.var(np.arange(6.0).reshape(2, 3))
        w = tape.var(np.eye(3))
        b = tape.var(np.zeros(3))
        out = model_mod.embed_frames(x, w, b)
        assert np.allclose(out.value, x.value)

    def test_zero_weights_constant_bias(self):
        tape = Tape()
        x = tape.var(np.random.default_rng(0).normal(size=(4, 3)))
        w = tape.var(np.zeros((3, 2)))
        b = tape.var(np.array([1.5, -2.0]))
        out = model_mod.embed_frames(x, w, b)
        assert np.allclose(out.value, np.tile([1.5, -2.0], (4, 1)))

    def test_matches_per_frame_reference(self):
        rng = np.random.default_rng(1)
        x_val = rng.normal(size=(5, 4))
        w_val = rng.normal(size=(4, 3))
        b_val = rng.normal(size=3)
        tape = Tape()
        out = model_mod.embed_frames(tape.var(x_val), tape.var(w_val), tape.var(b_val))
        for t in range(5):
            assert np.allclose(out.value[t], w_val.T @ x_val[t] + b_val, atol=1e-12)

    def test_dimension_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError):
            model_mod.embed_frames(
                tape.var(np.zeros((2, 3))), tape.var(np.zeros((4, 2))), tape.var(np.zeros(2))
            )


class TestComputeAffinity:
    def test_frame_on_prototype_wins_row(self):
        tape = Tape()
        p_val = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, -5.0]])
        f = tape.var(p_val[1:2])
        a = model_mod.compute_affinity(f, tape.var(p_val))
        assert np.argmax(a.value[0]) == 1

    def test_hand_distances(self):
        # distances [2, 4, 6] -> inverted [1, .5, 0] -> normalized [2/3, 1/3, 0]
        tape = Tape()
        f = tape.var(np.array([[0.0]]))
        p = tape.var(np.array([[2.0], [4.0], [6.0]]))
        a = model_mod.compute_affinity(f, p)
        assert np.allclose(a.value, [[2 / 3, 1 / 3, 0.0]], atol=1e-9)

    def test_affinity_order_reverses_distance_order(self):
        rng = np.random.default_rng(2)
        tape = Tape()
        f = tape.var(rng.normal(size=(8, 4)))
        p = tape.var(rng.normal(size=(5, 4)))
        d = ad.pairwise_distance(f, p).value
        a = model_mod.compute_affinity(f, p).value
        for t in range(8):
            assert np.array_equal(np.argsort(d[t]), np.argsort(-a[t], kind="stable"))


class TestReconstructLatent:
    def _vars(self, tape, d=3, n=4):
        rng = np.random.default_rng(0)
        return (
            tape.var(rng.normal(size=(n, d))),
            tape.var(rng.normal(size=(d, d))),
            tape.var(rng.normal(size=d)),
            tape.var(rng.normal(size=(d, d))),
            tape.var(rng.normal(size=d)),
        )

    def test_one_hot_row_selects_prototype(self):
        tape = Tape()
        p, w1, b1, w2, b2 = self._vars(tape)
        zero = lambda v: tape.var(np.zeros_like(v.value))
        a = tape.var(np.array([[0.0, 0.0, 1.0, 0.0]]))
        out = model_mod.reconstruct_latent(a, p, zero(w1), zero(b1), zero(w2), zero(b2))
        assert np.allclose(out.value[0], p.value[2])

    def test_uniform_row_gives_mean(self):
        tape = Tape()
        p, w1, b1, w2, b2 = self._vars(tape)
        zero = lambda v: tape.var(np.zeros_like(v.value))
        a = tape.var(np.full((1, 4), 0.25))
        out = model_mod.reconstruct_latent(a, p, zero(w1), zero(b1), zero(w2), zero(b2))
        assert np.allclose(out.value[0], p.value.mean(axis=0))

    def test_zero_maps_residual_passthrough(self):
        tape = Tape()
        p, w1, b1, w2, b2 = self._vars(tape)
        zero = lambda v: tape.var(np.zeros_like(v.value))
        a = tape.var(np.array([[0.7, 0.1, 0.1, 0.1]]))
        out = model_mod.reconstruct_latent(a, p, zero(w1), zero(b1), zero(w2), zero(b2))
        assert np.allclose(out.value, (a.value @ p.value))


class TestRepresentations:
    def test_single_frame_proto_repr(self):
        tape = Tape()
        a = tape.var(np.array([[0.2, 0.8]]))
        assert np.allclose(model_mod.prototype_representation(a).value, [0.2, 0.8])

    def test_uniform_rows_hand_value(self):
        tape = Tape()
        a = tape.var(np.full((10, 5), 0.2))
        assert np.allclose(model_mod.prototype_representation(a).value, [2.0] * 5)

    def test_proto_repr_sums_to_t(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        raw = rng.uniform(0.01, 1.0, size=(13, 6))
        a = ad.row_normalize(tape.var(raw))
        vp = model_mod.prototype_representation(a)
        assert vp.value.sum() == pytest.approx(13.0, abs=1e-6)

    def test_visual_repr_constant_rows(self):
        tape = Tape()
        g = tape.var(np.tile([1.0, 2.0], (7, 1)))
        assert np.allclose(model_mod.visual_representation(g).value, [1.0, 2.0])

    def test_visual_repr_two_rows(self):
        tape = Tape()
        g = tape.var(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(model_mod.visual_representation(g).value, [0.5, 0.5])

    def test_visual_repr_matches_reference(self):
        rng = np.random.default_rng(4)
        g_val = rng.normal(size=(9, 5))
        tape = Tape()
        out = model_mod.visual_representation(tape.var(g_val)).value
        ref = sum(g_val[t] for t in range(9)) / 9.0
        assert np.allclose(out, ref, atol=1e-12)


class TestClassify:
    def test_zero_weights_uniform(self):
        tape = Tape()
        yp, yg = model_mod.classify(
            tape.var(np.ones(4)),
            tape.var(np.ones(3)),
            tape.var(np.zeros((4, 5))),
            tape.var(np.zeros(5)),
            tape.var(np.zeros((3, 5))),
            tape.var(np.zeros(5)),
        )
        assert np.allclose(yp.value, 0.2)
        assert np.allclose(yg.value, 0.2)

    def test_argmax_matches_logits(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        vp = tape.var(rng.normal(size=4))
        wp = tape.var(rng.normal(size=(4, 6)))
        bp = tape.var(rng.normal(size=6))
        logits = vp.value @ wp.value + bp.value
        yp, _ = model_mod.classify(vp, vp, wp, bp, wp, bp)
        assert np.argmax(yp.value) == np.argmax(logits)


class TestForward:
    def test_frames_on_prototypes_win(self):
        cfg = tiny_config(input_dim=4, embed_dim=4, n_prototypes=4)
        params = init_parameters(cfg, seed=0)
        params.embed_w = np.eye(4)
        params.embed_b = np.zeros(4)
        params.prototypes = np.eye(4) * 10.0
        feats = params.prototypes[[2, 0, 3]]
        tape = Tape()
        out = forward(feats, bind_parameters(params, tape), cfg)
        assert np.array_equal(np.argmax(out.affinity.value, axis=1), [2, 0, 3])

    def test_deterministic(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=1)
        feats = np.random.default_rng(6).normal(size=(7, 5))
        a1, yp1, yg1 = model_mod.infer(feats, params, cfg)
        a2, yp2, yg2 = model_mod.infer(feats, params, cfg)
        assert np.array_equal(a1, a2) and np.array_equal(yp1, yp2) and np.array_equal(yg1, yg2)

    def test_output_invariants_on_random_videos(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=2)
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = int(rng.integers(1, 12))
            a, yp, yg = model_mod.infer(rng.normal(size=(t, 5)), params, cfg)
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(a >= 0.0)
            assert yp.sum() == pytest.approx(1.0, abs=1e-9) and np.all(yp > 0.0)
            assert yg.sum() == pytest.approx(1.0, abs=1e-9) and np.all(yg > 0.0)

    def test_prototype_permutation_equivariance(self):
        cfg = tiny_config(n_prototypes=4)
        params = init_parameters(cfg, seed=3)
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(6, 5))
        perm = np.array([2, 0, 3, 1])
        permuted = params.copy()
        permuted.prototypes = params.prototypes[perm]
        permuted.head_p_w = params.head_p_w[perm]
        a1, yp1, yg1 = model_mod.infer(feats, params, cfg)
        a2, yp2, yg2 = model_mod.infer(feats, permuted, cfg)
        assert np.allclose(a2, a1[:, perm], atol=1e-12)
        assert np.allclose(yp2, yp1, atol=1e-12)
        assert np.allclose(yg2, yg1, atol=1e-12)

    def test_empty_video_rejected(self):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=0)
        with pytest.raises(ValueError):
            model_mod.infer(np.zeros((0, 5)), params, cfg)


class TestInfer:
    def test_records_nothing_and_allocates_no_grads(self, made_vars):
        cfg = tiny_config()
        params = init_parameters(cfg, seed=4)
        model_mod.infer(np.random.default_rng(9).normal(size=(7, 5)), params, cfg)
        assert len(made_vars) > len(PARAM_NAMES)
        assert all(v.grad is None for v in made_vars)
        tape = made_vars[0].tape
        assert all(v.tape is tape for v in made_vars) and tape._records == []

    @pytest.mark.parametrize("input_dim, t_frames", [(5, 9), (96, 40)])
    def test_bit_identical_to_recording_forward(self, input_dim, t_frames):
        cfg = tiny_config(input_dim=input_dim, embed_dim=None, n_prototypes=6)
        params = init_parameters(cfg, seed=5)
        feats = np.random.default_rng(10).normal(size=(t_frames, input_dim))
        tape = Tape()
        out = forward(feats, bind_parameters(params, tape), cfg)
        a, yp, yg = model_mod.infer(feats, params, cfg)
        assert np.array_equal(a, out.affinity.value)
        assert np.array_equal(yp, out.proto_probs.value)
        assert np.array_equal(yg, out.visual_probs.value)

    def test_paper_shape_memory_is_linear(self):
        # T x N x D float64 would be 2000 * 50 * 1024 * 8 bytes = 819 MB; the
        # affinity chain needs a few T x D arrays (16 MB each) at a time.
        cfg = ModelConfig(input_dim=2048, n_activities=4, n_prototypes=50)
        params = init_parameters(cfg, seed=0)
        feats = np.random.default_rng(0).normal(size=(2000, 2048))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model_mod.infer(feats, params, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 100e6


def full_loss_gradient_error(seed: int, t_frames=6) -> float:
    """Finite differences of the complete training loss over every parameter."""
    cfg = tiny_config()
    loss_cfg = LossConfig()
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t_frames, cfg.input_dim))
    label = int(rng.integers(1, cfg.n_activities + 1))
    params = init_parameters(cfg, seed=seed)
    names = list(PARAM_NAMES)

    def fn(tape, *arrs):
        bound = {name: var for name, var in zip(names, arrs)}
        out = forward(feats, bound, cfg)
        target = losses_mod.one_hot(label, cfg.n_activities)
        lp = losses_mod.activity_loss(out.proto_probs, target)
        lg = losses_mod.activity_loss(out.visual_probs, target)
        ls = losses_mod.tmse_loss(out.affinity, loss_cfg.truncation)
        return losses_mod.total_loss(lp, lg, ls, loss_cfg)

    return finite_diff_check(fn, [getattr(params, n) for n in names])


def test_full_loss_gradient_toy_instance():
    assert full_loss_gradient_error(seed=0) <= 1e-4


@pytest.mark.filterwarnings("ignore:smoothing loss undefined")
def test_full_loss_gradient_single_frame_video():
    # the smoothing term is then a constant that needs no gradient
    assert full_loss_gradient_error(seed=0, t_frames=1) <= 1e-4


def test_training_tape_prunes_features_and_constants(made_vars):
    cfg = tiny_config()
    params = init_parameters(cfg, seed=4)
    feats = np.random.default_rng(9).normal(size=(7, 5))
    tape = Tape()
    bound = bind_parameters(params, tape)
    out = forward(feats, bound, cfg)
    target = losses_mod.one_hot(2, cfg.n_activities)
    loss = losses_mod.total_loss(
        losses_mod.activity_loss(out.proto_probs, target),
        losses_mod.activity_loss(out.visual_probs, target),
        losses_mod.tmse_loss(out.affinity, 4.0),
        LossConfig(),
    )
    tape.backward(loss)
    (x,) = [v for v in made_vars if v.value is feats]
    constants = [v for v in made_vars if not v.needs_grad]
    assert x in constants and len(constants) > 1
    assert all(v.grad is None for v in constants)
    for name in PARAM_NAMES:
        assert bound[name].grad.shape == getattr(params, name).shape
    assert tape._records == []
