import tracemalloc

import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg import losses as losses_mod
from protoseg import model as model_mod
from protoseg.autodiff import Tape
from protoseg.inference import naive_labels
from protoseg.losses import LossConfig
from protoseg.model import (
    ForwardOutputs,
    ModelConfig,
    forward,
    init_parameters,
    parameter_layout,
    validate_parameters,
)

from conftest import PAPER_SHAPE_DIM, PAPER_SHAPE_FRAMES, finite_diff_check


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


def test_init_draws_each_layout_entry_in_param_names_order():
    cfg = tiny_config()
    layout = parameter_layout(cfg)
    params = init_parameters(cfg, seed=7)
    assert list(params) == list(layout)
    rng = np.random.default_rng(7)
    for name, (shape, fan_in) in layout.items():
        bound = 1.0 / np.sqrt(fan_in)
        assert np.array_equal(params[name], rng.uniform(-bound, bound, size=shape))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: p.pop("latent_b2"), r"missing keys \['latent_b2'\], unknown keys \[\]"),
        (lambda p: p.update(head_x=np.zeros(3)), r"missing keys \[\], unknown keys \['head_x'\]"),
        (lambda p: p.update(embed_b=np.zeros(5)), r"embed_b has shape \(5,\), expected \(4,\)"),
        (lambda p: p["head_g_b"].__setitem__(1, np.nan), "head_g_b contains non-finite values"),
    ],
    ids=["missing", "unknown", "shape", "non-finite"],
)
def test_validate_parameters_names_the_offending_tensor(edit, message):
    cfg = tiny_config()
    params = init_parameters(cfg, seed=0)
    validate_parameters(params, cfg)
    edit(params)
    with pytest.raises(ValueError, match=f"{message}$"):
        validate_parameters(params, cfg)


class TestEmbedFrames:
    def test_identity_passthrough(self):
        tape = Tape()
        x = tape.var(np.arange(6.0).reshape(2, 3))
        w = tape.var(np.eye(3))
        b = tape.var(np.zeros(3))
        out = ad.linear(x, w, b)
        assert np.allclose(out.value, x.value)

    def test_zero_weights_constant_bias(self):
        tape = Tape()
        x = tape.var(np.random.default_rng(0).normal(size=(4, 3)))
        w = tape.var(np.zeros((3, 2)))
        b = tape.var(np.array([1.5, -2.0]))
        out = ad.linear(x, w, b)
        assert np.allclose(out.value, np.tile([1.5, -2.0], (4, 1)))

    def test_matches_per_frame_reference(self):
        rng = np.random.default_rng(1)
        x_val = rng.normal(size=(5, 4))
        w_val = rng.normal(size=(4, 3))
        b_val = rng.normal(size=3)
        tape = Tape()
        out = ad.linear(tape.var(x_val), tape.var(w_val), tape.var(b_val))
        for t in range(5):
            assert np.allclose(out.value[t], w_val.T @ x_val[t] + b_val, atol=1e-12)

    def test_dimension_mismatch(self):
        tape = Tape()
        with pytest.raises(ValueError, match="linear needs matching matrices"):
            ad.linear(
                tape.var(np.zeros((2, 3))), tape.var(np.zeros((4, 2))), tape.var(np.zeros(2))
            )


class TestComputeAffinity:
    def test_frame_on_prototype_wins_row(self):
        tape = Tape()
        p_val = np.array([[5.0, 0.0], [0.0, 5.0], [-5.0, -5.0]])
        f = tape.var(p_val[1:2])
        a = ad.affinity(f, tape.var(p_val))
        assert np.argmax(a.value[0]) == 1

    def test_hand_distances(self):
        # distances [2, 4, 6] -> inverted [1, .5, 0] -> normalized [2/3, 1/3, 0]
        tape = Tape()
        f = tape.var(np.array([[0.0]]))
        p = tape.var(np.array([[2.0], [4.0], [6.0]]))
        a = ad.affinity(f, p)
        assert np.allclose(a.value, [[2 / 3, 1 / 3, 0.0]], atol=1e-9)

    def test_affinity_order_reverses_distance_order(self):
        rng = np.random.default_rng(2)
        tape = Tape()
        f = tape.var(rng.normal(size=(8, 4)))
        p = tape.var(rng.normal(size=(5, 4)))
        d = ad.pairwise_distance(f, p).value
        a = ad.affinity(f, p).value
        for t in range(8):
            assert np.array_equal(np.argsort(d[t]), np.argsort(-a[t], kind="stable"))


def latent_reference(a, p, w1, b1, w2, b2):
    """mean_t(A·P + relu(A·P·W1 + b1)·W2 + b2), with the frames built explicitly."""
    g0 = a @ p
    return (g0 + np.maximum(g0 @ w1 + b1, 0.0) @ w2 + b2).mean(axis=0)


class TestMeanLatent:
    def _maps(self, rng, d, n):
        return (
            rng.normal(size=(n, d)),
            rng.normal(size=(d, d)),
            rng.normal(size=d),
            rng.normal(size=(d, d)),
            rng.normal(size=d),
        )

    def _mean_latent(self, a_val, p, w1, b1, w2, b2):
        tape = Tape()
        a = tape.var(a_val)
        vp = ad.axis0_sum(a)
        maps = [tape.var(v) for v in (p, w1, b1, w2, b2)]
        return ad.mean_latent(a, vp, *maps).value

    def _zero_maps(self, d=3, n=4):
        p = np.random.default_rng(0).normal(size=(n, d))
        return p, np.zeros((d, d)), np.zeros(d), np.zeros((d, d)), np.zeros(d)

    def test_one_hot_row_selects_prototype(self):
        maps = self._zero_maps()
        out = self._mean_latent(np.array([[0.0, 0.0, 1.0, 0.0]]), *maps)
        assert np.allclose(out, maps[0][2])

    def test_uniform_row_gives_prototype_mean(self):
        maps = self._zero_maps()
        out = self._mean_latent(np.full((1, 4), 0.25), *maps)
        assert np.allclose(out, maps[0].mean(axis=0))

    def test_zero_maps_pass_affinity_sums_through(self):
        maps = self._zero_maps()
        a = np.random.default_rng(1).dirichlet(np.ones(4), size=5)
        out = self._mean_latent(a, *maps)
        assert np.allclose(out, (a @ maps[0]).mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("t, d, n", [(9, 5, 3), (7, 4, 11)])
    def test_matches_explicit_frames(self, t, d, n):
        rng = np.random.default_rng(t)
        a = rng.dirichlet(np.ones(n), size=t)
        maps = self._maps(rng, d, n)
        ref = latent_reference(a, *maps)
        out = self._mean_latent(a, *maps)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRepresentations:
    def test_single_frame_proto_repr(self):
        tape = Tape()
        a = tape.var(np.array([[0.2, 0.8]]))
        assert np.allclose(ad.axis0_sum(a).value, [0.2, 0.8])

    def test_uniform_rows_hand_value(self):
        tape = Tape()
        a = tape.var(np.full((10, 5), 0.2))
        assert np.allclose(ad.axis0_sum(a).value, [2.0] * 5)

    def test_proto_repr_sums_to_t(self):
        rng = np.random.default_rng(3)
        tape = Tape()
        raw = rng.uniform(0.01, 1.0, size=(13, 6))
        a = ad.row_normalize(tape.var(raw))
        vp = ad.axis0_sum(a)
        assert vp.value.sum() == pytest.approx(13.0, abs=1e-6)


class TestClassify:
    """Each activity head is one softmax_affine record."""

    def test_zero_weights_uniform(self):
        tape = Tape()
        for v, w in ((np.ones(4), np.zeros((4, 5))), (np.ones(3), np.zeros((3, 5)))):
            y = ad.softmax_affine(tape.var(v), tape.var(w), tape.var(np.zeros(5)))
            assert np.allclose(y.value, 0.2)

    def test_argmax_matches_logits(self):
        rng = np.random.default_rng(5)
        tape = Tape()
        vp = tape.var(rng.normal(size=4))
        wp = tape.var(rng.normal(size=(4, 6)))
        bp = tape.var(rng.normal(size=6))
        logits = vp.value @ wp.value + bp.value
        yp = ad.softmax_affine(vp, wp, bp)
        assert np.argmax(yp.value) == np.argmax(logits)


class TestForward:
    def test_frames_on_prototypes_win(self):
        cfg = tiny_config(input_dim=4, embed_dim=4, n_prototypes=4)
        params = init_parameters(cfg, seed=0)
        params["embed_w"] = np.eye(4)
        params["embed_b"] = np.zeros(4)
        params["prototypes"] = np.eye(4) * 10.0
        feats = params["prototypes"][[2, 0, 3]]
        tape = Tape()
        out = forward(feats, {name: tape.var(arr) for name, arr in params.items()}, cfg)
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
        permuted = dict(params)
        permuted["prototypes"] = params["prototypes"][perm]
        permuted["head_p_w"] = params["head_p_w"][perm]
        a1, yp1, yg1 = model_mod.infer(feats, params, cfg)
        a2, yp2, yg2 = model_mod.infer(feats, permuted, cfg)
        assert np.allclose(a2, a1[:, perm], atol=1e-12)
        assert np.allclose(yp2, yp1, atol=1e-12)
        assert np.allclose(yg2, yg1, atol=1e-12)

    def test_no_frame_rows_meet_a_latent_weight(self):
        # T, N and d all distinct, so a T-row operand times a d x d
        # weight can only be the reconstructed frames being built
        t, n, d = 11, 6, 4
        cfg = tiny_config(embed_dim=d, n_prototypes=n)
        params = init_parameters(cfg, seed=6)
        shapes = []

        class Spy(np.ndarray):
            """Records the operand shapes of every matrix product it takes part in."""

            def __matmul__(self, other):
                shapes.append((self.shape, np.shape(other)))
                return np.asarray(self) @ np.asarray(other)

            def __rmatmul__(self, other):
                shapes.append((np.shape(other), self.shape))
                return np.asarray(other) @ np.asarray(self)

        tape = Tape()
        bound = {name: tape.var(arr) for name, arr in params.items()}
        feats = np.random.default_rng(11).normal(size=(t, 5))
        f = ad.linear(tape.const(feats), bound["embed_w"], bound["embed_b"])
        a = ad.affinity(f, bound["prototypes"])
        vp = ad.axis0_sum(a)
        operands = [a, vp] + [bound[k] for k in ("prototypes", "latent_w1", "latent_b1",
                                                 "latent_w2", "latent_b2")]
        for v in operands:
            v.value = v.value.view(Spy)
        vg = ad.mean_latent(*operands)
        tape.backward(ad.vsum(vg))  # the backward's products too
        assert ((t, n), (n, d)) in shapes and ((n, t), (t, d)) in shapes
        assert not [s for s in shapes if t in (s[0][0], s[1][-1]) and (d, d) in s]

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
        assert len(made_vars) > len(params)
        assert all(v.grad is None and not v.needs_grad for v in made_vars)
        tape = made_vars[0].tape
        assert all(v.tape is tape for v in made_vars) and tape._records == []

    @pytest.mark.parametrize("input_dim, t_frames", [(5, 9), (96, 40)])
    def test_bit_identical_to_recording_forward(self, input_dim, t_frames):
        cfg = tiny_config(input_dim=input_dim, embed_dim=None, n_prototypes=6)
        params = init_parameters(cfg, seed=5)
        feats = np.random.default_rng(10).normal(size=(t_frames, input_dim))
        tape = Tape()
        out = forward(feats, {name: tape.var(arr) for name, arr in params.items()}, cfg)
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


    def test_one_call_holds_few_frame_by_embedding_arrays(self):
        # paper shape: the input (T x 2048) is the caller's; the call itself
        # may hold at most 2.5 T x D float64 arrays at once, with float64
        # weight and frames as with the float32 ones the stages pass
        t, cfg = 600, ModelConfig(input_dim=2048, n_activities=4, n_prototypes=50)
        params = init_parameters(cfg, seed=0)
        feats = np.random.default_rng(1).normal(size=(t, cfg.input_dim))
        assert cfg.resolved_embed_dim == 1024
        for dtype in (np.float64, np.float32):
            weights = {**params, "embed_w": params["embed_w"].astype(dtype)}
            frames = feats.astype(dtype)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                model_mod.infer(frames, weights, cfg)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * t * 1024 * 8, dtype

    @pytest.mark.parametrize("input_dim, t_frames", [(5, 9), (96, 40)])
    def test_float32_weight_embeds_in_float32(self, input_dim, t_frames):
        cfg = tiny_config(input_dim=input_dim, embed_dim=None, n_prototypes=6)
        params = init_parameters(cfg, seed=5)
        w32 = params["embed_w"].astype(np.float32)
        x32 = np.random.default_rng(10).normal(size=(t_frames, input_dim)).astype(np.float32)
        tape = Tape()
        f = tape.var((x32 @ w32).astype(np.float64) + params["embed_b"])
        bound = {name: tape.var(arr) for name, arr in params.items()}
        out = model_mod._from_embedding(f, bound, cfg)
        assert tape._records  # the oracle records, as training does
        a, yp, yg = model_mod.infer(x32, {**params, "embed_w": w32}, cfg)
        assert np.array_equal(a, out.affinity.value)
        assert np.array_equal(yp, out.proto_probs.value)
        assert np.array_equal(yg, out.visual_probs.value)
        assert params["embed_w"].dtype == np.float64  # the caller's dict is untouched

    # the CLI's default dimensions, and paper shape
    @pytest.mark.parametrize("input_dim, n_prototypes, t_frames", [(32, 50, 150), (2048, 50, 300)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_affinity_alone_is_infer_affinity_bitwise(
        self, input_dim, n_prototypes, t_frames, dtype
    ):
        cfg = ModelConfig(input_dim=input_dim, n_activities=4, n_prototypes=n_prototypes)
        params = init_parameters(cfg, seed=2)
        params["embed_w"] = params["embed_w"].astype(dtype)
        feats = np.random.default_rng(3).normal(size=(t_frames, input_dim)).astype(dtype)
        a = model_mod.infer_affinity(
            feats, {name: params[name] for name in model_mod.AFFINITY_PARAMETERS}
        )
        assert a.dtype == np.float64 and a.shape == (t_frames, n_prototypes)
        assert a.tobytes() == model_mod.infer(feats, params, cfg)[0].tobytes()

    def test_float32_weight_keeps_paper_shape_labels(self):
        t, cfg = 600, ModelConfig(input_dim=2048, n_activities=4, n_prototypes=50)
        params = init_parameters(cfg, seed=0)
        feats = np.random.default_rng(1).normal(size=(t, cfg.input_dim)).astype(np.float32)
        a64, yp64, yg64 = model_mod.infer(feats, params, cfg)
        a32, yp32, yg32 = model_mod.infer(
            feats, {**params, "embed_w": params["embed_w"].astype(np.float32)}, cfg
        )
        assert a32.dtype == yp32.dtype == yg32.dtype == np.float64
        assert np.array_equal(naive_labels(a32), naive_labels(a64))
        assert np.abs(a32 - a64).max() <= 1e-6


class TestRowBlocks:
    """Inference embeds a video, and compares it to the prototypes, one row block at a time."""

    @pytest.mark.parametrize("n_frames", [1, 511, 512, 513, 1024, 1025, PAPER_SHAPE_FRAMES, 5000])
    def test_near_equal_blocks_within_the_budget(self, n_frames):
        blocks = list(model_mod._row_blocks(n_frames, 1024))  # 512 frames fill the budget
        sizes = [stop - start for start, stop in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == n_frames
        assert all(prev[1] == block[0] for prev, block in zip(blocks, blocks[1:]))
        assert len(blocks) == -(-n_frames // 512)
        assert max(sizes) <= 512 and max(sizes) - min(sizes) <= 1
        assert len(blocks) == 1 or min(sizes) >= 256

    def test_the_default_width_splits_no_video_of_26k_frames(self):
        assert len(list(model_mod._row_blocks(26_214, 20))) == 1
        assert len(list(model_mod._row_blocks(26_215, 20))) == 2

    def test_paper_shape_blocks_keep_the_bits(self, paper_shape_video, monkeypatch):
        video = paper_shape_video
        cfg = ModelConfig(input_dim=PAPER_SHAPE_DIM, n_activities=1, n_prototypes=50)
        params = init_parameters(cfg, seed=3)
        params["embed_w"] = params["embed_w"].astype(np.float32)
        assert len(list(model_mod._row_blocks(video.n_frames, 1024))) == 3

        def outputs(features):
            affinity = model_mod.infer_affinity(features, params)
            return affinity, *model_mod.infer(features, params, cfg)

        blocked = outputs(video)
        monkeypatch.setattr(model_mod, "EMBEDDING_BLOCK_BYTES", 1 << 40)  # one block per video
        for whole in (outputs(video), outputs(video.features)):
            assert [x.tobytes() for x in blocked] == [x.tobytes() for x in whole]

    def test_video_from_file_holds_under_one_frame_by_embedding_array(self, paper_shape_video):
        # the whole-video path held the 2048-d frames and about 2 T x D
        # float64 arrays besides; blocks hold one block of each, and the T x N result
        video = paper_shape_video
        assert video.n_frames == PAPER_SHAPE_FRAMES
        cfg = ModelConfig(input_dim=PAPER_SHAPE_DIM, n_activities=1, n_prototypes=50)
        params = init_parameters(cfg, seed=3)
        params = {name: params[name] for name in model_mod.AFFINITY_PARAMETERS}
        params["embed_w"] = params["embed_w"].astype(np.float32)
        model_mod.infer_affinity(video, params)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model_mod.infer_affinity(video, params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < video.n_frames * 1024 * 8


def full_loss_gradient_error(seed: int, t_frames=6) -> float:
    """Finite differences of the complete training loss over every parameter."""
    cfg = tiny_config()
    loss_cfg = LossConfig()
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t_frames, cfg.input_dim))
    label = int(rng.integers(1, cfg.n_activities + 1))
    params = init_parameters(cfg, seed=seed)
    names = list(params)

    def fn(tape, *arrs):
        bound = {name: var for name, var in zip(names, arrs)}
        out = forward(feats, bound, cfg)
        target = losses_mod.one_hot(label, cfg.n_activities)
        lp = losses_mod.activity_loss(out.proto_probs, target)
        lg = losses_mod.activity_loss(out.visual_probs, target)
        ls = losses_mod.tmse_loss(out.affinity, loss_cfg.truncation)
        return losses_mod.total_loss(lp, lg, ls, loss_cfg)

    return finite_diff_check(fn, [params[n] for n in names])


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
    bound = {name: tape.var(arr) for name, arr in params.items()}
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
    # the one-hot targets stay plain arrays inside the fused activity loss
    assert constants == [x] and x.grad is None
    assert len(made_vars) == len(params) + 1 + 14  # leaves, then one Var per record
    for name, arr in params.items():
        assert bound[name].grad.shape == arr.shape
    assert tape._records == []
