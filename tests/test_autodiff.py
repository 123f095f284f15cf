import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg.autodiff import Tape
from protoseg.losses import LOG_EPS, PROB_EPS, one_hot

from conftest import (
    GRADCHECK_CASES,
    finite_diff_check,
    run_gradcheck_case,
    unfused_activity_loss,
    unfused_affinity,
    unfused_linear,
    unfused_mean_latent,
    unfused_softmax_affine,
    unfused_tmse,
)


def _wrap(*arrays):
    tape = Tape()
    return tape, [tape.var(a) for a in arrays]


class TestPairwiseDistance:
    def test_identical_vectors_near_zero(self):
        tape, (f, p) = _wrap(np.zeros((1, 2)), np.zeros((1, 2)))
        d = ad.pairwise_distance(f, p)
        assert d.value[0, 0] <= 1e-6

    def test_three_four_five(self):
        tape, (f, p) = _wrap(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        d = ad.pairwise_distance(f, p)
        assert d.value[0, 0] == pytest.approx(5.0, abs=1e-9)

    def test_matches_double_loop_reference(self):
        rng = np.random.default_rng(7)
        f_val = rng.normal(size=(6, 4))
        p_val = rng.normal(size=(5, 4))
        tape, (f, p) = _wrap(f_val, p_val)
        d = ad.pairwise_distance(f, p).value
        for t in range(6):
            for n in range(5):
                acc = 1e-12
                for k in range(4):
                    acc += (f_val[t, k] - p_val[n, k]) ** 2
                assert abs(d[t, n] - np.sqrt(acc)) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 5))
        y = rng.normal(size=(4, 5))
        _, (a, b) = _wrap(x, y)
        _, (c, d) = _wrap(y, x)
        assert np.allclose(
            ad.pairwise_distance(a, b).value, ad.pairwise_distance(c, d).value.T
        )

    def test_dimension_mismatch_rejected(self):
        tape, (f, p) = _wrap(np.zeros((2, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="mismatch"):
            ad.pairwise_distance(f, p)

    @pytest.mark.parametrize("dim", [20, 1024])
    @pytest.mark.parametrize("norm", [1.0, 1000.0])
    def test_gram_form_near_coincident_points(self, dim, norm):
        # Frames at and just off each prototype, against the broadcast form.
        # Each length-D dot product errs by at most gamma_D * |x| |y|, and the
        # two additions by 2u more, so ||f||^2 - 2 f.p + ||p||^2 errs by at
        # most gamma_(D+2) * (||f|| + ||p||)^2 <= (D + 2) eps_mach
        # (||f||^2 + ||p||^2) (u = eps_mach / 2).  Clamping at 0 cannot add
        # to that, and |sqrt(a + e) - sqrt(b + e)| <= sqrt(|a - b|).  The
        # second term covers the broadcast form's own relative rounding.
        rng = np.random.default_rng(dim)
        protos = rng.normal(size=(6, dim))
        protos *= norm / np.linalg.norm(protos, axis=1, keepdims=True)
        steps = np.concatenate([[0.0], norm * np.logspace(-12, -2, 11)])
        dirs = rng.normal(size=(6, steps.size, dim))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        frames = (protos[:, None, :] + steps[None, :, None] * dirs).reshape(-1, dim)
        _, (f, p) = _wrap(frames, protos)
        gram = ad.pairwise_distance(f, p).value
        diff = frames[:, None, :] - protos[None, :, :]
        direct = np.sqrt(np.einsum("tnk,tnk->tn", diff, diff) + ad.DISTANCE_EPS)
        eps = np.finfo(np.float64).eps
        sq_norms = (frames**2).sum(axis=1)[:, None] + (protos**2).sum(axis=1)[None, :]
        bound = np.sqrt((dim + 2) * eps * sq_norms) + (dim + 4) * eps * direct
        assert np.all(np.abs(gram - direct) <= bound)
        assert np.array_equal(gram.argmin(axis=1), np.repeat(np.arange(6), steps.size))


class TestMinmaxInvertRows:
    def test_hand_row(self):
        tape, (d,) = _wrap(np.array([[2.0, 4.0, 6.0]]))
        out = ad.minmax_invert_rows(d)
        assert np.allclose(out.value, [[1.0, 0.5, 0.0]])

    def test_constant_row_uniform_after_normalize(self):
        tape, (d,) = _wrap(np.array([[3.0, 3.0, 3.0]]))
        out = ad.row_normalize(ad.minmax_invert_rows(d))
        assert np.allclose(out.value, [[1 / 3, 1 / 3, 1 / 3]])

    def test_two_point_row(self):
        tape, (d,) = _wrap(np.array([[0.0, 1.0]]))
        out = ad.minmax_invert_rows(d)
        assert np.allclose(out.value, [[1.0, 0.0]])

    def test_rows_contain_one_and_zero(self):
        rng = np.random.default_rng(11)
        tape, (d,) = _wrap(rng.uniform(size=(20, 6)))
        out = ad.minmax_invert_rows(d).value
        assert np.allclose(out.max(axis=1), 1.0)
        assert np.allclose(out.min(axis=1), 0.0)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_tie_gradient_goes_to_lowest_index(self):
        # row [1, 1, 2]: min ties at 0 and 1; only index 0 carries the
        # selector gradient, so d(sum)/dD = [1, -1, 0]
        tape, (d,) = _wrap(np.array([[1.0, 1.0, 2.0]]))
        out = ad.minmax_invert_rows(d)
        tape.backward(ad.vsum(out))
        assert np.allclose(d.grad, [[1.0, -1.0, 0.0]])


class TestRowNormalize:
    def test_hand_row(self):
        tape, (a,) = _wrap(np.array([[1.0, 0.5, 0.0]]))
        out = ad.row_normalize(a)
        assert np.allclose(out.value, [[2 / 3, 1 / 3, 0.0]])

    def test_uniform_row(self):
        tape, (a,) = _wrap(np.ones((1, 4)))
        out = ad.row_normalize(a)
        assert np.allclose(out.value, [[0.25] * 4])

    def test_one_hot_stays_one_hot(self):
        tape, (a,) = _wrap(np.array([[0.0, 1.0, 0.0]]))
        out = ad.row_normalize(a)
        assert np.allclose(out.value, [[0.0, 1.0, 0.0]])

    def test_zero_sum_row_rejected(self):
        tape, (a,) = _wrap(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="zero-sum"):
            ad.row_normalize(a)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        tape, (a,) = _wrap(rng.uniform(0.01, 1.0, size=(50, 7)))
        out = ad.row_normalize(a).value
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


def _value_and_grads(fn, arrays, needs, readout):
    """`fn`'s value and the gradient of `readout(fn(...))` at each input that needs one."""
    tape = Tape()
    args = [tape.var(x) if need else tape.const(x) for x, need in zip(arrays, needs)]
    out = fn(*args)
    tape.backward(readout(out))
    grads = [a.grad for a, need in zip(args, needs) if need]
    assert all(g is not None for g in grads)
    return [out.value, *grads]


def _outcome(fn, *arrays):
    """The forward value, or the type and message of what it raised."""
    tape = Tape()
    try:
        return fn(*[tape.var(x) for x in arrays]).value
    except (FloatingPointError, ValueError) as exc:
        return type(exc), str(exc)


def _affinity_inputs(rng, case):
    t, n, d = (int(rng.integers(1, k)) for k in (8, 6, 5))
    if case % 6 == 1:  # rows of 8 or more entries, whose numpy sums follow memory order
        n = int(rng.integers(8, 25))
    kind = case % 4
    if kind == 0:  # generic
        f, p = rng.normal(size=(t, d)), rng.normal(size=(n, d))
    elif kind == 1:  # small integers: distance ties, and a frame exactly on a prototype
        f = rng.integers(-2, 3, size=(t, d)).astype(np.float64)
        p = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
        f[rng.integers(t)] = p[rng.integers(n)]
    elif kind == 2:  # one point for every prototype: every row constant
        f, p = rng.normal(size=(t, d)), np.tile(rng.normal(size=d), (n, 1))
    else:  # prototypes v and -v: the frames at 0 are equidistant, so their rows are constant
        v = rng.normal(size=d)
        p = np.stack([v, -v])
        f = rng.normal(size=(t, d)) * (rng.uniform(size=(t, 1)) < 0.5)
    if case % 5 == 0:
        f = np.asfortranarray(f)
    return f, p


def _tmse_inputs(rng, case):
    t = 2 if case % 4 == 0 else int(rng.integers(2, 9))
    a = rng.uniform(0.0, 1.5, size=(t, int(rng.integers(1, 6)))) ** 4
    if case % 3 == 0:  # exact zeros, the floor itself and values under it
        picks = rng.integers(a.size, size=3)
        a.flat[picks] = (0.0, LOG_EPS, LOG_EPS / 3.0)
    jumps = np.abs(np.diff(np.log(np.maximum(a, LOG_EPS)), axis=0))
    positive = jumps[jumps > 0.0]
    if case % 2 == 0 and positive.size:  # tau equal to one of the jumps; larger ones exceed it
        tau = float(rng.choice(positive))
    else:
        tau = float(rng.uniform(0.1, 6.0))
    return a, tau


def _mean_latent_inputs(rng, case):
    t, n, d = (int(rng.integers(1, k)) for k in (12, 9, 6))
    if case % 3 == 0:  # one-hot rows and small integers: exact zeros before the relu
        a = np.eye(n)[rng.integers(n, size=t)]
        p, w1, b1 = (rng.integers(-1, 2, size=s).astype(np.float64) for s in ((n, d), (d, d), d))
    else:
        a = rng.dirichlet(np.ones(n), size=t)
        p, w1, b1 = (rng.normal(size=s) for s in ((n, d), (d, d), d))
    return a, a.sum(axis=0), p, w1, b1, rng.normal(size=(d, d)), rng.normal(size=d)


def _needs(rng, k):
    """Which of `k` operands need a gradient: at least one, often all."""
    needs = rng.uniform(size=k) < 0.7
    needs[rng.integers(k)] = True
    return tuple(needs)


class TestFusedPrimitives:
    """The fused records against their unfused chains, bit for bit."""

    NEEDS = ((True, True), (True, False), (False, True))

    def test_linear_matches_unfused_chain_bitwise(self):
        rng = np.random.default_rng(28)
        for case in range(300):
            t, k, d = (int(rng.integers(1, m)) for m in (12, 40, 9))
            x, w, b = rng.normal(size=(t, k)), rng.normal(size=(k, d)), rng.normal(size=d)
            if case % 4 == 0:
                x = np.asfortranarray(x)
            r = rng.normal(size=(t, d))
            needs = (True,) * 3 if case % 2 == 0 else _needs(rng, 3)
            fused, oracle = (
                _value_and_grads(fn, (x, w, b), needs, lambda out: ad.vsum(ad.mul(out, r)))
                for fn in (ad.linear, unfused_linear)
            )
            for got, want in zip(fused, oracle):
                assert np.array_equal(got, want), case

    def test_affinity_matches_unfused_chain_bitwise(self):
        rng = np.random.default_rng(21)
        seen = {"on_prototype": 0, "constant_row": 0, "tie": 0}
        for case in range(600):
            f, p = _affinity_inputs(rng, case)
            w = rng.normal(size=(f.shape[0], p.shape[0]))
            needs = self.NEEDS[case % 3]
            fused, oracle = (
                _value_and_grads(fn, (f, p), needs, lambda out: ad.vsum(ad.mul(out, w)))
                for fn in (ad.affinity, unfused_affinity)
            )
            for got, want in zip(fused, oracle):
                assert np.array_equal(got, want), case
            tape = Tape()
            d = ad.pairwise_distance(tape.const(f), tape.const(p)).value
            seen["on_prototype"] += bool(np.any(d == np.sqrt(ad.DISTANCE_EPS)))
            seen["constant_row"] += bool(np.any(d.min(axis=1) == d.max(axis=1)))
            seen["tie"] += bool(np.any((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1))
        assert all(count >= 50 for count in seen.values()), seen

    def test_tmse_matches_unfused_chain_bitwise(self):
        rng = np.random.default_rng(22)
        seen = {"zero": 0, "at_eps": 0, "at_tau": 0, "above_tau": 0, "t2": 0}
        for case in range(600):
            a, tau = _tmse_inputs(rng, case)
            c = float(rng.normal())
            fused, oracle = (
                _value_and_grads(fn, (a,), (True,), lambda out: ad.scale(out, c))
                for fn in (lambda v: ad.tmse(v, LOG_EPS, tau), lambda v: unfused_tmse(v, tau))
            )
            for got, want in zip(fused, oracle):
                assert np.array_equal(got, want), case
            jumps = np.abs(np.diff(np.log(np.maximum(a, LOG_EPS)), axis=0))
            seen["zero"] += bool(np.any(a == 0.0))
            seen["at_eps"] += bool(np.any(a == LOG_EPS))
            seen["at_tau"] += bool(np.any(jumps == tau))
            seen["above_tau"] += bool(np.any(jumps > tau))
            seen["t2"] += a.shape[0] == 2
        assert all(count >= 50 for count in seen.values()), seen

    def test_mean_latent_matches_unfused_chain_bitwise(self):
        rng = np.random.default_rng(25)
        for case in range(300):
            arrays = _mean_latent_inputs(rng, case)
            r = rng.normal(size=arrays[-1].shape)
            needs = (True,) * 7 if case % 2 == 0 else _needs(rng, 7)
            fused, oracle = (
                _value_and_grads(fn, arrays, needs, lambda out: ad.vsum(ad.mul(out, r)))
                for fn in (ad.mean_latent, unfused_mean_latent)
            )
            for got, want in zip(fused, oracle):
                assert np.array_equal(got, want), case

    def test_softmax_affine_matches_unfused_chain_bitwise(self):
        rng = np.random.default_rng(26)
        for case in range(300):
            k, c = int(rng.integers(1, 60)), int(rng.integers(2, 12))
            spread = 30.0 if case % 4 == 0 else 1.0  # saturated heads too
            arrays = (rng.normal(scale=spread, size=k), rng.normal(size=(k, c)), rng.normal(size=c))
            r = rng.normal(size=c)
            needs = (True,) * 3 if case % 2 == 0 else _needs(rng, 3)
            fused, oracle = (
                _value_and_grads(fn, arrays, needs, lambda out: ad.vsum(ad.mul(out, r)))
                for fn in (ad.softmax_affine, unfused_softmax_affine)
            )
            for got, want in zip(fused, oracle):
                assert np.array_equal(got, want), case

    def test_bce_matches_unfused_chain_bitwise(self):
        rng = np.random.default_rng(27)
        for case in range(300):
            n = int(rng.integers(2, 12))
            probs = np.exp(rng.normal(scale=3.0, size=n))
            probs /= probs.sum()
            if case % 3 == 0:  # at and beyond the clip bounds
                probs[rng.integers(n)] = (0.0, 1.0, PROB_EPS, 1e-9, 1.0 - 1e-9)[case // 3 % 5]
            target = one_hot(int(rng.integers(1, n + 1)), n)
            c = float(rng.normal())
            fused, oracle = (
                _value_and_grads(fn, (probs,), (True,), lambda out: ad.scale(out, c))
                for fn in (lambda p: ad.bce(p, target, PROB_EPS),
                           lambda p: unfused_activity_loss(p, target))
            )
            for got, want in zip(fused, oracle):
                assert np.array_equal(got, want), case

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_inputs_fail_like_the_chain(self, bad):
        rng = np.random.default_rng(23)
        f, p, a = rng.normal(size=(4, 3)), rng.normal(size=(3, 3)), rng.uniform(size=(5, 3))
        bad_f, bad_p, bad_a = f.copy(), p.copy(), a.copy()
        bad_f[2, 1] = bad_p[0, 0] = bad_a[3, 2] = bad
        tmse_pair = (lambda v: ad.tmse(v, LOG_EPS, 4.0), lambda v: unfused_tmse(v, 4.0))
        cases = [
            (ad.affinity, unfused_affinity, (bad_f, p), "pairwise_distance"),
            (ad.affinity, unfused_affinity, (f, bad_p), "pairwise_distance"),
            (*tmse_pair, (bad_a,), "clamp"),
        ]
        latent = list(_mean_latent_inputs(rng, 1))
        for i, stage in ((0, "matmul"), (1, "scale"), (3, "matmul"), (4, "add"), (6, "add")):
            bad_latent = [x.copy() for x in latent]
            bad_latent[i].flat[0] = bad
            cases.append((ad.mean_latent, unfused_mean_latent, bad_latent, stage))
        v, w, b = rng.normal(size=3), rng.normal(size=(3, 4)), rng.normal(size=4)
        bad_v, bad_b = v.copy(), b.copy()
        bad_v[1] = bad_b[2] = bad
        cases += [
            (ad.softmax_affine, unfused_softmax_affine, (bad_v, w, b), "matmul"),
            (ad.softmax_affine, unfused_softmax_affine, (v, w, bad_b), "add"),
        ]
        x, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        bad_x, bad_b = x.copy(), b.copy()
        bad_x[3, 0] = bad_b[1] = bad
        cases += [
            (ad.linear, unfused_linear, (bad_x, w, b), "matmul"),
            (ad.linear, unfused_linear, (x, w, bad_b), "add"),
        ]
        target = one_hot(2, 3)
        cases.append((lambda q: ad.bce(q, target, PROB_EPS),
                      lambda q: unfused_activity_loss(q, target), ([0.2, bad, 0.3],), "mul"))
        for fused, oracle, arrays, stage in cases:
            with np.errstate(invalid="ignore"):
                want, got = _outcome(oracle, *arrays), _outcome(fused, *arrays)
            if bad == -np.inf and stage == "clamp":
                # -inf is floored to LOG_EPS, as any value under it is
                assert np.array_equal(got, want)
            else:
                assert want == (FloatingPointError, f"non-finite values produced by {stage}")
                assert got == want

    def test_one_record_each(self):
        rng = np.random.default_rng(24)
        tape = Tape()
        f = ad.linear(tape.var(rng.normal(size=(5, 2))), tape.var(rng.normal(size=(2, 3))),
                      tape.var(rng.normal(size=3)))
        a = ad.affinity(f, tape.var(rng.normal(size=(4, 3))))
        ad.tmse(a, LOG_EPS, 4.0)
        vp = ad.axis0_sum(a)
        d = (tape.var(rng.normal(size=s)) for s in ((4, 3), (3, 3), 3, (3, 3), 3))
        vg = ad.mean_latent(a, vp, *d)
        ad.bce(ad.softmax_affine(vg, tape.var(rng.normal(size=(3, 2))), tape.var(np.zeros(2))),
               one_hot(1, 2), PROB_EPS)
        assert len(tape._records) == 7

    def test_tmse_rejects_nonpositive_eps_or_tau(self):
        tape = Tape()
        a = tape.var(np.ones((3, 2)))
        for eps, tau in ((0.0, 4.0), (LOG_EPS, 0.0), (LOG_EPS, np.nan)):
            with pytest.raises(ValueError, match="tmse needs"):
                ad.tmse(a, eps, tau)


class TestFiniteDiffCheck:
    def test_sum_of_squares(self):
        err = finite_diff_check(
            lambda t, x: ad.vsum(ad.mul(x, x)), [np.array([1.0, 2.0, 3.0])]
        )
        assert err <= 1e-6

    def test_constant_function_zero_error(self):
        err = finite_diff_check(
            lambda t, x: ad.vsum(ad.scale(x, 0.0)), [np.array([1.0, -2.0])]
        )
        assert err == 0.0

    def test_unused_input_has_zero_gradient(self):
        err = finite_diff_check(lambda t, x, y: ad.vsum(x), [np.ones(2), np.ones(3)])
        assert err <= 1e-9

    def test_nonfinite_forward_rejected(self):
        def bad(t, x):
            v = t.var(np.array(np.inf))
            return ad.mul(ad.vsum(x), v)

        with pytest.raises(FloatingPointError):
            finite_diff_check(bad, [np.ones(2)])


@pytest.mark.parametrize("name", [case[0] for case in GRADCHECK_CASES])
def test_primitive_gradients(name):
    # acceptance reruns this registry at 100 seeds; a few here for speed
    assert run_gradcheck_case(name, seeds=range(5)) <= 1e-4


class TestTapeMechanics:
    def test_non_recording_tape_keeps_nothing(self):
        # every leaf a constant, as in inference
        tape = Tape()
        x = tape.const(np.arange(6.0).reshape(2, 3))
        y = ad.vsum(ad.relu(ad.matmul(x, tape.const(np.ones((3, 2))))))
        assert y.value == pytest.approx(30.0)
        assert tape._records == [] and x.grad is None and y.grad is None
        with pytest.raises(ValueError, match="needs a gradient"):
            tape.backward(y)

    def test_backward_requires_scalar(self):
        tape, (a,) = _wrap(np.ones((2, 2)))
        with pytest.raises(ValueError):
            tape.backward(a)

    def test_one_adjoint_per_leaf_shape(self):
        rng = np.random.default_rng(2)
        tape, (a, b) = _wrap(rng.normal(size=(3, 2)), rng.normal(size=(2, 4)))
        tape.backward(ad.vsum(ad.matmul(a, b)))
        assert a.grad.shape == a.value.shape
        assert b.grad.shape == b.value.shape

    def test_reused_operand_accumulates(self):
        tape, (a,) = _wrap(np.array([3.0, -2.0]))
        g = np.array([0.5, 4.0])
        out = ad.vsum(ad.mul(ad.mul(a, a), g))  # d/da g a^2 = 2 g a
        tape.backward(out)
        assert np.array_equal(a.grad, 2.0 * g * a.value)

    def test_constants_get_no_gradient(self):
        tape, (a,) = _wrap(np.array([1.0, 2.0]))
        c = ad._coerce(np.array([3.0, 5.0]), tape)
        leaf = tape.const(np.array([7.0, 1.0]))
        out = ad.vsum(ad.add(ad.mul(ad.add(a, leaf), c), -1.0))
        tape.backward(out)
        assert not c.needs_grad and not leaf.needs_grad and a.needs_grad
        assert c.grad is None and leaf.grad is None
        assert np.array_equal(a.grad, c.value)

    def test_op_on_constants_records_nothing(self):
        tape = Tape()
        c = tape.const(np.ones((2, 3)))
        out = ad.vsum(ad.relu(ad.add(ad.matmul(c, ad._coerce(np.ones((3, 2)), tape)), 1.0)))
        assert tape._records == [] and not out.needs_grad
        a = tape.var(np.ones(2))
        ad.mul(a, out)
        assert len(tape._records) == 1

    def test_gradient_keeps_leaf_memory_order(self):
        # the adjoint g @ b.T arrives C-ordered; the buffer must still take
        # the leaf's Fortran order, or reductions over it change their sums
        rng = np.random.default_rng(8)
        tape, (a, b) = _wrap(np.asfortranarray(rng.normal(size=(3, 4))), rng.normal(size=(4, 2)))
        tape.backward(ad.vsum(ad.matmul(a, b)))
        assert a.grad.flags.f_contiguous and not a.grad.flags.c_contiguous
        assert np.array_equal(a.grad, np.ones((3, 2)) @ b.value.T)

    def test_nonfinite_primitive_output_rejected(self):
        tape, (a,) = _wrap(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            ad.add(a, a)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=6)
        _, (a,) = _wrap(logits)
        _, (b,) = _wrap(logits + 123.0)
        assert np.allclose(ad.softmax(a).value, ad.softmax(b).value)

    def test_clamp_zero_gradient_at_and_beyond_bound(self):
        tape, (a,) = _wrap(np.array([0.5, 4.0, 6.0]))
        out = ad.vsum(ad.clamp(a, None, 4.0))
        tape.backward(out)
        assert np.allclose(a.grad, [1.0, 0.0, 0.0])
