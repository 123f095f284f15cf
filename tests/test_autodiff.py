import numpy as np
import pytest

from protoseg import autodiff as ad
from protoseg.autodiff import Tape, finite_diff_check

from conftest import GRADCHECK_CASES, run_gradcheck_case


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
        out = ad.vsum(ad.relu(ad.matmul(c, ad._coerce(np.ones((3, 2)), tape)) + 1.0))
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
