import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcfuse import tensor as T
from ctcfuse.model import MASK_VALUE as MASK
from ctcfuse.tensor import Tensor

from oracles import (attention_reference, conv2d_gather, conv2d_reference, matmul_grads_reference,
                     softmax)


def matmul_oracle(a, b):
    """Naive triple-loop matrix product, independent of the engine."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def grad_of(t):
    return t.grad if t.grad is not None else np.zeros_like(t.data)


def zero_bias(n):
    return Tensor(np.zeros(n))


def overflowing_linear():
    """A linear op whose finite inputs give an infinite output."""
    return T.linear(Tensor(np.full((1, 2), 1e308)), Tensor(np.full((2, 1), 10.0)), zero_bias(1))


class TestMatmul:
    """The matrix product ``linear`` runs, ``x @ w + b``."""

    def test_identity(self):
        out = T.linear(Tensor(np.eye(2)), Tensor([[5.0], [6.0]]), zero_bias(1))
        np.testing.assert_array_equal(out.data, [[5.0], [6.0]])

    def test_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        out = T.linear(Tensor(a), Tensor(b), Tensor([0.5]))
        np.testing.assert_array_equal(out.data, [[17.5], [39.5]])
        np.testing.assert_allclose(out.data, matmul_oracle(a, b) + 0.5, rtol=1e-15)

    def test_zero_matrix(self):
        out = T.linear(Tensor(np.zeros((3, 2))), Tensor(np.ones((2, 4))), zero_bias(4))
        np.testing.assert_array_equal(out.data, np.zeros((3, 4)))

    def test_shape_mismatch(self):
        # inner dimensions, bias width, a 1-D left operand, a 3-D weight
        for x, w, b in [((2, 3), (2, 3), (3,)), ((2, 3), (3, 2), (3,)),
                        ((3,), (3, 2), (2,)), ((2, 3), (1, 3, 2), (2,))]:
            with pytest.raises(ValueError, match="linear shapes disagree"):
                T.linear(Tensor(np.ones(x)), Tensor(np.ones(w)), Tensor(np.ones(b)))

    def test_random_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            c = rng.normal(size=2)
            np.testing.assert_allclose(
                T.linear(Tensor(a), Tensor(b), Tensor(c)).data, matmul_oracle(a, b) + c, rtol=1e-12
            )

    @staticmethod
    def _grads(a_shape, b_shape, needs):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        ta, tb = Tensor(a, requires_grad=needs[0]), Tensor(b, requires_grad=needs[1])
        out = T.linear(ta, tb, zero_bias(b_shape[1]))
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()
        return (ta.grad, tb.grad), matmul_grads_reference(a, b, g)

    NEEDS = [(True, True), (True, False), (False, True)]

    @pytest.mark.parametrize("needs", NEEDS, ids=["both", "left", "right"])
    @pytest.mark.parametrize("a_shape", [(3, 4), (2, 1, 4), (2, 5, 4), (2, 3, 5, 4)])
    def test_weight_grads_match_batched_form(self, a_shape, needs):
        got, ref = self._grads(a_shape, (4, 6), needs)
        for grad, want, need in zip(got, ref, needs):
            if not need:
                assert grad is None
                continue
            assert grad.shape == want.shape
            np.testing.assert_allclose(grad, want, rtol=1e-12, atol=0)
            if len(a_shape) == 2:  # a 2-D left operand runs the same two GEMMs
                assert grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("needs", [(True, True, True), (True, False, False), (False, True, True)],
                             ids=["both", "left", "right"])
    def test_attention_grads_bit_equal_to_batched_form(self, needs):
        # the products of attention, left (queries) and right (keys and
        # values) operands, against the ops attention_reference composes
        rng = np.random.default_rng(22)
        data = [rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 6, 8)), rng.normal(size=(2, 6, 8))]
        g = rng.normal(size=(2, 5, 8))
        results = []
        for op in (T.attention, attention_reference):
            qkv = [Tensor(d, requires_grad=need) for d, need in zip(data, needs)]
            out = op(*qkv, 2, None)
            (out * Tensor(g)).sum().backward()
            results.append([out.data] + [t.grad for t in qkv])
        for new, ref in zip(*results):
            assert (new is None and ref is None) or new.tobytes() == ref.tobytes()
        assert [grad is not None for grad in results[0][1:]] == list(needs)


class TestLogSoftmax:
    def test_symmetric_pair(self):
        out = T.log_softmax(Tensor([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [-np.log(2.0)] * 2, rtol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5))
        a = T.log_softmax(Tensor(x), axis=-1).data
        b = T.log_softmax(Tensor(x + 123.456), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_frozen_high_precision(self):
        # reference values computed with 40-digit arithmetic
        expected = [-2.4076059644443803045, -1.4076059644443803045, -0.40760596444438030448]
        out = T.log_softmax(Tensor([1.0, 2.0, 3.0]), axis=-1)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14)

    def test_rows_exponentiate_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 9)) * 10
        out = T.log_softmax(Tensor(x), axis=-1)
        sums = np.exp(out.data).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)


class TestLayerNorm:
    def test_constant_vector_is_zeroed(self):
        x = Tensor(np.full((3, 4), 7.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_standardized_fixed_point(self):
        v = np.array([-1.0, 1.0, -1.0, 1.0])  # zero mean, unit variance
        out = T.layer_norm(Tensor(v[None, :]), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data[0], v, atol=1e-5)

    def test_output_statistics(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 16)) * 3 + 2
        out = T.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-6)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-3)

    @pytest.mark.parametrize("shape", [(2, 5), (1, 64), (3, 7, 64), (4, 1, 8)])
    def test_bit_identical_to_numpy_mean_and_var(self, shape):
        rng = np.random.default_rng(11)
        x = rng.normal(size=shape) * 3 + 2
        g, b, up = rng.normal(size=shape[-1]), rng.normal(size=shape[-1]), rng.normal(size=shape)
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-6)
        xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
        gg = up * g
        ref_gx = inv * (
            gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
        )
        xt = Tensor(x, requires_grad=True)
        out = T.layer_norm(xt, Tensor(g), Tensor(b))
        (out * Tensor(up)).sum().backward()
        assert out.data.tobytes() == (xhat * g + b).tobytes()
        assert xt.grad.tobytes() == ref_gx.tobytes()

    def test_bad_gamma_shape(self):
        with pytest.raises(ValueError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestEmbedding:
    def test_single_row(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.embedding(table, np.array([2]))
        np.testing.assert_array_equal(out.data, table.data[2:3])

    def test_repeated_id_accumulates(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = T.embedding(table, np.array([1, 1]))
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_out_of_range(self):
        table = Tensor(np.zeros((4, 3)))
        with pytest.raises(IndexError):
            T.embedding(table, np.array([4]))

    def test_grad_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([0, 2, 2, 4])

        def f():
            emb = T.embedding(table, ids)
            return (emb * emb).sum()

        report = T.grad_check(f, {"table": table}, step=1e-6, tolerance=1e-5)
        assert report["passed"], report


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        w.sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_detached_tensor_has_zero_grad(self):
        w = Tensor(np.ones(3), requires_grad=True)
        other = Tensor(np.ones(3), requires_grad=True)
        other.sum().backward()
        np.testing.assert_array_equal(grad_of(w), np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (w * 2.0).backward()

    def test_second_backward_errors(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = w.sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already ran"):
            loss.backward()

    def test_backward_frees_what_only_the_graph_holds(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        hidden = T.relu(w * 2.0)
        held = hidden * w
        loss = held.sum()
        watch = weakref.ref(hidden.data)
        del hidden  # from here on only the graph refers to it
        assert watch() is not None
        loss.backward()
        assert watch() is None
        np.testing.assert_array_equal(held.data, [2.0, 0.0, 18.0])
        np.testing.assert_array_equal(held.grad, np.ones(3))
        np.testing.assert_array_equal(w.data, [1.0, -2.0, 3.0])
        np.testing.assert_array_equal(w.grad, [4.0, 0.0, 12.0])
        assert loss.item() == 20.0 and loss.grad == 1.0

    @staticmethod
    def _two_losses():
        """Two losses that share the intermediate ``shared``."""
        w = Tensor(np.array([0.3, -1.7, 2.2, 0.9]), requires_grad=True)
        v = Tensor(np.array([1.1, 0.4, -0.9, -2.5]), requires_grad=True)
        shared = T.relu(w * v + w)
        first = (shared * w).sum()
        second = (shared * v * shared).reshape(2, 2).transpose(1, 0).sum()
        return w, v, shared, first, second

    def test_second_loss_through_a_released_node_is_refused(self):
        w, v, shared, first, second = self._two_losses()
        first.backward()
        held = {"w": w, "v": v, "shared": shared, "first": first, "second": second}
        before = {name: None if t.grad is None else t.grad.tobytes() for name, t in held.items()}
        with pytest.raises(RuntimeError, match="already ran"):
            second.backward()
        after = {name: None if t.grad is None else t.grad.tobytes() for name, t in held.items()}
        assert after == before and before["second"] is None

    def test_summed_loss_gradients_are_pinned_bit_for_bit(self):
        # recorded from the walk that kept the whole graph until it ended
        w, v, _, first, second = self._two_losses()
        (first + second).backward()
        pinned = {
            "w": ["0x1.0aeb1c432ca58p+2", "-0x0.0p+0", "0x1.9a027525460a4p-2", "0x0.0p+0"],
            "v": ["0x1.ce2eb1c432ca6p-1", "0x0.0p+0", "0x1.0119ce075f6fep+2", "0x0.0p+0"],
        }
        for name, t in (("w", w), ("v", v)):
            assert t.grad.tobytes() == np.array([float.fromhex(h) for h in pinned[name]]).tobytes()

    def test_shared_tensor_accumulates(self):
        w = Tensor(np.array([2.0]), requires_grad=True)
        (w * w).sum().backward()  # d(w^2)/dw = 2w
        np.testing.assert_allclose(w.grad, [4.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_composed_graph_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        g = Tensor(np.ones(4), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)

        def f():
            h = T.layer_norm(T.linear(a, b, bias) + c, g, Tensor(np.zeros(4)))
            h = T.relu(h) + 0.1 * h
            return (T.log_softmax(h, axis=-1) * h).sum()

        report = T.grad_check(f, {"a": a, "b": b, "g": g, "bias": bias}, step=1e-6, tolerance=1e-5)
        assert report["passed"], report


class TestGradCheck:
    def test_matmul_sum_passes(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        c = Tensor(rng.normal(size=2), requires_grad=True)
        report = T.grad_check(lambda: T.linear(a, b, c).sum(), {"a": a, "b": b, "c": c})
        assert report["passed"]
        assert report["max_deviation"] < 1e-5

    def test_constant_function_reports_zero(self):
        w = Tensor(np.ones(2), requires_grad=True)
        report = T.grad_check(lambda: Tensor(np.zeros(1)).sum() + 0.0 * w.sum(), {"w": w})
        assert report["passed"]
        assert report["max_deviation"] < 1e-9

    def test_perturbed_forwards_record_no_graph(self):
        w = Tensor(np.array([0.5, -1.5]), requires_grad=True)
        recorded = []

        def f():
            out = (w * w).sum()
            recorded.append(out.requires_grad)
            return out

        report = T.grad_check(f, {"w": w})
        assert report["passed"]
        assert recorded == [True] + [False] * 4

    def test_failure_is_reported_not_raised(self):
        w = Tensor(np.array([1.0]), requires_grad=True)

        def broken():
            out = (w * w).sum()
            out._grad_fn = lambda g: (np.array([123.0]),)  # sabotage the closure
            return out

        report = T.grad_check(broken, {"w": w})
        assert not report["passed"]
        assert report["failures"] == ["w"]


class TestOps:
    def test_purity_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 4))
        a = T.log_softmax(Tensor(x), axis=-1).data
        b = T.log_softmax(Tensor(x), axis=-1).data
        assert a.tobytes() == b.tobytes()

    def test_every_tensor_holds_float64(self):
        x = np.array([[0.1, 1.0 / 3.0]], dtype=np.float32)
        t = Tensor(x)
        assert t.data.dtype == np.float64
        assert t.data.tobytes() == x.astype(np.float64).tobytes()
        assert Tensor([1, 2]).data.dtype == np.float64
        assert (t + 1).data.dtype == np.float64

    def test_non_finite_forward_raises(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            overflowing_linear()

    def test_concat_roundtrip_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = T.concat([a, b], axis=1)
        (out * 2.0).sum().backward()
        np.testing.assert_array_equal(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(b.grad, np.full((2, 3), 2.0))

    def test_broadcast_add_grad(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        bias = Tensor(np.ones(3), requires_grad=True)
        (a + bias).sum().backward()
        np.testing.assert_array_equal(bias.grad, np.full(3, 2.0))

    def test_dropout_eval_identity_and_train_mask(self):
        x = Tensor(np.ones((100,)))
        assert T.dropout(x, 0.5, None, training=False) is x
        rng = np.random.default_rng(9)
        y = T.dropout(x, 0.5, rng, training=True)
        kept = y.data != 0.0
        assert 20 < kept.sum() < 80
        np.testing.assert_allclose(y.data[kept], 2.0)

    def test_conv2d_matches_direct_convolution(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 2, 5, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).data
        # direct sliding-window evaluation
        xp = np.zeros((1, 2, 7, 6))
        xp[:, :, 1:6, 1:5] = x
        ho, wo = 3, 2
        ref = np.zeros((1, 3, ho, wo))
        for co in range(3):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[0, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    ref[0, co, i, j] = (patch * w[co]).sum() + b[co]
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_conv2d_grads(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 1, 4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)

        def f():
            out = T.conv2d(x, w, b, stride=2, pad=1)
            return (out * out).sum()

        report = T.grad_check(f, {"x": x, "w": w, "b": b}, step=1e-6, tolerance=1e-5)
        assert report["passed"], report

    @pytest.mark.parametrize(
        "x_shape, w_shape, stride, pad",
        [
            ((2, 1, 9, 8), (3, 1, 3, 3), 2, 1),
            ((2, 3, 7, 5), (2, 3, 3, 3), 2, 1),
            ((1, 2, 6, 6), (2, 2, 2, 3), 1, 0),
            ((3, 2, 8, 7), (4, 2, 3, 2), 3, 2),
        ],
    )
    def test_conv2d_backward_matches_reference(self, x_shape, w_shape, stride, pad):
        rng = np.random.default_rng(12)
        data = [rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])]
        grads = []
        for conv in (T.conv2d, conv2d_reference):
            x, w, b = (Tensor(d, requires_grad=True) for d in data)
            out = conv(x, w, b, stride=stride, pad=pad)
            (out * Tensor(np.cos(np.arange(out.data.size)).reshape(out.shape))).sum().backward()
            grads.append((out.data, x.grad, w.grad, b.grad))
        for new, ref in zip(*grads):
            np.testing.assert_allclose(new, ref, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("batch", [1, 2, 8])
    @pytest.mark.parametrize(
        "kernel, stride, pad",
        [((3, 3), 2, 1), ((2, 3), 1, 0), ((3, 2), 3, 2)],
        ids=["k3x3-s2-p1", "k2x3-s1-p0", "k3x2-s3-p2"],
    )
    def test_conv2d_bit_equal_to_gather_form(self, batch, kernel, stride, pad):
        # BLAS picks kernels by shape, so equal bits on one shape say
        # nothing about another: sweep the shapes the model and tests use
        rng = np.random.default_rng(14)
        for cin, h, w, cout in itertools.product([1, 3, 64], [4, 5, 9, 17, 30, 41, 72], [3, 4, 8], [5, 64]):
            data = [rng.normal(size=(batch, cin, h, w)), rng.normal(size=(cout, cin) + kernel),
                    rng.normal(size=cout)]
            results = []
            for conv in (T.conv2d, conv2d_gather):
                x, wt, b = (Tensor(d, requires_grad=True) for d in data)
                out = conv(x, wt, b, stride=stride, pad=pad)
                g = np.cos(np.arange(out.data.size)).reshape(out.shape)
                results.append((out.data, *out._grad_fn(g)))
            for name, new, ref in zip(("out", "gx", "gw", "gb"), *results):
                assert np.array_equal(new, ref), (name, cin, h, w, cout)

    def test_conv2d_input_without_grad_gets_none(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 1, 6, 4)))  # features need no gradient
        w = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        out = T.conv2d(x, w, b)
        gx, gw, gb = out._grad_fn(np.ones(out.shape))
        assert gx is None and gw.shape == w.shape and gb.shape == b.shape
        out.sum().backward()
        assert x.grad is None and w.grad is not None


class TestConstantOperands:
    """A binary op returns no gradient for an operand that does not require one."""

    OPS = {
        "add": lambda a, b: a + b,
        "mul": lambda a, b: a * b,
        "matmul": lambda a, b: T.linear(a, b, zero_bias(3)),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("trainable", [0, 1])
    def test_only_trainable_operand_gets_gradient(self, op, trainable):
        rng = np.random.default_rng(14)
        data = [rng.uniform(1.0, 2.0, size=(3, 3)), rng.uniform(1.0, 2.0, size=(3, 3))]
        both = [Tensor(d, requires_grad=True) for d in data]
        self.OPS[op](*both).sum().backward()
        operands = [Tensor(d, requires_grad=i == trainable) for i, d in enumerate(data)]
        out = self.OPS[op](*operands)
        parts = out._grad_fn(np.ones(out.shape))
        assert parts[1 - trainable] is None
        np.testing.assert_array_equal(parts[trainable], both[trainable].grad)


class TestFiniteDifferences:
    """Every differentiable op, against central finite differences of a weighted sum."""

    # op -> (operand shapes, op over the operands, map of the drawn normal data)
    CASES = {
        "add": ([(3, 4), (4,)], lambda a, b: a + b, None),
        "mul": ([(3, 4), (1, 4)], lambda a, b: a * b, None),
        "reshape": ([(2, 6)], lambda a: a.reshape(3, 2, 2), None),
        "transpose": ([(2, 3, 4)], lambda a: a.transpose(2, 0, 1), None),
        "sum": ([(3, 4)], lambda a: a.sum(), None),
        # matmul*: linear, x @ w + b, over left operands of each rank the model passes
        "matmul_2d_left": ([(3, 4), (4, 5), (5,)], T.linear, None),
        "matmul": ([(2, 3, 4), (4, 5), (5,)], T.linear, None),
        "matmul_one_position": ([(3, 1, 4), (4, 5), (5,)], T.linear, None),
        "matmul_4d_left": ([(2, 3, 2, 4), (4, 5), (5,)], T.linear, None),
        "concat": ([(2, 3), (2, 2)], lambda a, b: T.concat([a, b], axis=1), None),
        "relu": ([(3, 4)], T.relu, lambda d: d + 0.2 * np.sign(d)),
        "log_softmax": ([(3, 5)], T.log_softmax, None),
        # the oracle's softmax, which attention_reference composes
        "softmax": ([(3, 5)], softmax, None),
        "attention_causal": (
            [(2, 3, 4)] * 3,
            lambda q, k, v: T.attention(q, k, v, 2, np.triu(np.full((3, 3), MASK), 1)),
            None,
        ),
        "attention_one_query": (
            [(2, 1, 4), (2, 5, 4), (2, 5, 4)], lambda q, k, v: T.attention(q, k, v, 2, None), None
        ),
        # one key/value row serves all three query rows; the last key is masked
        "attention_cross_one_key_row": (
            [(3, 2, 4), (1, 5, 4), (1, 5, 4)],
            lambda q, k, v: T.attention(q, k, v, 2, np.array([0.0, 0.0, 0.0, 0.0, MASK])),
            None,
        ),
        "layer_norm": ([(3, 4), (4,), (4,)], T.layer_norm, None),
        "embedding": ([(5, 3)], lambda t: T.embedding(t, np.array([0, 2, 2, 4])), None),
        # a generator made inside the op draws the same mask on every call
        "dropout": (
            [(4, 5)], lambda a: T.dropout(a, 0.3, np.random.default_rng(0), training=True), None
        ),
        "conv2d": ([(2, 1, 4, 3), (2, 1, 3, 3), (2,)], T.conv2d, None),
    }

    @pytest.mark.parametrize("op", list(CASES))
    def test_grad_matches_finite_differences(self, op):
        shapes, fn, draw = self.CASES[op]
        rng = np.random.default_rng(15)
        params = {}
        for i, shape in enumerate(shapes):
            data = rng.normal(size=shape)
            params[f"x{i}"] = Tensor(data if draw is None else draw(data), requires_grad=True)

        def f():
            out = fn(*params.values())
            weights = np.cos(np.arange(out.data.size)).reshape(out.shape)
            return (out * Tensor(weights)).sum()

        report = T.grad_check(f, params, step=1e-6, tolerance=1e-5)
        assert report["passed"], report


class TestInference:
    def test_records_no_graph(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        def forward():
            x = T.linear(Tensor(np.eye(2)[None]), w, Tensor(np.ones(2)))
            return T.attention(x, x, x, 1, None)

        with T.inference():
            out = forward()
        assert not out.requires_grad
        assert out._parents == () and out._grad_fn is None
        recorded = forward()
        assert recorded.requires_grad and recorded._parents and recorded._grad_fn is not None
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_non_finite_still_raises(self):
        with T.inference():
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
                overflowing_linear()

    def test_nests_and_restores_after_exception(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with T.inference():
            with T.inference():
                assert not (w * 2.0).requires_grad
            assert not (w * 2.0).requires_grad
            with pytest.raises(RuntimeError):
                with T.inference():
                    raise RuntimeError("inside")
            assert not (w * 2.0).requires_grad
        assert (w * 2.0).requires_grad
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            with T.inference():
                overflowing_linear()
        (w * 2.0).sum().backward()
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0))


# every op of the engine: (forward on float64 arrays, the arrays' shapes)
GUARDED_OPS = {
    "add": (lambda a, b: Tensor(a) + Tensor(b), [(2, 3), (2, 3)]),
    "add_broadcast": (lambda a, b: Tensor(a) + Tensor(b), [(2, 3), (3,)]),
    "mul": (lambda a, b: Tensor(a) * Tensor(b), [(2, 3), (2, 3)]),
    "reshape": (lambda a: Tensor(a).reshape(3, 2), [(2, 3)]),
    "transpose": (lambda a: Tensor(a).transpose(2, 0, 1), [(2, 1, 3)]),
    "sum": (lambda a: Tensor(a).sum(), [(2, 3)]),
    "matmul": (lambda a, b, c: T.linear(Tensor(a), Tensor(b), Tensor(c)), [(2, 3), (3, 2), (2,)]),
    "matmul_batched": (
        lambda a, b, c: T.linear(Tensor(a), Tensor(b), Tensor(c)), [(2, 1, 3), (3, 2), (2,)]
    ),
    "concat": (lambda a, b: T.concat([Tensor(a), Tensor(b)], axis=-1), [(2, 1), (2, 2)]),
    "relu": (lambda a: T.relu(Tensor(a)), [(2, 3)]),
    "log_softmax": (lambda a: T.log_softmax(Tensor(a)), [(2, 3)]),
    "attention": (
        lambda q, k, v: T.attention(Tensor(q), Tensor(k), Tensor(v), 1, np.array([0.0, 0.0, MASK])),
        [(1, 2, 2), (1, 3, 2), (1, 3, 2)],
    ),
    "layer_norm": (
        lambda x, g, b: T.layer_norm(Tensor(x), Tensor(g), Tensor(b)), [(2, 3), (3,), (3,)]
    ),
    "embedding": (lambda t: T.embedding(Tensor(t), np.array([[0, 2], [1, 0]])), [(3, 2)]),
    "dropout": (lambda a: T.dropout(Tensor(a), 0.5, np.random.default_rng(0), True), [(2, 3)]),
    "conv2d": (
        lambda x, w, b: T.conv2d(Tensor(x), Tensor(w), Tensor(b)),
        [(1, 1, 3, 3), (2, 1, 3, 3), (2,)],
    ),
}
# the extremes of float64 and zero, mixed with ordinary values
EXTREMES = st.sampled_from([1e308, -1e308, 1e-308, -1e-308, 0.0, -0.0, 1.0, -2.5, 0.5])


def _float_arrays(shape):
    n = math.prod(shape)
    return st.lists(EXTREMES, min_size=n, max_size=n).map(lambda v: np.array(v).reshape(shape))


def _forward(op, inputs):
    """The op's output array, or None when it raised FloatingPointError."""
    try:
        return op(*inputs).data
    except FloatingPointError:
        return None


class TestFpGuard:
    @pytest.mark.parametrize("name", sorted(GUARDED_OPS))
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(data=st.data())
    def test_flags_raise_wherever_the_scan_raises(self, name, data):
        op, shapes = GUARDED_OPS[name]
        inputs = [
            data.draw(_float_arrays(shape), label=f"input {i}") for i, shape in enumerate(shapes)
        ]
        with np.errstate(all="ignore"):  # the scan alone
            scanned = _forward(op, inputs)
        with T.fp_guard():
            guarded = _forward(op, inputs)
        if scanned is None:
            assert guarded is None
        elif guarded is not None:
            assert guarded.tobytes() == scanned.tobytes()

    def test_restores_callers_errstate_after_exception(self):
        with np.errstate(over="ignore", invalid="warn", divide="print", under="raise"):
            caller = np.geterr()
            with T.fp_guard():
                with T.fp_guard():
                    pass
                assert np.geterr() == {
                    "over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"
                }
            assert np.geterr() == caller
            with pytest.raises(FloatingPointError):
                with T.fp_guard():
                    overflowing_linear()
            assert np.geterr() == caller
            # outside again, the scan catches what over="ignore" lets through
            with pytest.raises(FloatingPointError, match="non-finite value"):
                overflowing_linear()


class TestContainer:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        arrays = {
            "enc.w": rng.normal(size=(3, 4)),
            "enc.b": rng.normal(size=4).astype(np.float32),
            "step": np.array([7], dtype=np.int64),
        }
        path = tmp_path / "params.bin"
        T.save_tensors(path, arrays)
        loaded = T.load_tensors(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].dtype == arr.dtype
            assert loaded[name].tobytes() == arr.tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path):
        arrays = {"b": np.ones(2), "a": np.zeros((1, 2))}
        p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
        T.save_tensors(p1, arrays)
        T.save_tensors(p2, T.load_tensors(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.bin"
        T.save_tensors(path, {"x": np.ones(1)})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version mismatch"):
            T.load_tensors(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.bin"
        T.save_tensors(path, {"x": np.ones(8)})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            T.load_tensors(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            T.load_tensors(path)
