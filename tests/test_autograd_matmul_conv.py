"""Gradient correctness for matmul, linear, convolution and pooling ops."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd.ops_conv import Conv2d, SharedLowering, conv_output_shape, im2col


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestMatMul:
    def test_2d_forward_matches_numpy(self):
        a, b = t((3, 4), 1), t((4, 5), 2)
        assert np.allclose((a @ b).numpy(), a.numpy() @ b.numpy())

    def test_2d_gradcheck(self):
        a, b = t((3, 4), 3), t((4, 2), 4)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_batched_gradcheck(self):
        a, b = t((2, 3, 4), 5), t((2, 4, 2), 6)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_vector_matrix(self):
        a, b = t((4,), 7), t((4, 3), 8)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_matrix_vector(self):
        a, b = t((3, 4), 9), t((4,), 10)
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_inner_product(self):
        a, b = t((5,), 11), t((5,), 12)
        assert gradcheck(lambda x, y: x @ y, [a, b])


class TestLinearOp:
    def test_matches_manual_affine(self):
        x, w, b = t((4, 6), 20), t((3, 6), 21), t((3,), 22)
        out = x.linear(w, b)
        assert np.allclose(out.numpy(), x.numpy() @ w.numpy().T + b.numpy())

    def test_gradcheck_with_bias(self):
        x, w, b = t((3, 4), 23), t((2, 4), 24), t((2,), 25)
        assert gradcheck(lambda a, b_, c: a.linear(b_, c), [x, w, b])

    def test_gradcheck_without_bias(self):
        x, w = t((3, 4), 26), t((2, 4), 27)
        assert gradcheck(lambda a, b_: a.linear(b_, None), [x, w])


class TestConv2d:
    def test_output_shape_helper(self):
        assert conv_output_shape(32, 32, 3, 1, 1) == (32, 32)
        assert conv_output_shape(32, 32, 3, 1, 0) == (30, 30)
        assert conv_output_shape(8, 8, 2, 2, 0) == (4, 4)

    def test_matches_scipy_correlate(self):
        from scipy import signal

        rng = np.random.default_rng(40)
        x = rng.standard_normal((1, 1, 6, 6))
        w = rng.standard_normal((1, 1, 3, 3))
        out = Tensor(x).conv2d(Tensor(w), None, stride=1, padding=0).numpy()
        expected = signal.correlate(x[0, 0], w[0, 0], mode="valid")
        assert np.allclose(out[0, 0], expected, atol=1e-5)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = x.conv2d(w, b, padding=1).numpy()
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)

    def test_gradcheck_no_padding(self):
        x, w, b = t((2, 2, 5, 5), 41, 0.5), t((3, 2, 3, 3), 42, 0.5), t((3,), 43)
        assert gradcheck(lambda a, k, c: a.conv2d(k, c, 1, 0), [x, w, b])

    def test_gradcheck_with_padding(self):
        x, w = t((1, 2, 4, 4), 44, 0.5), t((2, 2, 3, 3), 45, 0.5)
        assert gradcheck(lambda a, k: a.conv2d(k, None, 1, 1), [x, w])

    def test_gradcheck_stride_two(self):
        x, w = t((1, 1, 6, 6), 46, 0.5), t((2, 1, 3, 3), 47, 0.5)
        assert gradcheck(lambda a, k: a.conv2d(k, None, 2, 0), [x, w])

    def test_padding_preserves_spatial_size(self):
        x = t((1, 3, 8, 8), 48)
        w = t((4, 3, 3, 3), 49)
        assert x.conv2d(w, None, 1, 1).shape == (1, 4, 8, 8)

    @pytest.mark.parametrize(
        "stride,padding,with_bias",
        [(1, 0, False), (1, 0, True), (1, 1, False), (1, 1, True), (2, 1, True), (2, 0, False)],
    )
    def test_forward_bit_identical_to_tensordot_reference(self, stride, padding, with_bias):
        # The kernel-offset lowering must reproduce the original pad +
        # tensordot forward bit-for-bit, not just approximately (the
        # backward's contract is in _assert_matches_reference).
        rng = np.random.default_rng(400 + stride * 10 + padding * 2 + with_bias)
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4) if with_bias else None
        self._assert_matches_reference(x, w, b, stride, padding, rng)

    @pytest.mark.parametrize(
        "shape,c_out",
        [((32, 3, 16, 16), 8), ((32, 8, 8, 8), 8)],
        ids=["conv1-3to8-16px", "conv2-8to8-8px"],
    )
    def test_bench_shapes_float32_match_tensordot_reference(self, shape, c_out):
        # The two convolutions of the bench-scale network, in the training
        # dtype: binary spike input for conv2, analog frames for conv1.
        rng = np.random.default_rng(shape[1])
        x = rng.random(shape).astype(np.float32)
        if shape[1] == 8:
            x = (x < 0.2).astype(np.float32)
        w = (rng.standard_normal((c_out, shape[1], 3, 3)) * 0.3).astype(np.float32)
        b = (rng.standard_normal(c_out) * 0.1).astype(np.float32)
        self._assert_matches_reference(x, w, b, 1, 1, rng)

    @staticmethod
    def _assert_matches_reference(x, w, b, stride, padding, rng):
        """Check the lowering against the original as_strided/tensordot path.

        The forward must equal tensordot bit for bit.  The backward products
        use transposed GEMM operands, which some BLAS kernels round
        differently from tensordot's (OpenBLAS's small-matrix kernels for the
        weight gradient, its Haswell kernels for the input gradient), so each
        gradient must equal the *same* product taken on an independently
        built column matrix exactly -- the lowering and the per-offset col2im
        are pure data movement -- and the original formulation to rounding.
        """
        from numpy.lib.stride_tricks import as_strided

        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        n, c, h, wd = xp.shape
        c_out, _, kh, kw = w.shape
        oh = (h - kh) // stride + 1
        ow = (wd - kw) // stride + 1
        sn, sc, sh, sw = xp.strides
        cols = as_strided(
            xp, shape=(n, c, kh, kw, oh, ow), strides=(sn, sc, sh, sw, sh * stride, sw * stride)
        )
        ref = np.tensordot(cols, w, axes=([1, 2, 3], [1, 2, 3])).transpose(0, 3, 1, 2)
        if b is not None:
            ref = ref + b[None, :, None, None]
        go = rng.standard_normal(ref.shape).astype(x.dtype)
        tol = {"rtol": 1e-5, "atol": 1e-4} if x.dtype == np.float32 else {"rtol": 1e-12, "atol": 1e-12}

        # (C*KH*KW, N*OH*OW) columns and (C_out, N*OH*OW) output gradient.
        col_mat = cols.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, n * oh * ow)
        go_mat = go.transpose(1, 0, 2, 3).reshape(c_out, n * oh * ow)
        w_mat = w.reshape(c_out, -1)
        np.testing.assert_array_equal(im2col(xp, kh, kw, stride, np.empty_like(col_mat)), col_mat)

        def col2im(grad_cols):
            # The original scatter: (N, OH, OW, C, KH, KW) gradient columns,
            # one slice-add per kernel offset.
            grad_xp = np.zeros(xp.shape, dtype=x.dtype)
            for i in range(kh):
                for j in range(kw):
                    grad_xp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                        grad_cols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
                    )
            return grad_xp[:, :, padding : h - padding, padding : wd - padding]

        same_product_grad_x = col2im((w_mat.T @ go_mat).T.reshape(n, oh, ow, c, kh, kw))
        original_grad_x = col2im((go_mat.T @ w_mat).reshape(n, oh, ow, c, kh, kw))

        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        bt = None if b is None else Tensor(b, requires_grad=True)
        out = xt.conv2d(wt, bt, stride, padding)
        np.testing.assert_array_equal(out.numpy(), np.ascontiguousarray(ref))
        out.backward(go)
        np.testing.assert_array_equal(wt.grad, (go_mat @ col_mat.T).reshape(w.shape))
        np.testing.assert_allclose(wt.grad, np.tensordot(go, cols, axes=([0, 2, 3], [0, 4, 5])), **tol)
        np.testing.assert_array_equal(xt.grad, same_product_grad_x)
        np.testing.assert_allclose(xt.grad, original_grad_x, **tol)
        if b is not None:
            np.testing.assert_array_equal(bt.grad, go.sum(axis=(0, 2, 3)))

    def test_input_without_grad_skips_its_gradient(self):
        # The first layer's input is the encoded frame: its gradient would be
        # discarded, so the backward does not compute it, and the weight
        # gradient is the same as when the input gradient is computed.
        rng = np.random.default_rng(57)
        x = rng.random((4, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        go = rng.standard_normal((4, 8, 8, 8)).astype(np.float32)

        frame, w_frame = Tensor(x), Tensor(w, requires_grad=True)
        out = frame.conv2d(w_frame, None, 1, 1)
        node = out._node
        assert node.ctx.needs_input_grad == (False, True, False, False, False)
        assert node.fn.backward(node.ctx, go)[0] is None

        hidden, w_hidden = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        hidden.conv2d(w_hidden, None, 1, 1).backward(go)
        out.backward(go)
        assert frame.grad is None and hidden.grad is not None
        np.testing.assert_array_equal(w_frame.grad, w_hidden.grad)

    def test_scratch_reuse_keeps_ctx_arrays_alive_across_calls(self):
        # Two forwards back-to-back share the pooled scratch; the first call's
        # ctx must survive the second call's scratch reuse, so both backwards
        # still produce correct (and correctly distinct) gradients.
        x1, x2 = t((1, 2, 5, 5), 50, 0.5), t((1, 2, 5, 5), 51, 0.5)
        w = t((3, 2, 3, 3), 52, 0.5)
        out1 = x1.conv2d(w, None, 1, 1)
        out2 = x2.conv2d(w, None, 1, 1)
        (out1.sum() + out2.sum()).backward()

        def lone_grad(xt):
            x = Tensor(xt.numpy(), requires_grad=True)
            wl = Tensor(w.numpy(), requires_grad=True)
            x.conv2d(wl, None, 1, 1).sum().backward()
            return x.grad, wl.grad

        g1, gw1 = lone_grad(x1)
        g2, gw2 = lone_grad(x2)
        np.testing.assert_array_equal(x1.grad, g1)
        np.testing.assert_array_equal(x2.grad, g2)
        np.testing.assert_array_equal(w.grad, gw1 + gw2)

    def test_forward_output_is_not_scratch_backed(self):
        # The returned array enters the autograd graph and must be a fresh
        # allocation: a later conv at the same shape must not overwrite it.
        x = t((1, 1, 5, 5), 53)
        w = t((2, 1, 3, 3), 54)
        out = x.conv2d(w, None, 1, 1).numpy()
        snapshot = out.copy()
        t((1, 1, 5, 5), 55).conv2d(t((2, 1, 3, 3), 56), None, 1, 1)
        np.testing.assert_array_equal(out, snapshot)

    @pytest.mark.parametrize("input_grad", [False, True])
    def test_shared_lowering_reuses_one_read_only_output(self, input_grad):
        # Every step's node returns the first step's output, which no
        # in-place write can change, and routes its own gradients: to the
        # weight and bias once per node, and to that node's own input.
        rng = np.random.default_rng(58)
        x = rng.random((3, 2, 6, 6)).astype(np.float32)
        w = Tensor(rng.standard_normal((4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        gos = [rng.standard_normal((3, 4, 6, 6)).astype(np.float32) for _ in range(3)]

        def run(shared):
            w.zero_grad()
            b.zero_grad()
            frames = [Tensor(x.copy(), requires_grad=input_grad) for _ in gos]
            outs = [Conv2d.apply(frame, w, b, 1, 1, shared) for frame in frames]
            sum((out * Tensor(go)).sum() for out, go in zip(outs, gos)).backward()
            return outs, [frame.grad for frame in frames], w.grad, b.grad

        shared = SharedLowering()
        outs, input_grads, grad_w, grad_b = run(shared)
        ref_outs, ref_input_grads, ref_grad_w, ref_grad_b = run(None)
        assert all(out.data is shared.out for out in outs)
        assert not shared.out.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            outs[1].data += 1.0
        np.testing.assert_array_equal(shared.out, ref_outs[0].data)
        np.testing.assert_array_equal(grad_w, ref_grad_w)
        np.testing.assert_array_equal(grad_b, ref_grad_b)
        for got, ref in zip(input_grads, ref_input_grads):
            if input_grad:
                np.testing.assert_array_equal(got, ref)
            else:
                assert got is None and ref is None
        if input_grad:
            assert not np.array_equal(input_grads[0], input_grads[1])


class TestPooling:
    def test_maxpool_forward(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert x.max_pool2d(2).numpy()[0, 0, 0, 0] == 4.0

    def test_maxpool_gradient_routes_to_max(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = Tensor(data, requires_grad=True)
        x.max_pool2d(2).sum().backward()
        assert np.allclose(x.grad, [[[[0, 0], [0, 1]]]])

    def test_maxpool_gradcheck(self):
        x = t((2, 3, 4, 4), 50)
        assert gradcheck(lambda a: a.max_pool2d(2), [x])

    @pytest.mark.parametrize("values", ["binary", "few-levels", "normal"])
    @pytest.mark.parametrize(
        "shape,kernel", [((4, 3, 8, 8), 2), ((2, 3, 7, 9), 2), ((2, 2, 9, 7), 3), ((3, 2, 5, 5), 2)]
    )
    def test_maxpool_matches_argmax_reference(self, shape, kernel, values):
        # The phase-view scan must reproduce the argmax / take_along_axis /
        # put_along_axis formulation exactly: values, the saved first-max
        # index, and backward routing -- also on binary spike maps, where
        # most windows are ties (all-silent windows included), and on sizes
        # that leave a trimmed border.
        rng = np.random.default_rng(sum(shape) * 10 + kernel)
        if values == "binary":
            x = (rng.random(shape) < 0.3).astype(np.float32)
        elif values == "few-levels":
            x = rng.integers(-1, 2, shape).astype(np.float32)
        else:
            x = rng.standard_normal(shape)
        n, c, h, w = shape
        k = kernel
        oh, ow = h // k, w // k
        windows = (
            x[:, :, : oh * k, : ow * k]
            .reshape(n, c, oh, k, ow, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, oh, ow, k * k)
        )
        idx = windows.argmax(axis=-1)
        ref_out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        go = rng.standard_normal(ref_out.shape).astype(x.dtype)
        flat = np.zeros(windows.shape, dtype=go.dtype)
        np.put_along_axis(flat, idx[..., None], go[..., None], axis=-1)
        ref_grad = np.zeros(shape, dtype=go.dtype)
        ref_grad[:, :, : oh * k, : ow * k] = (
            flat.reshape(n, c, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh * k, ow * k)
        )

        xt = Tensor(x, requires_grad=True)
        out = xt.max_pool2d(kernel)
        np.testing.assert_array_equal(out.numpy(), ref_out)
        np.testing.assert_array_equal(out._node.ctx.saved[0], idx)
        out.backward(go)
        np.testing.assert_array_equal(xt.grad, ref_grad)

    def test_avgpool_forward(self):
        x = Tensor(np.ones((1, 1, 4, 4)) * 2.0)
        out = x.avg_pool2d(2)
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.numpy(), 2.0)

    def test_avgpool_gradcheck(self):
        x = t((1, 2, 4, 4), 51)
        assert gradcheck(lambda a: a.avg_pool2d(2), [x])

    def test_pool_trims_odd_sizes(self):
        x = Tensor(np.ones((1, 1, 5, 5)), requires_grad=True)
        out = x.max_pool2d(2)
        assert out.shape == (1, 1, 2, 2)
        out.sum().backward()
        # The trimmed last row/column receives zero gradient.
        assert np.allclose(x.grad[:, :, 4, :], 0.0)
        assert np.allclose(x.grad[:, :, :, 4], 0.0)
