"""Gradient correctness for the linear, convolution and pooling ops."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import gradcheck
from repro.autograd import Tensor, no_grad
from repro.autograd.ops_conv import (
    ScratchPool,
    conv2d_forward,
    conv_output_shape,
    from_phase_major,
    maxpool2d_forward,
    phase_views,
    to_phase_major,
)
from repro.runtime.kernels import ConvKernel, MaxPoolKernel


def t(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


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

    def test_gradients_are_the_affine_products(self):
        x, w, b = t((5, 4), 28), t((3, 4), 29), t((3,), 30)
        go = np.random.default_rng(31).standard_normal((5, 3))
        x.linear(w, b).backward(go)
        np.testing.assert_array_equal(x.grad, go @ w.numpy())
        np.testing.assert_array_equal(w.grad, go.T @ x.numpy())
        np.testing.assert_array_equal(b.grad, go.sum(axis=0))

    def test_leading_dimensions_collapse_into_the_weight_gradient(self):
        # A (T, N, F) input applies the layer at every timestep; the weight
        # and bias gradients sum over both leading axes.
        x, w, b = t((2, 3, 4), 32), t((2, 4), 33), t((2,), 34)
        assert x.linear(w, b).shape == (2, 3, 2)
        assert gradcheck(lambda a, b_, c: a.linear(b_, c), [x, w, b])

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(35)
        x = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        out = x.linear(w, b)
        assert out.dtype == np.float32
        out.backward(np.ones((2, 3), dtype=np.float32))
        assert w.grad.dtype == np.float32 and b.grad.dtype == np.float32

    def test_frozen_weight_gets_no_gradient(self):
        x = t((2, 4), 36)
        w = Tensor(np.random.default_rng(37).standard_normal((3, 4)))
        x.linear(w).backward(np.ones((2, 3)))
        assert w.grad is None
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)) @ w.numpy())


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
    def test_matches_tall_lowering_and_tensordot_reference(self, stride, padding, with_bias):
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
    def _op(x, w, b, stride, padding, go):
        """The autograd op's output and weight, input and bias gradients for ``go``."""
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        bt = None if b is None else Tensor(b, requires_grad=True)
        out = xt.conv2d(wt, bt, stride, padding)
        out.backward(go)
        return out.numpy(), wt.grad, xt.grad, None if bt is None else bt.grad

    @staticmethod
    def _tolerance(dtype):
        return {"rtol": 1e-5, "atol": 1e-4} if dtype == np.float32 else {"rtol": 1e-12, "atol": 1e-12}

    @staticmethod
    def _tensordot_reference(x, w, b, stride, padding, go):
        """The original pad + as_strided/tensordot convolution.

        Returns its output and the weight, input and bias gradients for the
        output gradient ``go``.
        """
        from numpy.lib.stride_tricks import as_strided

        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        n, c, h, wd = xp.shape
        _, _, kh, kw = w.shape
        oh = (h - kh) // stride + 1
        ow = (wd - kw) // stride + 1
        sn, sc, sh, sw = xp.strides
        cols = as_strided(
            xp, shape=(n, c, kh, kw, oh, ow), strides=(sn, sc, sh, sw, sh * stride, sw * stride)
        )
        out = np.tensordot(cols, w, axes=([1, 2, 3], [1, 2, 3])).transpose(0, 3, 1, 2)
        if b is not None:
            out = out + b[None, :, None, None]
        grad_cols = np.tensordot(go, w, axes=([1], [0]))  # (N, OH, OW, C, KH, KW)
        grad_xp = np.zeros(xp.shape, dtype=grad_cols.dtype)
        for i in range(kh):
            for j in range(kw):
                grad_xp[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                    grad_cols[..., i, j].transpose(0, 3, 1, 2)
                )
        grad_w = np.tensordot(go, cols, axes=([0, 2, 3], [0, 4, 5]))
        grad_x = grad_xp[:, :, padding : h - padding, padding : wd - padding]
        grad_b = None if b is None else go.sum(axis=(0, 2, 3))
        return out, grad_w, grad_x, grad_b

    @staticmethod
    def _tall_reference(x, kh, kw, stride, padding):
        """An independently built tall image: ``(cols, valid, scatter)``.

        The grid is filled image by image and each kernel offset gathered
        by index arithmetic: rows ``W + 2p`` wide and images every
        ``max(H + p, OH*s)`` rows, both rounded up to the stride.  ``valid``
        indexes the non-junk columns in ``(n, oy, ox)`` order, and
        ``scatter(grad_cols)`` adds gradient columns back one kernel offset
        at a time and returns the ``(N, C, H, W)`` input gradient.
        """
        n, c, h, wd = x.shape
        s, p = stride, padding
        oh, ow = conv_output_shape(h, wd, (kh, kw), s, p)
        width = -(-(wd + 2 * p) // s) * s
        pitch = -(-max(h + p, oh * s) // s) * s
        grid = np.zeros((c, n * pitch + kh, width), dtype=x.dtype)
        for img in range(n):
            grid[:, img * pitch + p : img * pitch + p + h, p : p + wd] = x[img]
        qy, qx = np.meshgrid(np.arange(n * pitch // s), np.arange(width // s), indexing="ij")
        reads = (qy * s * width + qx * s).ravel()
        offsets = [i * width + j for i in range(kh) for j in range(kw)]
        cols = np.stack([grid.reshape(c, -1)[:, off + reads] for off in offsets], axis=1)
        img, oy, ox = np.meshgrid(np.arange(n), np.arange(oh), np.arange(ow), indexing="ij")
        valid = ((img * (pitch // s) + oy) * (width // s) + ox).ravel()

        def scatter(grad_cols):
            grad_grid = np.zeros(grid.shape, dtype=grad_cols.dtype)
            flat = grad_grid.reshape(c, -1)
            for k, off in enumerate(offsets):
                flat[:, off + reads] += grad_cols.reshape(c, len(offsets), -1)[:, k]
            images = grad_grid[:, : n * pitch].reshape(c, n, pitch, width)
            return images[:, :, p : p + h, p : p + wd].transpose(1, 0, 2, 3)

        # C order, as the op's: BLAS may round transposed operands differently.
        return np.ascontiguousarray(cols.reshape(c * kh * kw, -1)), valid, scatter

    def _assert_matches_reference(self, x, w, b, stride, padding, rng):
        """Check the lowering against the tall image and the tensordot path.

        The forward and all three gradients must equal the *same* products
        taken on an independently built tall matrix exactly -- laying out,
        lowering, scattering and dropping the junk positions is pure data
        movement -- and the original as_strided/tensordot formulation to
        dtype tolerance: the longer GEMMs, and the transposed operands of the
        backward products, round differently on some BLAS kernels.
        """
        c_out, c, kh, kw = w.shape
        out_shape = (x.shape[0], c_out) + conv_output_shape(*x.shape[2:], (kh, kw), stride, padding)
        go = rng.standard_normal(out_shape).astype(x.dtype)
        ref_out, ref_grad_w, ref_grad_x, ref_grad_b = self._tensordot_reference(x, w, b, stride, padding, go)
        tol = self._tolerance(x.dtype)

        cols, valid, scatter = self._tall_reference(x, kh, kw, stride, padding)
        binding = ScratchPool().conv(x.shape, x.dtype, w.shape, stride, padding)
        np.testing.assert_array_equal(binding.lower(x), cols)
        w_mat = w.reshape(c_out, -1)
        same_gemm_out = (cols.T @ w_mat.T)[valid].reshape(ref_out.shape[:1] + ref_out.shape[2:] + (c_out,))
        same_gemm_out = same_gemm_out.transpose(0, 3, 1, 2)
        if b is not None:
            same_gemm_out = same_gemm_out + b[None, :, None, None]
        go_mat = np.zeros((c_out, cols.shape[1]), dtype=go.dtype)
        go_mat[:, valid] = go.transpose(1, 0, 2, 3).reshape(c_out, -1)

        out, grad_w, grad_x, grad_b = self._op(x, w, b, stride, padding, go)
        np.testing.assert_array_equal(out, same_gemm_out)
        np.testing.assert_allclose(out, ref_out, **tol)
        np.testing.assert_array_equal(grad_w, (cols @ go_mat.T).T.reshape(w.shape))
        np.testing.assert_allclose(grad_w, ref_grad_w, **tol)
        np.testing.assert_array_equal(grad_x, scatter(w_mat.T @ go_mat))
        np.testing.assert_allclose(grad_x, ref_grad_x, **tol)
        np.testing.assert_array_equal(grad_b, ref_grad_b)

    @settings(max_examples=150, deadline=None)
    @given(
        st.data(),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([np.float32, np.float64]),
    )
    def test_random_geometry_matches_tensordot_reference(self, data, n, c_in, c_out, stride, padding, dtype):
        # Non-square inputs and kernels, every stride, and padding up to and
        # past the kernel size: the row width, image pitch and slack rows of
        # the tall image are right for each.
        kh = data.draw(st.integers(1, 5), label="kh")
        kw = data.draw(st.integers(1, 5).filter(lambda k: k != kh), label="kw")
        h = data.draw(st.integers(max(1, kh - 2 * padding), 12), label="h")
        wd = data.draw(st.integers(max(1, kw - 2 * padding), 12).filter(lambda v: v != h), label="w")
        with_bias = data.draw(st.booleans(), label="with_bias")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((n, c_in, h, wd)).astype(dtype)
        w = rng.standard_normal((c_out, c_in, kh, kw)).astype(dtype)
        b = rng.standard_normal(c_out).astype(dtype) if with_bias else None
        out_shape = (n, c_out) + conv_output_shape(h, wd, (kh, kw), stride, padding)
        go = rng.standard_normal(out_shape).astype(dtype)
        got = self._op(x, w, b, stride, padding, go)
        ref = self._tensordot_reference(x, w, b, stride, padding, go)
        for name, value, expected in zip(("out", "grad_w", "grad_x", "grad_b"), got, ref):
            if expected is None:
                assert value is None
            else:
                np.testing.assert_allclose(value, expected, err_msg=name, **self._tolerance(dtype))

    @pytest.mark.parametrize("entry", ["autograd", "kernel-active", "kernel-silent"])
    @pytest.mark.parametrize(
        "x_shape,w_shape",
        [((2, 4, 5, 5), (3, 3, 3, 3)), ((2, 3, 2, 2), (3, 3, 3, 3))],
        ids=["channel-mismatch", "smaller-than-kernel"],
    )
    def test_rejects_malformed_input_naming_both_shapes(self, x_shape, w_shape, entry):
        # One check, reached by the autograd op and by the runtime kernel on
        # active and silent frames alike.
        x = np.zeros(x_shape) if entry == "kernel-silent" else np.ones(x_shape)
        w = np.ones(w_shape)
        match = rf"{re.escape(str(x_shape))}.*{re.escape(str(w_shape))}"
        with pytest.raises(ValueError, match=match):
            if entry == "autograd":
                Tensor(x).conv2d(Tensor(w), None, 1, 0)
            else:
                ConvKernel("conv", w, None).run(x)

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
        (out1 + out2).backward(np.ones(out1.shape))

        def lone_grad(xt):
            x = Tensor(xt.numpy(), requires_grad=True)
            wl = Tensor(w.numpy(), requires_grad=True)
            x.conv2d(wl, None, 1, 1).backward(np.ones((1, 3, 5, 5)))
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


BENCH_CONVS = pytest.mark.parametrize(
    "c_in,size", [(3, 16), (8, 8)], ids=["conv1-3to8-16px", "conv2-8to8-8px"]
)


def _view(a):
    """Where ``a`` starts, its shape and its strides: equal for two views of the same elements."""
    return a.__array_interface__["data"][0], a.shape, a.strides


class TestForwardPanels:
    """The forward product runs as row panels of its lowered matrix (``ConvBinding.panels``).

    At the bench network's two convolutions (8 output channels) each panel
    fits OpenBLAS's small-matrix bound, and the panels' rows equal the
    whole product's byte for byte on every kernel family.  Wider products
    stay whole.  OpenBLAS also splits a product's rows among its threads;
    on Haswell kernels a split off a 24-row tile boundary changes bits,
    with or without panels, and at these batch sizes the panels and the
    whole product split on tile boundaries.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inputs", ["analog", "binary"])
    @pytest.mark.parametrize("n", [1, 16, 32, 64])
    @BENCH_CONVS
    def test_forward_is_one_product_of_the_lowered_matrix_byte_for_byte(self, c_in, size, n, inputs, dtype):
        rng = np.random.default_rng([n, c_in, size])
        x = rng.random((n, c_in, size, size))
        x = (x < 0.2 if inputs == "binary" else x).astype(dtype)
        w = (rng.standard_normal((8, c_in, 3, 3)) * 0.3).astype(dtype)
        scratch = ScratchPool()
        out = conv2d_forward(x, w, None, 1, 1, scratch)
        binding = scratch.conv(x.shape, x.dtype, w.shape, 1, 1)
        whole = binding.cols.T @ w.reshape(8, -1).T
        layout = binding.layout
        expected = whole.reshape(*layout.output_grid(n), 8)[:, : layout.oh, : layout.ow].transpose(0, 3, 1, 2)
        assert out.dtype == dtype and out.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("n", [1, 16, 32, 64])
    @BENCH_CONVS
    def test_panels_tile_the_product_in_48_row_multiples_of_at_most_a_million_macs(self, c_in, size, n):
        binding = ScratchPool().conv((n, c_in, size, size), np.float32, (8, c_in, 3, 3), 1, 1)
        k, positions = binding.cols.shape
        start = 0
        for index, (cols, prod) in enumerate(binding.panels):
            rows = prod.shape[0]
            assert _view(cols) == _view(binding.cols[:, start : start + rows].T)
            assert _view(prod) == _view(binding.prod[start : start + rows])
            if index < len(binding.panels) - 1:
                assert rows % 48 == 0 and rows * k * 8 <= 10**6
            start += rows
        assert start == positions
        # A batch whose product exceeds the bound is split.
        assert (len(binding.panels) > 1) == (positions * k * 8 > 10**6)

    @pytest.mark.parametrize(
        "x_shape,c_out",
        [((64, 3, 32, 32), 16), ((64, 16, 16, 16), 16), ((16, 32, 16, 16), 32)],
        ids=["full-conv1-3to16", "full-conv2-16to16", "paper-conv2-32to32"],
    )
    def test_wider_products_keep_a_single_panel(self, x_shape, c_out):
        # Each product is well past the bound, yet measured faster whole.
        binding = ScratchPool().conv(x_shape, np.float32, (c_out, x_shape[1], 3, 3), 1, 1)
        assert binding.cols.size * c_out > 10**6
        ((cols, prod),) = binding.panels
        assert _view(cols) == _view(binding.cols.T) and _view(prod) == _view(binding.prod)


class TestPooling:
    def test_maxpool_forward(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert x.max_pool2d(2).numpy()[0, 0, 0, 0] == 4.0

    def test_maxpool_gradient_routes_to_max(self):
        data = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        x = Tensor(data, requires_grad=True)
        x.max_pool2d(2).backward(np.ones((1, 1, 1, 1)))
        assert np.allclose(x.grad, [[[[0, 0], [0, 1]]]])

    def test_maxpool_gradcheck(self):
        x = t((2, 3, 4, 4), 50)
        assert gradcheck(lambda a: a.max_pool2d(2), [x])

    @pytest.mark.parametrize("layout", ["nchw", "phase-major"])
    @pytest.mark.parametrize("values", ["binary", "few-levels", "normal"])
    @pytest.mark.parametrize(
        "shape,kernel", [((4, 3, 8, 8), 2), ((2, 3, 7, 9), 2), ((2, 2, 9, 7), 3), ((3, 2, 5, 5), 2)]
    )
    def test_maxpool_matches_argmax_reference(self, shape, kernel, values, layout):
        # The phase scan must reproduce the argmax / take_along_axis /
        # put_along_axis formulation exactly: values, the saved first-max
        # index, and backward routing -- also on binary spike maps, where
        # most windows are ties (all-silent windows included), and on sizes
        # that leave a trimmed border.  A phase-major input pools to the
        # same values and index, and its gradient, re-laid into NCHW, is
        # the NCHW input's.
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

        pooled_input = x if layout == "nchw" else to_phase_major(x, kernel)
        xt = Tensor(pooled_input, requires_grad=True)
        out = xt.max_pool2d(kernel)
        np.testing.assert_array_equal(out.numpy(), ref_out)
        np.testing.assert_array_equal(out._node.ctx.saved[0], idx)
        out.backward(go)
        assert xt.grad.shape == pooled_input.shape
        grad = xt.grad if layout == "nchw" else from_phase_major(xt.grad, shape)
        np.testing.assert_array_equal(grad, ref_grad)

        # An input that needs no gradient takes the index-free forward; on
        # NCHW it is the one the compiled plan's pool kernel runs too.
        plain = Tensor(pooled_input).max_pool2d(kernel)
        with no_grad():
            no_grad_out = Tensor(pooled_input).max_pool2d(kernel)
        for pooled in (plain, no_grad_out):
            np.testing.assert_array_equal(pooled.numpy(), ref_out)
            assert pooled.dtype == x.dtype and pooled._node is None and not pooled.requires_grad
        compiled = MaxPoolKernel("pool", kernel).run(x)
        assert compiled.dtype == x.dtype and compiled.tobytes() == plain.numpy().tobytes()

    @pytest.mark.parametrize("layout", ["nchw", "phase-major"])
    @pytest.mark.parametrize("shape,kernel", [((2, 3, 8, 8), 2), ((2, 2, 7, 9), 2), ((1, 2, 10, 11), 3)])
    def test_backward_bytes_are_go_times_index_match_per_phase(self, shape, kernel, layout):
        # Each phase of the input gradient holds exactly go * (idx == phase):
        # -0.0 where a negative or -0.0 gradient is not routed, NaN across
        # the window of an infinite one, and +0.0 past the last window.
        rng = np.random.default_rng(sum(shape) + kernel)
        x = (rng.random(shape) < 0.4).astype(np.float32) * rng.integers(1, 3, shape).astype(np.float32)
        pooled_input = x if layout == "nchw" else to_phase_major(x, kernel)
        xt = Tensor(pooled_input, requires_grad=True)
        out = xt.max_pool2d(kernel)
        go = rng.standard_normal(out.shape).astype(np.float32)
        go.flat[::7] = -0.0
        go.flat[3::11] = np.inf
        go.flat[5::13] = -np.inf
        assert (go < 0).any() and np.signbit(go[go == 0]).all()
        idx = out._node.ctx.saved[0]
        with np.errstate(invalid="ignore"):  # inf * 0
            out.backward(go)
            expected = [(go * (idx == phase)).tobytes() for phase in range(kernel * kernel)]
        views = phase_views(xt.grad, kernel)
        assert [view.tobytes() for view in views] == expected
        assert np.isnan(xt.grad).sum() == (kernel * kernel - 1) * np.isinf(go).sum()
        if layout == "nchw":
            h, w = shape[2] // kernel * kernel, shape[3] // kernel * kernel
            border = np.concatenate([xt.grad[:, :, h:].ravel(), xt.grad[:, :, :h, w:].ravel()])
            assert border.size == xt.grad.size - out.size * kernel * kernel
            assert border.tobytes() == np.zeros_like(border).tobytes()

    def test_layout_round_trips_and_rejects_other_shapes(self):
        x = np.random.default_rng(5).standard_normal((2, 3, 7, 9))
        phases = to_phase_major(x, 2)
        assert phases.shape == (4, 2, 3, 3, 4) and phases.flags.c_contiguous
        for phase, view in enumerate(phase_views(x, 2)):
            i, j = divmod(phase, 2)
            np.testing.assert_array_equal(phases[phase], x[:, :, i:6:2, j:8:2])
            assert phase_views(phases, 2)[phase].base is phases
        trimmed = x.copy()
        trimmed[:, :, 6:] = 0
        trimmed[:, :, :, 8:] = 0
        np.testing.assert_array_equal(from_phase_major(phases, x.shape), trimmed)
        np.testing.assert_array_equal(from_phase_major(phases, (2, 3, 6, 8)), x[:, :, :6, :8])
        for bad in ((4, 4), (3, 2, 3, 3, 4), (4, 2, 3, 3, 4, 1)):
            with pytest.raises(ValueError, match="phase-major layout"):
                Tensor(np.zeros(bad)).max_pool2d(2)

    @staticmethod
    def _phase_order_max(x, k):
        """The running maximum over the window offsets ``(i, j)`` in row-major order."""
        oh, ow = x.shape[2] // k, x.shape[3] // k
        out = x[:, :, 0 : oh * k : k, 0 : ow * k : k].copy()
        for phase in range(1, k * k):
            i, j = divmod(phase, k)
            np.maximum(out, x[:, :, i : i + oh * k : k, j : j + ow * k : k], out=out)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 2, 7, 9), (1, 3, 10, 11)])
    def test_spike_maps_pool_byte_for_byte_in_phase_order(self, shape, kernel, dtype):
        # Row pairs, then column pairs: on 0/1 maps every order of the
        # maxima gives the same bytes, also through a kernel's kept buffers.
        rng = np.random.default_rng(sum(shape) + kernel)
        pool = MaxPoolKernel("pool", kernel)
        for density in (0.0, 0.05, 0.3, 1.0):
            x = (rng.random(shape) < density).astype(dtype)
            expected = self._phase_order_max(x, kernel).tobytes()
            out = maxpool2d_forward(x, kernel)
            assert out.dtype == dtype and out.tobytes() == expected
            assert pool.run(x).tobytes() == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("shape", [(2, 3, 8, 8), (2, 2, 7, 9), (1, 3, 10, 11)])
    def test_floats_with_nan_pool_to_the_phase_order_value(self, shape, kernel, dtype):
        rng = np.random.default_rng(sum(shape) * kernel)
        x = rng.standard_normal(shape).astype(dtype)
        x[rng.random(shape) < 0.1] = np.nan
        out = maxpool2d_forward(x, kernel)
        np.testing.assert_array_equal(out, self._phase_order_max(x, kernel))
        n, c, h, w = shape
        oh, ow = h // kernel, w // kernel
        windows = x[:, :, : oh * kernel, : ow * kernel].reshape(n, c, oh, kernel, ow, kernel)
        has_nan = np.isnan(windows).any(axis=(3, 5))
        assert has_nan.any() and not has_nan.all()
        np.testing.assert_array_equal(np.isnan(out), has_nan)

    def test_pool_trims_odd_sizes(self):
        x = Tensor(np.ones((1, 1, 5, 5)), requires_grad=True)
        out = x.max_pool2d(2)
        assert out.shape == (1, 1, 2, 2)
        out.backward(np.ones(out.shape))
        # The trimmed last row/column receives zero gradient.
        assert np.allclose(x.grad[:, :, 4, :], 0.0)
        assert np.allclose(x.grad[:, :, :, 4], 0.0)
