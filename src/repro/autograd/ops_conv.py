"""2-D convolution and pooling operations (im2col based).

These are the computational workhorses of the paper's convolutional SNN
(`32C3-MP2-32C3-MP2-256-10`).  Every convolution in the repository -- the
autograd op here and the inference runtime's
:class:`~repro.runtime.kernels.ConvKernel` -- goes through one lowering,
:func:`im2col`, which turns it into a matrix product and keeps
per-timestep BPTT affordable in pure NumPy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd.function import Context, Function


class ScratchPool:
    """Reusable uninitialised buffers, keyed by ``(tag, shape, dtype)``.

    During a T-timestep pass every timestep runs its own convolution (and,
    under BPTT, its backward), and the large temporaries each call needs --
    the padded input, the im2col matrix, the GEMM output, and on the
    backward side the output-gradient matrix, the gradient columns and the
    padded gradient accumulator -- have the same shape at every timestep.
    Allocating them per call dominated conv overhead, so they come from a
    pool.  Every call fills a buffer before reading it, and any array that
    outlives a call -- the forward output, the returned gradients, anything
    saved in the ctx -- is a fresh allocation or copied out of the pool
    first.  A pool must not be shared by calls that run concurrently.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[str, Tuple[int, ...], str], np.ndarray] = {}

    def __call__(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tag, tuple(shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, dtype=dtype)
        return buf

    def clear(self) -> None:
        """Drop every buffer."""
        self._buffers.clear()


#: The autograd ops' pool.  Conv calls run sequentially within a process
#: (the autograd engine is single-threaded; sweep workers are separate
#: processes).  The forward saves the *unpadded* input (alive in the graph
#: anyway) and the backward re-pads and re-lowers it, so no pooled buffer
#: is retained across timesteps.  The one exception is a
#: :class:`SharedLowering`: its im2col matrix is a fresh allocation, kept
#: for the whole sequence.  The inference runtime runs plans on worker
#: threads, so each ConvKernel has a pool of its own.
_scratch = ScratchPool()


class SharedLowering:
    """One convolution of a frame that repeats at every timestep.

    ``SpikingCNN.forward`` hands one to conv1 at every step of a
    time-invariant sequence.  The first :meth:`Conv2d.forward` keeps the
    im2col matrix ``cols`` and the read-only output ``out``; every later
    step's node returns ``out`` and saves ``cols`` for its backward.  Each
    step keeps its own node, so gradients accumulate per step in the usual
    order, bit-identically to convolving every frame.
    """

    __slots__ = ("cols", "out")

    def __init__(self) -> None:
        self.cols: Optional[np.ndarray] = None
        self.out: Optional[np.ndarray] = None


def _padded_input(x: np.ndarray, padding: int, scratch: ScratchPool) -> np.ndarray:
    """``x`` zero-padded into ``scratch`` (``x`` itself when unpadded).

    Value-identical to ``np.pad(x, ...)`` -- a C-contiguous array with a
    zero border and the input copied into the interior -- without the per
    call allocation.
    """
    if padding == 0:
        return x
    n, c, h, w = x.shape
    xp = scratch("conv_xp", (n, c, h + 2 * padding, w + 2 * padding), x.dtype)
    xp.fill(0)
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def conv_output_shape(h: int, w: int, kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Spatial output size of a square-kernel convolution."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return oh, ow


def _offset_view(a: np.ndarray, i: int, j: int, oh: int, ow: int, stride: int) -> np.ndarray:
    """The ``(..., OH, OW)`` positions that kernel offset ``(i, j)`` reads in ``a``."""
    return a[..., i : i + oh * stride : stride, j : j + ow * stride : stride]


def im2col(xp: np.ndarray, kh: int, kw: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Lower a padded NCHW array into ``out``, a ``(C*KH*KW, N*OH*OW)`` matrix.

    Row ``(c, i, j)`` holds input channel ``c`` seen through kernel offset
    ``(i, j)`` at every output position ``(n, oh, ow)``, so the rows follow
    the weight's own ``(C_out, C, KH, KW)`` layout.  Each kernel offset is
    one strided slice copy whose inner loop runs along an output row.
    ``out`` must be C-contiguous; it is returned.
    """
    n, c, hp, wp = xp.shape
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    rows = out.reshape(c, kh, kw, n, oh, ow)
    channels_first = xp.transpose(1, 0, 2, 3)
    for i in range(kh):
        for j in range(kw):
            rows[:, i, j] = _offset_view(channels_first, i, j, oh, ow, stride)
    return out


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    scratch: ScratchPool,
    cols: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cross-correlate NCHW ``x`` with ``weight`` as ``cols.T @ W.T``, plus ``bias``.

    The forward of every convolution in the repository: the autograd op
    and the inference runtime both call it, so a compiled plan reproduces
    the dense forward bit for bit.  Temporaries come from ``scratch``; the
    returned ``(N, C_out, OH, OW)`` array is a fresh allocation.  The
    im2col matrix goes into ``cols`` when the caller passes one to keep.
    """
    xp = _padded_input(x, padding, scratch)
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    if cols is None:
        cols = scratch("conv_cols", (c_in * kh * kw, n * oh * ow), x.dtype)
    im2col(xp, kh, kw, stride, cols)
    prod = scratch("conv_out", (n * oh * ow, c_out), x.dtype)
    np.matmul(cols.T, weight.reshape(c_out, -1).T, out=prod)
    out = np.empty((n, c_out, oh, ow), dtype=prod.dtype)
    np.copyto(out, prod.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2))
    if bias is not None:
        out += bias[None, :, None, None]
    return out


class Conv2d(Function):
    """Cross-correlation (``stride`` and symmetric zero ``padding``).

    Input ``x``: ``(N, C_in, H, W)``; weight: ``(C_out, C_in, KH, KW)``;
    optional bias ``(C_out,)``.  Output: ``(N, C_out, OH, OW)``.

    With ``W`` the ``(C_out, C_in*KH*KW)`` weight matrix, ``cols`` the
    :func:`im2col` matrix and ``go`` the ``(C_out, N*OH*OW)`` output
    gradient, the weight gradient is ``go @ cols.T`` and the input gradient
    is ``W.T @ go`` scattered back one kernel offset at a time.  The input
    gradient is skipped when the input needs none (the first layer's input
    is the encoded frame).  With a :class:`SharedLowering` (``shared``) the
    op convolves a repeated frame once per sequence.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        padding: int = 0,
        shared: Optional[SharedLowering] = None,
    ) -> np.ndarray:
        if shared is None:
            ctx.save_for_backward(x, None, weight, bias is not None, stride, padding)
            return conv2d_forward(x, weight, bias, stride, padding, _scratch)
        if shared.out is None:
            _, c_in, kh, kw = weight.shape
            oh, ow = conv_output_shape(x.shape[2], x.shape[3], kh, stride, padding)
            shared.cols = np.empty((c_in * kh * kw, x.shape[0] * oh * ow), dtype=x.dtype)
            shared.out = conv2d_forward(x, weight, bias, stride, padding, _scratch, cols=shared.cols)
            shared.out.flags.writeable = False
        ctx.save_for_backward(x, shared.cols, weight, bias is not None, stride, padding)
        return shared.out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x, cols, weight, has_bias, stride, padding = ctx.saved
        c_out, c_in, kh, kw = weight.shape
        go = np.asarray(grad_output)
        n, _, oh, ow = go.shape
        h, w = x.shape[2], x.shape[3]
        cols_shape = (c_in * kh * kw, n * oh * ow)

        go_mat = _scratch("conv_go", (c_out, n * oh * ow), go.dtype)
        np.copyto(go_mat.reshape(c_out, n, oh, ow), go.transpose(1, 0, 2, 3))
        if cols is None:
            xp = _padded_input(x, padding, _scratch)
            cols = im2col(xp, kh, kw, stride, _scratch("conv_cols", cols_shape, x.dtype))
        grad_w = (go_mat @ cols.T).reshape(weight.shape)

        grad_x = None
        if ctx.needs_input_grad[0]:
            grad_cols = _scratch("conv_gcols", cols_shape, go.dtype)
            np.matmul(weight.reshape(c_out, -1).T, go_mat, out=grad_cols)
            grad_xp = _scratch("conv_gxp", (n, c_in, h + 2 * padding, w + 2 * padding), go.dtype)
            grad_xp.fill(0)
            # col2im: one strided slice-add per kernel offset.
            rows = grad_cols.reshape(c_in, kh, kw, n, oh, ow)
            channels_first = grad_xp.transpose(1, 0, 2, 3)
            for i in range(kh):
                for j in range(kw):
                    _offset_view(channels_first, i, j, oh, ow, stride)[...] += rows[:, i, j]
            # Copied out of the pool: the engine holds the returned gradient
            # while later backward calls reuse the buffer.
            grad_x = grad_xp[:, :, padding : padding + h, padding : padding + w].copy()
        grad_b = go.sum(axis=(0, 2, 3)) if has_bias else None
        return grad_x, grad_w, grad_b, None, None, None


class MaxPool2d(Function):
    """Non-overlapping max pooling (kernel == stride), as used in the paper.

    The forward runs over the ``k*k`` phase views of the input -- window
    offset ``(i, j)`` in row-major order, each a strided ``(N, C, OH, OW)``
    view -- taking the running maximum as
    :class:`~repro.runtime.kernels.MaxPoolKernel` does, while a later phase
    takes over the saved index only when strictly greater.  The index is
    therefore the *first* maximum in each window (the ``argmax``
    convention, as in PyTorch), and the backward routes each output
    gradient to that one winner: on binary spike maps, where every firing
    pixel in a window holds the same 1.0, the whole gradient goes to the
    first of the tied maxima.  The index is one uint8 per *output* element.
    Trailing rows/columns that do not fill a window are dropped and receive
    zero gradient.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: int = 2) -> np.ndarray:
        oh, ow = x.shape[2] // kernel, x.shape[3] // kernel
        out = _offset_view(x, 0, 0, oh, ow, kernel).copy()
        idx = np.zeros(out.shape, dtype=np.uint8 if kernel * kernel <= 255 else np.intp)
        greater = np.empty(out.shape, dtype=bool)
        for phase in range(1, kernel * kernel):
            view = _offset_view(x, *divmod(phase, kernel), oh, ow, kernel)
            np.greater(view, out, out=greater)
            idx[greater] = phase
            np.maximum(out, view, out=out)
        ctx.save_for_backward(idx, x.shape, kernel)
        return out

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        idx, x_shape, kernel = ctx.saved
        oh, ow = idx.shape[2], idx.shape[3]
        go = np.asarray(grad_output)
        grad = np.zeros(x_shape, dtype=go.dtype)
        for phase in range(kernel * kernel):
            _offset_view(grad, *divmod(phase, kernel), oh, ow, kernel)[...] = np.where(idx == phase, go, 0)
        return grad, None


class AvgPool2d(Function):
    """Non-overlapping average pooling (kernel == stride)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: int = 2) -> np.ndarray:
        n, c, h, w = x.shape
        oh, ow = h // kernel, w // kernel
        trimmed = x[:, :, : oh * kernel, : ow * kernel]
        windows = trimmed.reshape(n, c, oh, kernel, ow, kernel)
        ctx.save_for_backward(x.shape, kernel)
        return windows.mean(axis=(3, 5))

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x_shape, kernel = ctx.saved
        n, c, h, w = x_shape
        oh, ow = h // kernel, w // kernel
        go = np.asarray(grad_output) / (kernel * kernel)
        grad_trimmed = np.repeat(np.repeat(go, kernel, axis=2), kernel, axis=3)
        if oh * kernel == h and ow * kernel == w:
            return grad_trimmed, None
        grad = np.zeros(x_shape, dtype=grad_trimmed.dtype)
        grad[:, :, : oh * kernel, : ow * kernel] = grad_trimmed
        return grad, None
