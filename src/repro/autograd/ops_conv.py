"""2-D convolution and pooling operations (im2col based).

These are the computational workhorses of the paper's convolutional SNN
(`32C3-MP2-32C3-MP2-256-10`).  Every convolution in the repository -- the
autograd op here and the inference runtime's
:class:`~repro.runtime.kernels.ConvKernel` -- goes through one lowering,
im2col (:meth:`ConvBinding.lower`), which turns it into a matrix product
and keeps per-timestep BPTT affordable in pure NumPy.  It lowers the
whole batch as one tall, row-padded image (:class:`TallLayout`), so each
kernel offset is one long copy per channel rather than one per output
row, into arrays a :class:`ConvBinding` keeps for its geometry.  A
narrow forward product runs as row panels small enough for OpenBLAS's
small-matrix kernel (:data:`SMALL_GEMM_MACS`, :data:`PANEL_ROW_MULTIPLE`).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.function import Context, Function


class ScratchPool:
    """Reusable uninitialised buffers, keyed by ``(tag, shape, dtype)``, and convolution bindings.

    During a T-timestep pass every timestep runs its own convolution (and,
    under BPTT, its backward), and the large temporaries each call needs --
    the tall image, the im2col matrix, the GEMM output (a
    :class:`ConvBinding`, :meth:`conv`), and on the backward side the
    output-gradient matrix, the gradient columns and the tall gradient
    accumulator -- have the same shape at every timestep.  Allocating them
    per call dominated conv overhead, so they come from a pool.  Every
    call fills a buffer before reading it, and any array that outlives a
    call -- the forward output, the returned gradients, anything saved in
    the ctx -- is a fresh allocation or copied out of the pool first.  A
    pool must not be shared by calls that run concurrently.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, Union[np.ndarray, "ConvBinding"]] = {}

    def __call__(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tag, tuple(shape), np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, dtype=dtype)
        return buf

    def conv(
        self, x_shape: Tuple[int, ...], dtype, weight_shape: Tuple[int, ...], stride: int, padding: int
    ) -> "ConvBinding":
        """The :class:`ConvBinding` of one geometry, built on its first call."""
        key = ("conv", x_shape, dtype, weight_shape, stride, padding)
        binding = self._buffers.get(key)
        if binding is None:
            binding = self._buffers[key] = ConvBinding(x_shape, dtype, weight_shape, stride, padding)
        return binding

    def clear(self) -> None:
        """Drop every buffer and binding."""
        self._buffers.clear()


#: The autograd ops' pool.  Conv calls run sequentially within a process
#: (the autograd engine is single-threaded; sweep workers are separate
#: processes).  The forward saves the *unpadded* input (alive in the graph
#: anyway) and the backward lays it out and lowers it again, so no pooled
#: buffer is retained across calls.  The inference runtime runs plans on
#: worker threads, so each ConvKernel has a pool of its own.
_scratch = ScratchPool()


def conv_output_shape(
    h: int, w: int, kernel: Union[int, Sequence[int]], stride: int, padding: int
) -> Tuple[int, int]:
    """Spatial output size of a convolution; ``kernel`` is a side or a ``(KH, KW)`` pair."""
    kh, kw = (kernel, kernel) if np.isscalar(kernel) else kernel
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


class TallLayout(NamedTuple):
    """The tall image of one convolution: its zero-padded batch as one grid per channel.

    Grid rows are ``width = W + 2p`` wide and image ``n`` starts at row
    ``n * pitch``, ``pitch = max(H + p, OH * s)``, both rounded up to the
    stride ``s``, so neighbouring images share their padding rows.  The
    lowered matrix has one column per position of ``output_grid(N)``; the
    ones past ``OH`` or ``OW`` are *junk* (padding between rows and
    images): the forward drops them and the backward zeroes their gradient.
    """

    oh: int
    ow: int
    kh: int
    kw: int
    pitch: int
    width: int
    stride: int
    padding: int

    @classmethod
    def of(
        cls, x_shape: Tuple[int, ...], weight_shape: Tuple[int, ...], stride: int, padding: int
    ) -> "TallLayout":
        """The layout of convolving ``x_shape`` with ``weight_shape``; the one shape check.

        Raises ``ValueError`` naming both shapes unless the input is NCHW
        with the weight's input channels and holds a kernel window.
        """
        if len(x_shape) == 4 and len(weight_shape) == 4 and x_shape[1] == weight_shape[1]:
            kh, kw = weight_shape[2:]
            oh, ow = conv_output_shape(x_shape[2], x_shape[3], (kh, kw), stride, padding)
            if oh > 0 and ow > 0:
                width = -(-(x_shape[3] + 2 * padding) // stride) * stride
                pitch = -(-max(x_shape[2] + padding, oh * stride) // stride) * stride
                return cls(oh, ow, kh, kw, pitch, width, stride, padding)
        raise ValueError(
            f"cannot convolve an input of shape {tuple(x_shape)} with a weight of shape "
            f"{tuple(weight_shape)} (stride {stride}, padding {padding})"
        )

    def output_grid(self, n: int) -> Tuple[int, int, int]:
        """``(N, rows, columns)`` of the lowered matrix's positions, in C order."""
        return n, self.pitch // self.stride, self.width // self.stride

    def grid(self, x_shape: Tuple[int, ...], tag: str, dtype, scratch: ScratchPool) -> np.ndarray:
        """A zeroed ``(C, N * pitch + KH, width)`` tall image; the last junk positions read its ``KH`` slack rows."""
        grid = scratch(tag, (x_shape[1], x_shape[0] * self.pitch + self.kh, self.width), dtype)
        grid.fill(0)
        return grid

    def interior(self, grid: np.ndarray, x_shape: Tuple[int, ...]) -> np.ndarray:
        """The ``(N, C, H, W)`` view of the images inside the tall image ``grid``."""
        n, c, h, w = x_shape
        p = self.padding
        images = grid[:, : n * self.pitch].reshape(c, n, self.pitch, self.width)
        return images[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)


def _offsets(layout: TallLayout, grid: np.ndarray, mat: np.ndarray) -> Iterator[tuple]:
    """``(grid positions, rows of mat)`` per kernel offset ``(i, j)``.

    Both are ``(C, rows, width // s)``: every ``s``-th grid position from
    row ``i``, column ``j`` on, and the lowered matrix's rows ``(c, i, j)``.
    """
    c, _, width = grid.shape
    s = layout.stride
    flat = grid.reshape(c, -1)
    rows = mat.reshape(c, layout.kh, layout.kw, -1, width // s)
    run = rows.shape[3] * s * width
    for i in range(layout.kh):
        for j in range(layout.kw):
            start = i * width + j
            strided = flat[:, start : start + run].reshape(c, -1, s * width)
            yield strided[:, :, :width:s], rows[:, i, j]


def _offset_view(a: np.ndarray, i: int, j: int, oh: int, ow: int, stride: int) -> np.ndarray:
    """The ``(..., OH, OW)`` positions that kernel offset ``(i, j)`` reads in ``a``."""
    return a[..., i : i + oh * stride : stride, j : j + ow * stride : stride]


#: The most multiply-adds (rows x K x C_out) a forward panel holds.  OpenBLAS
#: 0.3.31 multiplies a product of at most 10**6 of them with its SkylakeX
#: small-matrix kernel, which reads both operands where they lie, and packs
#: larger ones first: at K=27 and 8 output columns, 4,629 rows took 4.2 ns
#: per row and 4,630 rows 10.4 ns per row (one thread, 2-vCPU x86-64 host).
SMALL_GEMM_MACS = 10**6

#: Every forward panel but the last holds a multiple of this many rows.
#: OpenBLAS's Haswell kernels round a row by its place in a tile of 24 rows
#: (float32) or 4 rows (float64): on one BLAS thread, splits on those
#: boundaries kept every bit of the whole product and other splits did not.
#: SkylakeX kernels kept every bit at any split and thread count.
PANEL_ROW_MULTIPLE = 48


def _panel_rows(k: int, positions: int, c_out: int) -> int:
    """Rows per forward panel of a ``(positions x k) @ (k x c_out)`` product.

    The most rows a panel of at most :data:`SMALL_GEMM_MACS` holds, rounded
    down to a multiple of :data:`PANEL_ROW_MULTIPLE`.  Products of more than
    8 output channels, or whose rows fit no such panel, stay whole: as
    panels on SkylakeX kernels, the forwards of the full preset's
    16-channel conv2 and the paper preset's 32-channel conv1 and conv2 each
    took 1.15 times as long, and the full preset's conv1 0.98 times.
    """
    rows = SMALL_GEMM_MACS // (k * c_out) // PANEL_ROW_MULTIPLE * PANEL_ROW_MULTIPLE
    return rows if c_out <= 8 and rows else positions


class ConvBinding:
    """The arrays one convolution geometry keeps from call to call.

    Built once per input shape and dtype, weight shape, stride and padding:
    the tall image ``grid``, zeroed when built -- every call copies its
    input into the same ``interior``, so the padding stays zero -- the
    im2col matrix ``cols``, the ``KH*KW`` (grid positions, rows of
    ``cols``) copy pairs of :func:`_offsets`, the GEMM output ``prod``
    with ``valid``, its ``(N, C_out, OH, OW)`` transposed view of the real
    output positions, and the forward's row ``panels``: ``(cols[:, a:b].T,
    prod[a:b])`` view pairs that split ``cols.T @ W.T`` by output position
    (:func:`_panel_rows`).  A call is then a fixed sequence of copies and
    products into these arrays.
    """

    def __init__(
        self, x_shape: Tuple[int, ...], dtype, weight_shape: Tuple[int, ...], stride: int, padding: int
    ) -> None:
        self.layout = layout = TallLayout.of(x_shape, weight_shape, stride, padding)
        n, c = x_shape[:2]
        self.grid = np.zeros((c, n * layout.pitch + layout.kh, layout.width), dtype=dtype)
        self.interior = layout.interior(self.grid, x_shape)
        positions = layout.output_grid(n)
        self.cols = np.empty((c * layout.kh * layout.kw, math.prod(positions)), dtype=dtype)
        self.pairs = tuple(_offsets(layout, self.grid, self.cols))
        c_out = weight_shape[0]
        self.prod = np.empty((self.cols.shape[1], c_out), dtype=dtype)
        self.valid = self.prod.reshape(*positions, c_out)[:, : layout.oh, : layout.ow].transpose(0, 3, 1, 2)
        rows = _panel_rows(*self.cols.shape, c_out)
        self.panels = tuple(
            (self.cols[:, a : a + rows].T, self.prod[a : a + rows]) for a in range(0, self.cols.shape[1], rows)
        )

    def lower(self, x: np.ndarray) -> np.ndarray:
        """im2col: lower NCHW ``x`` into :attr:`cols`, a ``(C*KH*KW, positions)`` matrix.

        Row ``(c, i, j)`` holds channel ``c`` of the tall image seen through
        kernel offset ``(i, j)`` at every position of the layout, junk ones
        included, so the rows follow the weight's own ``(C_out, C, KH, KW)``
        layout.
        """
        self.interior[...] = x
        for positions, rows in self.pairs:
            rows[...] = positions
        return self.cols


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    scratch: ScratchPool,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Cross-correlate NCHW ``x`` with ``weight`` as ``cols.T @ W.T``, plus ``bias``.

    The forward of every convolution in the repository: the autograd op
    and the inference runtime both call it, so a compiled plan reproduces
    the dense forward bit for bit.  Temporaries come from the
    :class:`ConvBinding` that ``scratch`` keeps for this geometry, and the
    product runs panel by panel into its ``prod``; on one BLAS thread the
    panels' rows equal the whole product's byte for byte
    (:data:`PANEL_ROW_MULTIPLE`).  The ``(N, C_out, OH, OW)`` result goes
    into ``out``, or into a fresh array when it is ``None``.
    """
    w_mat = weight.reshape(weight.shape[0], -1).T
    binding = scratch.conv(x.shape, x.dtype, weight.shape, stride, padding)
    binding.lower(x)
    for cols, prod in binding.panels:
        np.matmul(cols, w_mat, out=prod)
    if out is None:
        out = np.empty(binding.valid.shape, dtype=binding.prod.dtype)
    np.copyto(out, binding.valid)
    if bias is not None:
        out += bias[None, :, None, None]
    return out


class Conv2d(Function):
    """Cross-correlation (``stride`` and symmetric zero ``padding``).

    Input ``x``: ``(N, C_in, H, W)``; weight: ``(C_out, C_in, KH, KW)``;
    optional bias ``(C_out,)``.  Output: ``(N, C_out, OH, OW)``.

    With ``W`` the ``(C_out, C_in*KH*KW)`` weight matrix, ``cols`` the
    im2col matrix (:meth:`ConvBinding.lower`) and ``go`` the output
    gradient, zero at the junk positions, the weight gradient is
    ``(cols @ go.T).T`` and the input gradient is ``W.T @ go`` scattered
    back one kernel offset at a time.
    The input gradient is skipped when the input needs none (the first
    layer's input is the encoded frame).
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        ctx.save_for_backward(x, weight, bias is not None, stride, padding)
        return conv2d_forward(x, weight, bias, stride, padding, _scratch)

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        x, weight, has_bias, stride, padding = ctx.saved
        c_out = weight.shape[0]
        go = np.asarray(grad_output)
        binding = _scratch.conv(x.shape, x.dtype, weight.shape, stride, padding)
        layout = binding.layout
        cols = binding.lower(x)

        go_mat = _scratch("conv_go", (c_out, cols.shape[1]), go.dtype)
        go_mat.fill(0)
        valid = go_mat.reshape(c_out, *layout.output_grid(x.shape[0]))[:, :, : layout.oh, : layout.ow]
        valid[...] = go.transpose(1, 0, 2, 3)
        grad_w = (cols @ go_mat.T).T.reshape(weight.shape)

        grad_x = None
        if ctx.needs_input_grad[0]:
            grad_cols = _scratch("conv_gcols", cols.shape, go.dtype)
            np.matmul(weight.reshape(c_out, -1).T, go_mat, out=grad_cols)
            grad_grid = layout.grid(x.shape, "conv_ggrid", go.dtype, _scratch)
            # col2im: one strided add per kernel offset.
            for positions, rows in _offsets(layout, grad_grid, grad_cols):
                positions += rows
            # Copied out of the pool: the engine holds the returned gradient
            # while later backward calls reuse the buffer.
            grad_x = layout.interior(grad_grid, x.shape).copy()
        grad_b = go.sum(axis=(0, 2, 3)) if has_bias else None
        return grad_x, grad_w, grad_b, None, None


def maxpool2d_buffers(x_shape: Tuple[int, ...], kernel: int, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Uninitialised ``(rows, out)`` arrays for :func:`maxpool2d_forward` of an ``x_shape`` input."""
    n, c, h, w = x_shape
    oh, ow = h // kernel, w // kernel
    return np.empty((n, c, oh, ow * kernel), dtype=dtype), np.empty((n, c, oh, ow), dtype=dtype)


def _running_max(views: Sequence[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out`` = the running maximum of ``views``, taken in order."""
    if len(views) == 1:
        np.copyto(out, views[0])
    else:
        np.maximum(views[0], views[1], out=out)
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


def maxpool2d_forward(
    x: np.ndarray, kernel: int, buffers: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> np.ndarray:
    """Non-overlapping max pooling (kernel == stride) of NCHW ``x``.

    Takes the maximum over row pairs first -- the ``k`` rows of each window
    into ``rows``, whose inner loop runs along contiguous image rows --
    then over the ``k`` columns of ``rows`` into ``out``; trailing
    rows/columns that do not fill a window are dropped.  ``buffers`` is the
    ``(rows, out)`` pair of :func:`maxpool2d_buffers` to write into, fresh
    arrays when ``None``; the result is ``out``.  The inference runtime and
    every dense pool that needs no input gradient run it, so compiled and
    dense pooling agree bit for bit.

    The value is the running maximum over the ``k*k`` window offsets in
    row-major order that :class:`MaxPool2d` takes with an index: on spike
    maps byte for byte, and NaN wherever a window holds one.  On other
    inputs only the sign of a zero maximum (a window whose maximum is a tie
    of ``+0.0`` and ``-0.0``) may differ from that order.
    """
    rows, out = buffers if buffers is not None else maxpool2d_buffers(x.shape, kernel, x.dtype)
    oh, ow = out.shape[2], out.shape[3]
    band = x[:, :, : oh * kernel, : ow * kernel]
    _running_max([band[:, :, i::kernel] for i in range(kernel)], rows)
    return _running_max([rows[..., j::kernel] for j in range(kernel)], out)


class MaxPool2d(Function):
    """Non-overlapping max pooling (kernel == stride), as used in the paper.

    When the input needs no gradient (validation, dense no-grad evaluation)
    the forward is :func:`maxpool2d_forward` and nothing is saved.
    Otherwise it takes the running maximum over the ``k*k`` phase views in
    row-major order -- the value :func:`maxpool2d_forward` gives, up to the
    sign of a zero maximum -- while a later phase takes over the saved
    index only when strictly greater.
    The index is therefore the *first* maximum in each window (the
    ``argmax`` convention, as in PyTorch), and the backward routes each
    output gradient to that one winner: on binary spike maps, where every
    firing pixel in a window holds the same 1.0, the whole gradient goes to
    the first of the tied maxima.  The index is one uint8 per *output*
    element.  The backward writes each phase of the input gradient as
    ``go * (idx == phase)`` straight into its strided view, so the other
    positions of a window get ``go * 0``: a signed zero for a finite
    gradient, NaN for an infinite or NaN one (a non-finite output gradient
    spreads NaN over its whole window).  Trailing rows/columns that do not
    fill a window get zero gradient.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel: int = 2) -> np.ndarray:
        if not ctx.needs_input_grad[0]:
            return maxpool2d_forward(x, kernel)
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
        grad = np.empty(x_shape, dtype=go.dtype)
        grad[:, :, oh * kernel :] = 0
        grad[:, :, : oh * kernel, ow * kernel :] = 0
        for phase in range(kernel * kernel):
            np.multiply(go, idx == phase, out=_offset_view(grad, *divmod(phase, kernel), oh, ow, kernel))
        return grad, None
