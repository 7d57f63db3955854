"""Reusable pools of compiled inference plans.

Compiling a network is cheap but not free (kernel construction plus, on
first run, per-shape buffer allocation), and a :class:`CompiledNetwork`
holds *mutable* per-run state — membrane buffers, im2col scratch — so
one plan must never execute two batches concurrently.  The serving layer
therefore checks plans out of a :class:`CompiledNetworkPool`: each worker
gets exclusive use of a plan for the duration of one batch, and warmed
plans (buffers already sized for the serving shape) are reused instead of
recompiled.

Every pooled plan compiles from the *same* model, whose parameter arrays
the kernels reference live — an in-place ``load_state_dict`` on the model
updates every plan in the pool at once.  :meth:`CompiledNetworkPool.update_weights`
wraps that swap in a quiesce barrier: new checkouts block, outstanding
plans finish their batch, the weights are replaced atomically with respect
to batch boundaries, and serving resumes — no batch ever runs on a torn
mixture of old and new weights.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List

import numpy as np

from repro.nn.module import Module
from repro.runtime.engine import CompiledNetwork, compile_network, resolve_quantization


class CompiledNetworkPool:
    """Thread-safe checkout pool of :class:`CompiledNetwork` instances.

    Parameters
    ----------
    model:
        The model every pooled plan is compiled from.  One plan is compiled
        when the pool is built, so a model the runtime cannot lower raises
        :class:`~repro.runtime.engine.RuntimeCompileError` here rather than
        on every batch; further plans are compiled when a checkout finds
        the pool empty.
    max_idle:
        How many idle plans are retained for reuse.  Checkouts beyond this
        still succeed (a fresh plan is compiled); the surplus plan is simply
        dropped on release.  Size this to the serving worker count.
    precision, quantization, input_scale:
        Execution precision for every pooled plan, forwarded verbatim to
        :func:`~repro.runtime.engine.compile_network` — a pool serves one
        precision for its whole lifetime (the serving gateway replaces the
        pool when a model's quantization spec changes).

    Attributes
    ----------
    compiled_count:
        Total plans compiled over the pool's lifetime, the one compiled at
        construction included — a serving loop with a correctly sized pool
        compiles at most ``workers`` plans ever.
    """

    def __init__(
        self,
        model: Module,
        max_idle: int = 4,
        precision: str = "fp32",
        quantization=None,
        input_scale: float = 1.0,
    ) -> None:
        if max_idle < 1:
            raise ValueError(f"max_idle must be at least 1, got {max_idle}")
        self.model = model
        self.max_idle = int(max_idle)
        # Resolve eagerly so a bad precision/quantization pairing fails at
        # pool construction, not on the first checkout.
        self.quantization = resolve_quantization(precision, quantization)
        self.precision = precision
        self.input_scale = float(input_scale)
        self.compiled_count = 0
        self._cv = threading.Condition()
        self._checked_out = 0
        self._updating = False
        self._idle: List[CompiledNetwork] = [self._compile()]

    @property
    def weight_bits(self):
        """Weight precision in bits for quantized pools, ``None`` otherwise."""
        return self.quantization.weight_bits if self.quantization is not None else None

    @property
    def idle_count(self) -> int:
        """Number of warmed plans currently waiting for a checkout."""
        with self._cv:
            return len(self._idle)

    @contextmanager
    def acquire(self) -> Iterator[CompiledNetwork]:
        """Check out a plan for exclusive use; returns it to the pool after.

        The plan's own :meth:`CompiledNetwork.run` resets membrane state at
        the start of every call, so a reused plan carries no residue from
        the previous batch.  Checkouts block while a weight swap
        (:meth:`update_weights`) is in progress.
        """
        with self._cv:
            while self._updating:
                self._cv.wait()
            plan = self._idle.pop() if self._idle else None
            self._checked_out += 1
        if plan is None:
            plan = self._compile()
        try:
            yield plan
        finally:
            with self._cv:
                self._checked_out -= 1
                if len(self._idle) < self.max_idle:
                    self._idle.append(plan)
                self._cv.notify_all()

    def _compile(self) -> CompiledNetwork:
        """Compile one more plan of the pooled model and count it."""
        plan = compile_network(
            self.model,
            precision=self.precision,
            quantization=self.quantization,
            input_scale=self.input_scale,
        )
        with self._cv:
            self.compiled_count += 1
        return plan

    def update_weights(self, state: Dict[str, np.ndarray]) -> None:
        """Swap the pooled model's weights in place, between batches.

        Blocks new checkouts, waits for every outstanding plan to be
        returned, then applies ``model.load_state_dict(state)``.  Because
        all pooled plans reference the model's parameter arrays live (and
        refresh any layout snapshots in ``Kernel.prepare`` at the start of
        each run), every plan serves the new weights from its next batch
        onward — the hot-reload primitive behind
        :meth:`repro.serve.gateway.ServeGateway` republish pickup.

        Raises whatever :meth:`~repro.nn.module.Module.load_state_dict`
        raises on a mismatched state dict (the pool is left serving the old
        weights, checkouts unblocked).
        """
        with self._cv:
            while self._updating:
                self._cv.wait()
            self._updating = True
            try:
                while self._checked_out > 0:
                    self._cv.wait()
                self.model.load_state_dict(state)
            finally:
                self._updating = False
                self._cv.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledNetworkPool(idle={self.idle_count}, max_idle={self.max_idle}, "
            f"compiled={self.compiled_count})"
        )
