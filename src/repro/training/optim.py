"""The Adam optimizer.

:class:`Adam` keeps its per-parameter moment buffers in index-keyed lists
that are allocated once, on the first step that sees a gradient, and
updated **in place** afterwards, which avoids re-allocating
parameter-sized arrays on every training step — a measurable share of BPTT
step time for the small tensors this engine works with.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam optimizer (Kingma & Ba), the de-facto choice for snnTorch models.

    Moment buffers are allocated once per parameter (on the first step that
    sees a gradient for it) and updated in place on every later step; the
    previous implementation allocated fresh zero buffers per parameter per
    step just to service ``dict.get`` defaults.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        # The checks are written so that NaN fails them.
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not eps > 0:
            raise ValueError("eps must be positive")
        if not weight_decay >= 0:
            raise ValueError("weight_decay must be non-negative")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._buf: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._wd_buf: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def set_lr(self, lr: float) -> None:
        """Update the learning rate (called by LR schedulers).

        Zero is allowed here (cosine annealing reaches exactly zero at the
        end of its schedule); only the initial learning rate must be
        strictly positive.
        """
        if not lr >= 0:  # NaN fails too
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        self.lr = float(lr)

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                # Decayed gradient in its own scratch: `grad` is read twice
                # below (m and v updates) while `buf` is being overwritten.
                wd_buf = self._wd_buf[i]
                if wd_buf is None:
                    wd_buf = self._wd_buf[i] = np.empty_like(p.data)
                np.multiply(p.data, self.weight_decay, out=wd_buf)
                wd_buf += grad
                grad = wd_buf
            m, v = self._m[i], self._v[i]
            if m is None:
                m = self._m[i] = np.zeros_like(p.data)
                v = self._v[i] = np.zeros_like(p.data)
            buf = self._buf[i]
            if buf is None:
                buf = self._buf[i] = np.empty_like(p.data)

            # m = beta1 * m + (1 - beta1) * grad, in place.
            np.multiply(m, self.beta1, out=m)
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            m += buf
            # v = beta2 * v + (1 - beta2) * grad^2, in place.
            np.multiply(v, self.beta2, out=v)
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - self.beta2
            v += buf
            # p -= lr * (m / bias1) / (sqrt(v / bias2) + eps), via one scratch.
            np.divide(v, bias2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            np.divide(m, buf, out=buf)
            buf *= self.lr / bias1
            p.data -= buf
