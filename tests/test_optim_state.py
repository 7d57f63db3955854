"""Adam's state: in-place moment buffers, allocated once per parameter."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.training.optim import Adam


def _params(rng, shapes=((4, 3), (3,))):
    params = [Parameter(rng.standard_normal(s)) for s in shapes]
    for p in params:
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
    return params


def _reference_adam(params, grads, lr, betas=(0.9, 0.999), eps=1e-8, steps=1):
    """Textbook Adam trajectory on copies of the parameters."""
    beta1, beta2 = betas
    datas = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        for i, g in enumerate(grads):
            ms[i] = beta1 * ms[i] + (1 - beta1) * g
            vs[i] = beta2 * vs[i] + (1 - beta2) * g * g
            m_hat = ms[i] / (1 - beta1 ** t)
            v_hat = vs[i] / (1 - beta2 ** t)
            datas[i] = datas[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return datas


class TestAdamInPlace:
    def test_matches_reference_trajectory(self, rng):
        params = _params(rng)
        grads = [p.grad.copy() for p in params]
        reference = _reference_adam([p.data for p in params], grads, lr=0.05, steps=5)
        opt = Adam(params, lr=0.05)
        for _ in range(5):
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
        for p, expected in zip(params, reference):
            np.testing.assert_allclose(p.data, expected, rtol=1e-5, atol=1e-7)

    def test_moment_buffers_allocated_once_and_updated_in_place(self, rng):
        params = _params(rng)
        opt = Adam(params, lr=0.01)
        opt.step()
        m_ids = [id(m) for m in opt._m]
        v_ids = [id(v) for v in opt._v]
        for _ in range(3):
            for p in params:
                p.grad = rng.standard_normal(p.shape).astype(np.float32)
            opt.step()
        assert [id(m) for m in opt._m] == m_ids
        assert [id(v) for v in opt._v] == v_ids

    def test_weight_decay_matches_reference_and_reuses_scratch(self, rng):
        params = _params(rng, shapes=((4, 3),))
        g = params[0].grad.copy()
        decayed = g + 0.1 * params[0].data
        expected = _reference_adam([params[0].data], [decayed], lr=0.05)[0]
        opt = Adam(params, lr=0.05, weight_decay=0.1)
        opt.step()
        np.testing.assert_allclose(params[0].data, expected, rtol=1e-5, atol=1e-7)
        wd_id = id(opt._wd_buf[0])
        params[0].grad = rng.standard_normal((4, 3)).astype(np.float32)
        opt.step()
        assert id(opt._wd_buf[0]) == wd_id

    def test_params_without_grad_get_no_state(self, rng):
        params = _params(rng)
        params[1].grad = None
        opt = Adam(params, lr=0.01)
        opt.step()
        assert opt._m[0] is not None
        assert opt._m[1] is None
