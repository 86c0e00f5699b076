"""Adaptive-moment parameter updates over one flat arena per optimizer.

An :class:`Adam` copies its parameters into four flat buffers (values, grad,
first and second moment) and rebinds each ``TensorParam.values`` and ``.grad``
to a view of its segment. Only this module knows the layout."""

from __future__ import annotations

import numpy as np


BETAS = (0.9, 0.999)    # decay rates of the first and second moments
EPS = 1e-8


class Adam:
    """Steps a fixed parameter list; counts rejected (non-finite) updates.

    A parameter with a non-finite grad is rejected alone: its values,
    moments and step count stay. Every step zeroes every grad."""

    def __init__(self, params, lr: float) -> None:
        self.params = list(params)
        self.lr = lr
        self.rejected = 0
        sizes = [p.values.size for p in self.params]
        self.starts = np.cumsum([0] + sizes[:-1])
        self.segments = [slice(s, s + k) for s, k in zip(self.starts.tolist(), sizes)]
        self.values, self.grad, self.moment1, self.moment2 = np.zeros((4, sum(sizes)))
        for p, seg in zip(self.params, self.segments):
            self.values[seg], self.grad[seg] = p.values.ravel(), p.grad.ravel()
            p.values, p.grad = self.values[seg].reshape(p.shape), self.grad[seg].reshape(p.shape)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def step(self) -> int:
        ok = np.logical_and.reduceat(np.isfinite(self.grad), self.starts)
        for p, stepped in zip(self.params, ok):
            p.step_count += int(stepped)
        if ok.all() and len({p.step_count for p in self.params}) == 1:
            runs = [(slice(None), self.params[0].step_count)]
        else:    # a rejection leaves the counts apart: parameter by parameter
            runs = [(seg, p.step_count)
                    for p, seg, stepped in zip(self.params, self.segments, ok) if stepped]
        b1, b2 = BETAS
        for seg, t in runs:
            # m = b * m + (1 - b) * g, then values -= lr * (m1 / c1) / (sqrt(m2 / c2) + EPS),
            # as in-place passes in that operation order; the grad is scratch
            g, m1, m2 = self.grad[seg], self.moment1[seg], self.moment2[seg]
            tmp = (1.0 - b2) * (g * g)
            m2 *= b2
            m2 += tmp
            g *= 1.0 - b1
            m1 *= b1
            m1 += g
            np.divide(m2, 1.0 - b2 ** t, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            np.divide(m1, 1.0 - b1 ** t, out=g)
            g *= self.lr
            g /= tmp
            self.values[seg] -= g
        self.zero_grad()
        bad = len(ok) - int(ok.sum())
        self.rejected += bad
        return bad


def clip_grad_norm(opt: Adam, max_norm: float) -> float:
    """Scales the optimizer's grads so their global norm is at most
    ``max_norm``; returns the norm before scaling."""
    sq = opt.grad * opt.grad
    total = 0.0
    for seg in opt.segments:    # per-parameter sums, in parameter order
        total += float(sq[seg].sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        opt.grad *= max_norm / (norm + 1e-12)
    return norm
