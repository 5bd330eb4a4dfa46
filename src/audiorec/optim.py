"""First-order adaptive-moment optimizer shared by both trainers."""

from __future__ import annotations

import numpy as np


class Adam:
    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch = np.empty(0)

    def _buffers(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays shaped like `like`, views of one buffer kept
        across steps and grown to the largest parameter, so a step allocates
        no temporaries."""
        size = like.size
        if self._scratch.size < 2 * size:
            self._scratch = np.empty(2 * size)
        return (
            self._scratch[:size].reshape(like.shape),
            self._scratch[size : 2 * size].reshape(like.shape),
        )

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update params in place. Raises if any parameter becomes non-finite.

        Each operation writes into scratch buffers, in the order and with the
        operands of `m += (1 - b1) * (g - m)`, `v += (1 - b2) * (g * g - v)`,
        `p -= lr * m_hat / (sqrt(v_hat) + eps)`, so the bytes are those of the
        plain expressions."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key in sorted(params):
            g = grads[key]
            m = self._m.setdefault(key, np.zeros_like(params[key]))
            v = self._v.setdefault(key, np.zeros_like(params[key]))
            a, b = self._buffers(m)
            np.subtract(g, m, out=a)
            a *= 1.0 - b1
            m += a
            np.multiply(g, g, out=a)
            a -= v
            a *= 1.0 - b2
            v += a
            np.divide(m, 1.0 - b1**self.t, out=a)  # m_hat
            a *= self.learning_rate
            np.divide(v, 1.0 - b2**self.t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            params[key] -= a
            if not np.all(np.isfinite(params[key])):
                raise RuntimeError(f"parameter {key!r} became non-finite after step {self.t}")
