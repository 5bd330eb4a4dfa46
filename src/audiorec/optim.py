"""What the HGNN and the two towers share: the Adam optimizer, weight
layouts (drawn at init, checked at load), the weight checksum, and the L2
output normalization with its gradient."""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

NORM_FLOOR = 1e-12  # a row with a smaller L2 norm normalizes to the first basis vector

# Every weight of a model as (name, shape, init) in draw order; `init(rng, shape)` draws it.
Layout = list[tuple[str, tuple[int, ...], Callable]]


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """A (fan_out, fan_in) matrix, uniform within the Glorot bound."""
    bound = np.sqrt(6.0 / (shape[1] + shape[0]))  # fan_in + fan_out
    return rng.uniform(-bound, bound, size=shape)


def zeros(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros, drawing nothing."""
    return np.zeros(shape)


def init_weights(layout: Layout, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Every weight of `layout`, drawn in its order."""
    return {name: init(rng, shape) for name, shape, init in layout}


def check_layout(path, layout: Layout, shapes) -> None:
    """Refuse the container `path` unless its arrays, by the header `shapes`
    `read_pack` gives whether it read them or not, are the weights of
    `layout`, each of its shape: a missing, extra or misshaped weight raises
    ValueError naming the file and the array."""
    for name, shape, _ in layout:
        if shapes[name] != shape:  # `read_pack`'s table refuses a missing name
            raise ValueError(
                f"{path}: array {name!r} has shape {list(shapes[name])}, expected {list(shape)}"
            )
    extra = sorted(set(shapes) - {name for name, _, _ in layout})
    if extra:
        raise ValueError(f"{path}: unexpected array {extra[0]!r}, not a weight of this model")


def checksum(weights: dict[str, np.ndarray]) -> str:
    """sha256 over every weight's name and bytes, in name order."""
    h = hashlib.sha256()
    for key in sorted(weights):
        h.update(key.encode())
        h.update(np.ascontiguousarray(weights[key]).tobytes())
    return h.hexdigest()


def l2_normalize(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of `y` scaled to unit L2 norm, their norms, and the mask of
    rows whose norm is below `NORM_FLOOR`: those become the first basis
    vector instead."""
    norms = np.linalg.norm(y, axis=1)
    fallback = norms < NORM_FLOOR
    out = y / np.where(fallback, 1.0, norms)[:, None]
    if fallback.any():
        out[fallback] = np.eye(1, y.shape[1])
    return out, norms, fallback


def l2_normalize_grad(
    out: np.ndarray, norms: np.ndarray, fallback: np.ndarray, d_out: np.ndarray
) -> np.ndarray:
    """d(loss)/d(y) of `out, norms, fallback = l2_normalize(y)`, given
    d(loss)/d(out); a fallback row gets none."""
    d_y = np.zeros_like(out)
    ok = ~fallback
    if np.any(ok):
        o = out[ok]
        inner = np.sum(o * d_out[ok], axis=1, keepdims=True)
        d_y[ok] = (d_out[ok] - o * inner) / norms[ok][:, None]
    return d_y


class Adam:
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch = np.empty(0)

    def _buffer(self, like: np.ndarray) -> np.ndarray:
        """A scratch array shaped like `like` and in its dtype, a view of one
        buffer kept across steps and grown to the largest parameter, so a
        step allocates no temporaries."""
        if self._scratch.size < like.size or self._scratch.dtype != like.dtype:
            self._scratch = np.empty(max(like.size, self._scratch.size), dtype=like.dtype)
        return self._scratch[: like.size].reshape(like.shape)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update params in place, each in its own dtype. Raises if any
        parameter becomes non-finite.

        Consumes `grads`: once `g * g` is formed, each gradient array is
        overwritten with `sqrt(v_hat) + eps`, so a caller must not read it
        afterwards. Each operation writes into the scratch buffer or the
        spent gradient, in the order and with the operands of
        `m += (1 - b1) * (g - m)`, `v += (1 - b2) * (g * g - v)`,
        `p -= lr * m_hat / (sqrt(v_hat) + eps)`, so the bytes are those of the
        plain expressions."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for key in sorted(params):
            g = grads[key]
            if key not in self._m:  # the moments start at zero on a weight's first step
                self._m[key], self._v[key] = np.zeros_like(params[key]), np.zeros_like(params[key])
            m, v = self._m[key], self._v[key]
            a = self._buffer(m)
            np.subtract(g, m, out=a)
            a *= 1.0 - b1
            m += a
            np.multiply(g, g, out=a)
            a -= v
            a *= 1.0 - b2
            v += a
            np.divide(m, 1.0 - b1**self.t, out=a)  # m_hat
            a *= self.learning_rate
            np.divide(v, 1.0 - b2**self.t, out=g)  # v_hat, over the spent gradient
            np.sqrt(g, out=g)
            g += self.EPS
            a /= g
            params[key] -= a
            if not np.all(np.isfinite(params[key])):
                raise RuntimeError(f"parameter {key!r} became non-finite after step {self.t}")
