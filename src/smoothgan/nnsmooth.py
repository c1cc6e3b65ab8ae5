"""Small dense networks with spectral normalization.

A network of k spectrally-normalized linear layers with 1-Lipschitz,
1-smooth activations has a k-Lipschitz gradient; these nets play the
discriminator in the regularized training loop, so forward and input
gradient are exact (layer-wise chain rule, analytic activation derivatives).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonSmoothActivation, PreconditionViolated
from .measures import BoxDomain
from .rng import child_rng

_SAFETY = 1.0 + 1e-6   # post-normalization norms stay <= 1 + 1e-6 despite estimate error

_ACTIVATIONS = ("elu", "sigmoid", "relu")


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "elu":
        return np.where(z > 0, z, np.expm1(z))
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "relu":
        return np.maximum(z, 0.0)
    raise ConfigError(f"unknown activation {name!r}")


def _act_deriv(name: str, z: np.ndarray) -> np.ndarray:
    if name == "elu":
        return np.where(z > 0, 1.0, np.exp(z))
    if name == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-z))
        return s * (1.0 - s)
    if name == "relu":
        return (z > 0).astype(float)
    raise ConfigError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class MlpNet:
    """Dense net: hidden layers activated, final layer linear, scalar output.

    layers[i] = (W, b) with W of shape (fan_out, fan_in).  The output is
    multiplied by final_scale.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    activation: str
    final_scale: float = 1.0

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"activation must be one of {_ACTIVATIONS}")
        if not self.layers:
            raise ConfigError("network needs at least one layer")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ConfigError(f"layer {i} has inconsistent shapes")
            if i > 0 and w.shape[1] != self.layers[i - 1][0].shape[0]:
                raise ConfigError(f"layer {i} input dim does not chain")
            w.setflags(write=False)
            b.setflags(write=False)
        if self.layers[-1][0].shape[0] != 1:
            raise ConfigError("output dimension must be 1")

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def depth(self) -> int:
        return len(self.layers)

    def param_count(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def flatten_params(self) -> np.ndarray:
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])

    def with_params(self, flat: np.ndarray) -> "MlpNet":
        out = []
        pos = 0
        for w, b in self.layers:
            nw = flat[pos:pos + w.size].reshape(w.shape).copy()
            pos += w.size
            nb = flat[pos:pos + b.size].copy()
            pos += b.size
            out.append((nw, nb))
        return MlpNet(tuple(out), self.activation, self.final_scale)


def random_mlp(input_dim: int, width: int, depth: int, activation: str, seed: int,
               final_scale: float = 1.0) -> MlpNet:
    """Depth weight layers, uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if min(input_dim, width, depth) < 1:
        raise PreconditionViolated("input_dim, width and depth must be at least 1")
    sizes = [input_dim] + [width] * (depth - 1) + [1]
    layers = []
    for i in range(depth):
        rng = child_rng(seed, 10, i)
        fan_in = sizes[i]
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(sizes[i + 1], fan_in))
        b = rng.uniform(-bound, bound, size=sizes[i + 1])
        layers.append((w, b))
    return MlpNet(tuple(layers), activation, final_scale)


@dataclass(frozen=True)
class PowerIterState:
    u: np.ndarray
    v: np.ndarray
    n_iters: int
    estimate: float


def power_iteration(w: np.ndarray, iters: int, seed: int) -> PowerIterState:
    """Power iteration on W^T W; the estimate ||W u_k|| is a nondecreasing
    lower bound on the top singular value."""
    if iters < 1:
        raise ConfigError("iters must be >= 1")
    if not np.any(w):
        z = np.zeros(w.shape[1])
        z0 = np.zeros(w.shape[0])
        return PowerIterState(z, z0, 0, 0.0)
    rng = child_rng(seed, 99)
    u = rng.standard_normal(w.shape[1])
    u /= np.linalg.norm(u)
    est = 0.0
    v = w @ u
    for it in range(iters):
        wu = w @ u
        s = np.linalg.norm(wu)
        if s == 0.0:
            break
        v = wu / s
        wt_v = w.T @ v
        nv = np.linalg.norm(wt_v)
        if nv == 0.0:
            break
        u = wt_v / nv
        new_est = float(np.linalg.norm(w @ u))
        if abs(new_est - est) < 1e-15 and it > 2:
            est = new_est
            break
        est = new_est
    return PowerIterState(u, v, iters, est)


def power_iteration_specnorm(w: np.ndarray, iters: int = 200, seed: int = 0) -> float:
    return power_iteration(np.asarray(w, dtype=float), iters, seed).estimate


def spectral_normalize(net: MlpNet, iters: int = 200, seed: int = 0) -> MlpNet:
    """Divide each weight matrix by its estimated norm times a safety factor.

    The power-iteration estimate approaches the true norm from below, so the
    (1 + 1e-6) factor keeps the post-normalization norm at or below 1 + 1e-6.
    Zero layers stay zero; biases are untouched.
    """
    out = []
    for i, (w, b) in enumerate(net.layers):
        est = power_iteration_specnorm(w, iters, seed + i)
        out.append((w / (est * _SAFETY) if est > 0 else w.copy(), b.copy()))
    return MlpNet(tuple(out), net.activation, net.final_scale)


def _forward_cache(net: MlpNet, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward collecting hidden pre-activations for the backward pass."""
    h = x
    pre = []
    for w, b in net.layers[:-1]:
        z = h @ w.T + b
        pre.append(z)
        h = _act(net.activation, z)
    w, b = net.layers[-1]
    out = (h @ w.T + b)[:, 0] * net.final_scale
    return out, pre


def mlp_forward(net: MlpNet, x) -> float | np.ndarray:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != net.input_dim:
        raise DimensionMismatch(f"input dim {pts.shape[1]}, net expects {net.input_dim}")
    out, _ = _forward_cache(net, pts)
    return float(out[0]) if single else out


def mlp_input_grad(net: MlpNet, x) -> np.ndarray:
    """Exact input gradient by the layer-wise chain rule."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.shape[1] != net.input_dim:
        raise DimensionMismatch(f"input dim {pts.shape[1]}, net expects {net.input_dim}")
    _, pre = _forward_cache(net, pts)
    g = np.repeat(net.layers[-1][0], len(pts), axis=0)    # (batch, fan_in of last)
    for (w, _b), z in zip(reversed(net.layers[:-1]), reversed(pre)):
        g = (g * _act_deriv(net.activation, z)) @ w
    g = g * net.final_scale
    return g[0] if single else g


def empirical_lipschitz(net: MlpNet, domain: BoxDomain, n_pairs: int, seed: int) -> float:
    """Sampled lower bound on sup |f(x) - f(y)| / ||x - y||."""
    rng = child_rng(seed, 4)
    x = rng.uniform(domain.lo, domain.hi, size=(n_pairs, domain.dim))
    y = rng.uniform(domain.lo, domain.hi, size=(n_pairs, domain.dim))
    sep = np.linalg.norm(x - y, axis=1)
    ok = sep > 1e-12
    fx, fy = mlp_forward(net, x), mlp_forward(net, y)
    return float(np.max(np.abs(fx - fy)[ok] / sep[ok]))


def empirical_smoothness(net: MlpNet, domain: BoxDomain, n_pairs: int, seed: int) -> float:
    """Sampled lower bound on the gradient's Lipschitz constant."""
    if net.activation == "relu":
        raise NonSmoothActivation("relu gradient is discontinuous; smoothness undefined")
    rng = child_rng(seed, 5)
    x = rng.uniform(domain.lo, domain.hi, size=(n_pairs, domain.dim))
    # half local pairs (probe curvature), half global
    h = 10.0 ** rng.uniform(-4, 0, size=n_pairs)
    direc = rng.standard_normal((n_pairs, domain.dim))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    y = np.where((np.arange(n_pairs) % 2 == 0)[:, None],
                 np.clip(x + h[:, None] * direc, domain.lo, domain.hi),
                 rng.uniform(domain.lo, domain.hi, size=(n_pairs, domain.dim)))
    sep = np.linalg.norm(x - y, axis=1)
    ok = sep > 1e-12
    gx, gy = mlp_input_grad(net, x), mlp_input_grad(net, y)
    return float(np.max(np.linalg.norm(gx - gy, axis=1)[ok] / sep[ok]))


# --- JSON serialization ---

def net_to_json(net: MlpNet) -> str:
    payload = {
        "activation": net.activation,
        "final_scale": net.final_scale,
        "layers": [{"shape": list(w.shape), "weights": w.ravel().tolist(), "bias": b.tolist()}
                   for w, b in net.layers],
    }
    return json.dumps(payload)


def net_from_json(text: str) -> MlpNet:
    try:
        payload = json.loads(text)
        layers = tuple((np.array(entry["weights"], dtype=float).reshape(entry["shape"]),
                        np.array(entry["bias"], dtype=float))
                       for entry in payload["layers"])
        activation, final_scale = payload["activation"], float(payload["final_scale"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"malformed network JSON: {exc!r}") from exc
    return MlpNet(layers, activation, final_scale)
