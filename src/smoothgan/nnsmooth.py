"""Small dense networks with spectral normalization.

A network of k spectrally-normalized linear layers with 1-Lipschitz,
1-smooth activations has a k-Lipschitz gradient; these nets play the
discriminator in the regularized training loop.  Normalization divides by
the exact spectral norm; the input gradient (layer-wise chain rule) and the
parameter gradient (reverse mode, through the input gradient too) are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonSmoothActivation, PreconditionViolated, need_count, refuse_over
from .measures import BoxDomain, _as_batch
from .rng import child_rng


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _sigmoid_d(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1.0 - s)


def _sigmoid_d2(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


# name -> (activation, first derivative, second derivative)
_ACTIVATIONS = {
    "elu": (lambda z: np.where(z > 0, z, np.expm1(z)),
            lambda z: np.where(z > 0, 1.0, np.exp(z)),
            lambda z: np.where(z > 0, 0.0, np.exp(z))),
    "sigmoid": (_sigmoid, _sigmoid_d, _sigmoid_d2),
    "relu": (lambda z: np.maximum(z, 0.0),
             lambda z: (z > 0).astype(float),
             np.zeros_like),
}


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
            raise ConfigError(f"activation must be one of {tuple(_ACTIVATIONS)}")
        if not math.isfinite(self.final_scale):
            raise ConfigError(f"final_scale must be finite, got {self.final_scale}")
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
    """Depth weight layers, uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    More than CELL_CAP parameters raise ProblemTooLarge before any layer is drawn.
    """
    for name, size in (("input_dim", input_dim), ("width", width), ("depth", depth)):
        need_count(size, name, 1, PreconditionViolated)
    # weights and biases of the first layer, the depth - 2 hidden ones and the output one
    n_params = (input_dim + 1 if depth == 1 else
                (input_dim + 1) * width + (depth - 2) * (width + 1) * width + width + 1)
    refuse_over(n_params, "net parameters")
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


def power_iteration(w: np.ndarray, iters: int = 200, seed: int = 0) -> float:
    """Power iteration on W^T W; the estimate ||W u_k|| is a nondecreasing
    lower bound on the top singular value."""
    need_count(iters, "iters", 1, ConfigError)
    u = child_rng(seed, 99).standard_normal(w.shape[1])
    u /= np.linalg.norm(u)
    est = 0.0
    for it in range(iters):
        wu = w @ u
        s = np.linalg.norm(wu)
        if s == 0.0:
            break
        wt_v = w.T @ (wu / s)
        nv = np.linalg.norm(wt_v)
        if nv == 0.0:
            break
        u = wt_v / nv
        new_est = float(np.linalg.norm(w @ u))
        if abs(new_est - est) < 1e-15 and it > 2:
            est = new_est
            break
        est = new_est
    return est


def spectral_normalize(net: MlpNet) -> MlpNet:
    """Divide each weight matrix by its spectral norm (dense SVD, exact to
    rounding), so every post-normalization norm is 1 up to a few ulps.
    Zero layers stay zero; biases are untouched."""
    out = []
    for w, b in net.layers:
        norm = float(np.linalg.norm(w, 2))
        out.append((w / norm if norm > 0 else w.copy(), b.copy()))
    return MlpNet(tuple(out), net.activation, net.final_scale)


def _forward_cache(net: MlpNet, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward collecting hidden pre-activations for the backward pass."""
    act = _ACTIVATIONS[net.activation][0]
    h = x
    pre = []
    for w, b in net.layers[:-1]:
        z = h @ w.T + b
        pre.append(z)
        h = act(z)
    w, b = net.layers[-1]
    out = (h @ w.T + b)[:, 0] * net.final_scale
    return out, pre


def _backward(net: MlpNet, pre: list[np.ndarray], upstream: np.ndarray,
              inject: list[np.ndarray] | None = None) -> tuple[list, list]:
    """Chain rule from a gradient on the last layer's input down to the net's.

    Returns, in layer order, the gradients on each layer's input and on each
    hidden pre-activation; inject[i] joins the gradient on pre[i] in passing.
    """
    deriv = _ACTIVATIONS[net.activation][1]
    g_in, g_pre = [upstream], []
    for i in reversed(range(len(pre))):
        d = g_in[-1] * deriv(pre[i])
        if inject is not None:
            d = d + inject[i]
        g_pre.append(d)
        g_in.append(d @ net.layers[i][0])
    return g_in[::-1], g_pre[::-1]


def mlp_forward(net: MlpNet, x) -> float | np.ndarray:
    pts, single = _as_batch(x, net.input_dim)
    out, _ = _forward_cache(net, pts)
    return float(out[0]) if single else out


def mlp_input_grad(net: MlpNet, x) -> np.ndarray:
    """Exact input gradient by the layer-wise chain rule."""
    pts, single = _as_batch(x, net.input_dim)
    _, pre = _forward_cache(net, pts)
    g_in, _ = _backward(net, pre, np.repeat(net.layers[-1][0], len(pts), axis=0))
    g = g_in[0] * net.final_scale
    return g[0] if single else g


def mlp_param_grad(net: MlpNet, x, out_grad, in_grad) -> np.ndarray:
    """Flattened parameter gradient (flatten_params order) of

        sum_i out_grad[i] * phi(x_i) + <in_grad[i], grad_x phi(x_i)>

    for a batch x.  Reverse mode: the input-gradient sweep, then its adjoint
    (double backpropagation), whose pre-activation gradients join one
    backward pass from the output.
    """
    pts, _ = _as_batch(x, net.input_dim)
    a = np.asarray(out_grad, dtype=float)
    act, deriv, deriv2 = _ACTIVATIONS[net.activation]
    scale, w_last = net.final_scale, net.layers[-1][0]
    _, pre = _forward_cache(net, pts)
    # sweep: rho[i] = d(phi / scale)/d(input of layer i), delta[i] on pre[i]
    rho, delta = _backward(net, pre, np.repeat(w_last, len(pts), axis=0))
    # its adjoint, first layer up, for the in_grad term
    rho_bar = scale * np.asarray(in_grad, dtype=float)
    sweep_w, inject = [], []
    for i, z in enumerate(pre):
        sweep_w.append(delta[i].T @ rho_bar)
        delta_bar = rho_bar @ net.layers[i][0].T
        inject.append(delta_bar * rho[i + 1] * deriv2(z))
        rho_bar = delta_bar * deriv(z)
    _, dz = _backward(net, pre, scale * a[:, None] * w_last, inject)
    hs = [pts] + [act(z) for z in pre]
    parts = []
    for i in range(len(pre)):
        parts += [(dz[i].T @ hs[i] + sweep_w[i]).ravel(), dz[i].sum(axis=0)]
    parts += [scale * (a @ hs[-1]) + rho_bar.sum(axis=0), [scale * a.sum()]]
    return np.concatenate(parts)


def empirical_lipschitz(net: MlpNet, domain: BoxDomain, n_pairs: int, seed: int) -> float:
    """Sampled lower bound on sup |f(x) - f(y)| / ||x - y||."""
    need_count(n_pairs, "n_pairs", 1, PreconditionViolated)
    rng = child_rng(seed, 4)
    x = rng.uniform(domain.lo, domain.hi, size=(n_pairs, domain.dim))
    y = rng.uniform(domain.lo, domain.hi, size=(n_pairs, domain.dim))
    sep = np.linalg.norm(x - y, axis=1)
    ok = sep > 1e-12
    fx, fy = mlp_forward(net, x), mlp_forward(net, y)
    return float(np.max(np.abs(fx - fy)[ok] / sep[ok]))


def empirical_smoothness(net: MlpNet, domain: BoxDomain, n_pairs: int, seed: int) -> float:
    """Sampled lower bound on the gradient's Lipschitz constant."""
    need_count(n_pairs, "n_pairs", 1, PreconditionViolated)
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
    # JSON's NaN and Infinity parse as floats
    if not all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers):
        raise ConfigError("network weights and biases must be finite")
    return MlpNet(layers, activation, final_scale)
