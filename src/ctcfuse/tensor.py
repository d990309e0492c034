"""Dense tensors with reverse-mode automatic differentiation.

Small tape-based engine over numpy arrays: every operation records its
inputs and a closure that maps the upstream gradient to per-input
gradients. ``backward`` walks the recorded graph in reverse topological
order. Inside :func:`inference` no graph is recorded. Float64 is the
default precision; float32 arrays are accepted and kept as-is.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)


class NumericError(Exception):
    """Raised when a loss, an update or a decode turns non-finite; the message says where."""


# False inside inference(): ops keep no parents or grad_fn
_recording: ContextVar[bool] = ContextVar("ctcfuse_tensor_recording", default=True)


@contextmanager
def inference():
    """Ops inside record no graph: results have no parents, no ``grad_fn``, no gradient.

    Every op still checks its output for non-finite values. Nests, and the
    previous mode comes back on exit, also after an exception.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _as_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    arr = np.asarray(data)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """N-dimensional array node in a dynamically recorded compute graph.

    Gradients accumulate additively across every use of a tensor within
    one backward pass and across backward passes on separate graphs;
    zeroing is the optimizer's job. Tensors not reachable from a loss
    keep ``grad=None``, which readers treat as zero.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None
        self._done = False

    # -- construction -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], grad_fn) -> "Tensor":
        if not np.isfinite(data).all():
            raise FloatingPointError("non-finite value produced by a forward op")
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._done = False
        if _recording.get() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._grad_fn = None
        return out

    # -- basic properties ----------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._result(a.data + b.data, (a, b), grad_fn)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._result(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            gb = _unbroadcast(-g, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._result(a.data - b.data, (a, b), grad_fn)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def grad_fn(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._result(a.data * b.data, (a, b), grad_fn)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def grad_fn(g):
            ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._result(a.data / b.data, (a, b), grad_fn)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        a = self
        out_data = a.data[key]
        if np.isscalar(out_data) or out_data.ndim == 0:
            out_data = np.asarray(out_data)

        def grad_fn(g):
            ga = np.zeros_like(a.data)
            np.add.at(ga, key, g)
            return (ga,)

        return Tensor._result(out_data.copy(), (a,), grad_fn)

    # -- shape manipulation ----------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.shape
        return Tensor._result(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = tuple(np.argsort(axes))
        return Tensor._result(
            np.ascontiguousarray(a.data.transpose(axes)), (a,), lambda g: (g.transpose(inv),)
        )

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._result(np.asarray(out), (a,), grad_fn)

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        count = a.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])
        return a.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # -- backward ------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from a scalar loss.

        A second backward through the same graph is an error; build a
        fresh graph per step instead.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if self._done:
            raise RuntimeError("backward already ran on this graph; rebuild it before differentiating again")
        self._done = True

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._grad_fn is None:
                continue
            parent_grads = node._grad_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if pg.shape != parent.shape:
                    raise AssertionError(
                        f"backward produced grad shape {pg.shape} for tensor shape {parent.shape}"
                    )
                key = id(parent)
                if key in flowing:
                    flowing[key] = flowing[key] + pg
                else:
                    flowing[key] = pg


# ---------------------------------------------------------------------------
# free functions
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batch broadcasting over leading dims."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return Tensor._result(np.matmul(a.data, b.data), (a, b), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(tensors))
        )

    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tensors, grad_fn)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return Tensor._result(out_data, (a,), lambda g: (g * out_data,))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)  # non-finite output is caught by the result check
    return Tensor._result(out, (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return Tensor._result(a.data * mask, (a,), lambda g: (g * mask,))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Log of softmax along ``axis``, stabilized by max subtraction."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out_data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def grad_fn(g):
        return (g - np.exp(out_data) * g.sum(axis=axis, keepdims=True),)

    return Tensor._result(out_data, (a,), grad_fn)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._result(out_data, (a,), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"gamma/beta must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = (x.data - mu) * inv
    out_data = xhat * gamma.data + beta.data

    def grad_fn(g):
        gg = g * gamma.data
        gx = inv * (gg - gg.mean(axis=-1, keepdims=True) - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        lead = tuple(range(g.ndim - 1))
        return gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)

    return Tensor._result(out_data, (x, gamma, beta), grad_fn)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup into ``table``; repeated ids accumulate gradient additively."""
    ids = np.asarray(ids, dtype=np.int64)
    vocab = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise IndexError(f"embedding id {bad} out of range [0, {vocab})")

    def grad_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (gt,)

    return Tensor._result(table.data[ids], (table,), grad_fn)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, training: bool) -> Tensor:
    """Inverted dropout with an explicitly threaded generator; identity in eval mode."""
    if not training or rate <= 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode needs a generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return Tensor._result(x.data * mask, (x,), lambda g: (g * mask,))


# -- strided 2D convolution -------------------------------------------------

_COL2IM_CACHE: dict[tuple, np.ndarray] = {}


def _window_index(h: int, w: int, kh: int, kw: int, stride: int, pad: int):
    """Flat indices of each im2col column into the padded input plane."""
    key = (h, w, kh, kw, stride, pad)
    cached = _COL2IM_CACHE.get(key)
    if cached is not None:
        return cached
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    r0 = np.arange(ho)[:, None, None, None] * stride + np.arange(kh)[None, None, :, None]
    c0 = np.arange(wo)[None, :, None, None] * stride + np.arange(kw)[None, None, None, :]
    idx = (r0 * wp + c0).reshape(ho * wo, kh * kw)
    _COL2IM_CACHE[key] = idx
    return idx


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """Batched 2D convolution, x: [B, Cin, H, W], weight: [Cout, Cin, kh, kw]."""
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {cin}, kernel {cin_w}")
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    xp = np.zeros((b, cin, hp, wp), dtype=x.data.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x.data
    idx = _window_index(h, w, kh, kw, stride, pad)
    # cols: [B, Ho*Wo, Cin*kh*kw]
    cols = xp.reshape(b, cin, hp * wp)[:, :, idx].transpose(0, 2, 1, 3).reshape(b, ho * wo, cin * kh * kw)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = cols @ wmat.T + bias.data
    out_data = out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)

    def grad_fn(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(b * ho * wo, cout)
        gw = gb = gx = None
        if weight.requires_grad:
            gw = (gmat.T @ cols.reshape(b * ho * wo, cin * kh * kw)).reshape(weight.shape)
        if bias.requires_grad:
            gb = gmat.sum(axis=0)
        if x.requires_grad:
            # col2im: each kernel offset adds its window values into the
            # padded plane as one strided slice
            gcols = (gmat @ wmat).reshape(b, ho, wo, cin, kh, kw).transpose(0, 3, 4, 5, 1, 2)
            gxp = np.zeros((b, cin, hp, wp), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
            gx = np.ascontiguousarray(gxp[:, :, pad : pad + h, pad : pad + w])
        return gx, gw, gb

    return Tensor._result(np.ascontiguousarray(out_data), (x, weight, bias), grad_fn)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    step: float = 1e-6,
    tolerance: float = 1e-5,
) -> dict:
    """Compare analytic gradients of ``f()`` against central finite differences.

    ``f`` must rebuild the graph from the current ``params`` data on each
    call and be deterministic; the perturbed calls run inside
    :func:`inference`. Returns a report with per-parameter max
    relative deviation and the list of failures; deviations above
    tolerance are reported, not raised.
    """
    for p in params.values():
        p.grad = None
    loss = f()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    deviations: dict[str, float] = {}
    failures: list[str] = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        # the perturbed losses need values only, so they record no graph
        with inference():
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                up = f().item()
                flat[i] = keep - step
                down = f().item()
                flat[i] = keep
                num[i] = (up - down) / (2.0 * step)
        ana = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), 1e-6)
        rel = float(np.max(np.abs(ana - num) / denom)) if flat.size else 0.0
        deviations[name] = rel
        if rel > tolerance:
            failures.append(name)

    return {
        "deviations": deviations,
        "failures": failures,
        "max_deviation": max(deviations.values()) if deviations else 0.0,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# named-tensor container serialization
# ---------------------------------------------------------------------------

_CONTAINER_MAGIC = b"TCNT"
_CONTAINER_VERSION = 1
_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8")}
_TAG_FOR_KIND = {("f", 4): 1, ("f", 8): 2, ("i", 8): 3}


def save_tensors(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named arrays to a flat little-endian binary container.

    Entries are sorted by name so identical contents produce identical
    bytes regardless of dict order.
    """
    with open(path, "wb") as fh:
        fh.write(_CONTAINER_MAGIC)
        fh.write(struct.pack("<II", _CONTAINER_VERSION, len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            tag = _TAG_FOR_KIND.get((arr.dtype.kind, arr.dtype.itemsize))
            if tag is None:
                raise ValueError(f"unsupported dtype {arr.dtype} for entry {name!r}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<BI", tag, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag]).tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_tensors`."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise ValueError(f"truncated tensor container: expected {what}")
        piece = blob[offset : offset + n]
        offset += n
        return piece

    offset = 0
    if take(4, "magic") != _CONTAINER_MAGIC:
        raise ValueError("not a tensor container (bad magic)")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != _CONTAINER_VERSION:
        raise ValueError(f"tensor container version mismatch: file has {version}, expected {_CONTAINER_VERSION}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = take(name_len, "name").decode("utf-8")
        tag, ndim = struct.unpack("<BI", take(5, "entry header"))
        if tag not in _DTYPE_TAGS:
            raise ValueError(f"unknown dtype tag {tag} for entry {name!r}")
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim, "shape"))
        if min(shape, default=0) < 0:
            raise ValueError(f"negative dimension in the shape {shape} of entry {name!r}")
        dtype = _DTYPE_TAGS[tag]
        n_bytes = math.prod(shape) * dtype.itemsize  # exact: no int64 wrap-around
        payload = take(n_bytes, f"payload of {name!r}")
        out[name] = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return out


def parameter(shape: Iterable[int], rng: np.random.Generator, scale: float | None = None,
              dtype=np.float64) -> Tensor:
    """Trainable tensor with uniform Glorot-style init (or explicit scale)."""
    shape = tuple(shape)
    if scale is None:
        if len(shape) == 4:  # conv kernel [out_ch, in_ch, kh, kw]
            receptive = shape[2] * shape[3]
            fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
        elif len(shape) >= 2:
            fan_in, fan_out = shape[0], shape[-1]
        else:
            fan_in = fan_out = shape[0]
        scale = float(np.sqrt(6.0 / (fan_in + fan_out)))
    data = rng.uniform(-scale, scale, size=shape).astype(dtype)
    return Tensor(data, requires_grad=True)
