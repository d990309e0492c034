"""Dense tensors with reverse-mode automatic differentiation.

Small tape-based engine over numpy arrays: every operation records its
inputs and a closure that maps the upstream gradient to per-input
gradients. ``backward`` walks the recorded graph in reverse topological
order and releases it as it goes, so each graph is differentiated once.
Inside :func:`inference` no graph is recorded. Every tensor holds
float64: the constructor converts whatever it is given, float32 feature
matrices included.

A forward op that turns finite inputs non-finite raises
``FloatingPointError``. Outside :func:`fp_guard` each op scans its
output for that; inside it, numpy's IEEE 754 overflow, invalid and
divide-by-zero flags raise at the op instead (Goldberg, 1991).
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np


class NumericError(Exception):
    """Raised when a loss, an update or a decode turns non-finite; the message says where."""


@contextmanager
def numeric_failure_names(where: str):
    """Re-raise a non-finite value inside as ``NumericError(f"{where}: {err}")``."""
    try:
        yield
    except (FloatingPointError, NumericError) as err:
        raise NumericError(f"{where}: {err}") from err


# False inside inference(): ops keep no parents or grad_fn
_recording: ContextVar[bool] = ContextVar("ctcfuse_tensor_recording", default=True)


@contextmanager
def inference():
    """Ops inside record no graph: results have no parents, no ``grad_fn``, no gradient.

    A non-finite op output still raises ``FloatingPointError``, by the
    scan in ``Tensor._result`` or, inside :func:`fp_guard`, by numpy's
    flags. Nests, and the previous mode comes back on exit, also after an
    exception.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


# True inside fp_guard(): numpy's flags raise, so ops skip the output scan
_guarded: ContextVar[bool] = ContextVar("ctcfuse_tensor_guarded", default=False)


@contextmanager
def fp_guard():
    """Numpy raises at the op that makes a non-finite value, and ops skip their scan.

    Enters ``np.errstate(over, invalid, divide = "raise", under = "ignore")``.
    Those flags see every event that turns finite inputs non-finite, but
    no flag marks a non-finite input carried along (``inf * w`` is inf), so
    whoever runs ops here checks what enters from outside: ``Model.encode``
    its features; ``load_checkpoint`` and ``Adam.step`` the parameters. An
    ``np.errstate`` nested inside that ignores a flag hides its events.
    Nests, and the caller's errstate and mode come back on exit, also after
    an exception.
    """
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        token = _guarded.set(True)
        try:
            yield
        finally:
            _guarded.reset(token)


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

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] | None = ()  # None once backward released it
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None

    # -- construction -------------------------------------------------

    @staticmethod
    def _result(data: np.ndarray, parents: Sequence["Tensor"], grad_fn) -> "Tensor":
        """Wrap an op's output; a non-finite one raises ``FloatingPointError``.

        Inside :func:`fp_guard` numpy's flags have already raised for it, so
        only outside does this scan ``data``.
        """
        if not _guarded.get() and not np.isfinite(data).all():
            raise FloatingPointError("non-finite value produced by a forward op")
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
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

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def grad_fn(g):
            ga = _unbroadcast(g, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._result(a.data + b.data, (a, b), grad_fn)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def grad_fn(g):
            ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
            gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
            return ga, gb

        return Tensor._result(a.data * b.data, (a, b), grad_fn)

    __rmul__ = __mul__

    # -- shape manipulation ----------------------------------------------

    def reshape(self, *shape: int):
        a = self
        orig = a.shape
        return Tensor._result(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))

    def transpose(self, *axes: int):
        a = self
        return Tensor._result(
            np.ascontiguousarray(a.data.transpose(axes)),
            (a,),
            lambda g: (g.transpose(np.argsort(axes)),),
        )

    # -- reductions --------------------------------------------------------

    def sum(self):
        """Sum of every element, as a 0-d tensor."""
        a = self
        return Tensor._result(
            np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),)
        )

    # -- backward ------------------------------------------------------

    def backward(self) -> None:
        """Populate ``grad`` on every requires_grad tensor reachable from a scalar loss.

        The walk releases the graph as it goes: once a node has passed its
        gradient on, it drops its grad closure (and the forward arrays that
        closure saved) and its parent links, so what only the graph held is
        freed before the walk ends. Tensors the caller holds keep ``data``
        and ``grad``. Each graph is differentiated once: a backward that
        reaches a released node raises ``RuntimeError`` before it writes any
        gradient; build a fresh graph per step instead.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")

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
            if node._parents is None:
                raise RuntimeError("backward already ran on this graph; rebuild it before differentiating again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        # popping walks ``reversed(topo)`` and lets each node go once it is done
        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._grad_fn is None:
                continue
            parent_grads = node._grad_fn(g)
            parents = node._parents
            node._grad_fn = node._parents = None  # released
            for parent, pg in zip(parents, parent_grads):
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for a weight ``w`` [in, out] and bias ``b`` [out], as one op.

    Backward forms the gradients of ``x`` and ``w`` as one 2-D GEMM each over
    ``x``'s flattened leading axes; the bias gradient sums over those axes.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"linear shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    out = np.matmul(x.data, w.data)
    out += b.data

    def grad_fn(g):
        g2 = g.reshape(-1, w.shape[1])
        gx = (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None
        gw = x.data.reshape(-1, w.shape[0]).T @ g2 if w.requires_grad else None
        # one reduction over all leading axes: g2.sum(0) would order the sum differently
        return gx, gw, _unbroadcast(g, b.shape) if b.requires_grad else None

    return Tensor._result(out, (x, w, b), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)

    def grad_fn(g):
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
        return tuple(
            np.take(g, range(offsets[i], offsets[i + 1]), axis=axis) for i in range(len(tensors))
        )

    return Tensor._result(np.concatenate([t.data for t in tensors], axis=axis), tensors, grad_fn)


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(np.float64)  # numpy multiplies float by bool through a casting loop
    return Tensor._result(a.data * mask, (a,), lambda g: (g * mask,))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Log of softmax along ``axis``, stabilized by max subtraction."""
    # the reductions ndarray.max and ndarray.sum run, without their Python layer
    shifted = a.data - np.maximum.reduce(a.data, axis, keepdims=True)
    out_data = shifted - np.log(np.add.reduce(np.exp(shifted), axis, keepdims=True))

    def grad_fn(g):
        return (g - np.exp(out_data) * np.add.reduce(g, axis, keepdims=True),)

    return Tensor._result(out_data, (a,), grad_fn)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, bias: np.ndarray | None) -> Tensor:
    """Multi-head scaled dot-product attention as one op (Vaswani et al., 2017), [B, Lq, d].

    ``q`` is [B, Lq, d]; ``k`` and ``v`` are [Bk, Lk, d], Bk 1 or B. Each head
    of width ``dh = d // heads`` computes ``softmax(q k^T / sqrt(dh) + bias) v``,
    ``bias`` a constant broadcast to [B, heads, Lq, Lk], or None.
    """
    (b, lq, d), (bk, lk, _) = q.shape, k.shape
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    # contiguous head splits (keys [Bk, H, dh, Lk], the others [., H, L, dh]); the scale
    # follows the product and precedes the bias: reordering any of these changes bits
    q4 = np.ascontiguousarray(q.data.reshape(b, lq, heads, dh).transpose(0, 2, 1, 3))
    k4 = np.ascontiguousarray(k.data.reshape(bk, lk, heads, dh).transpose(0, 2, 3, 1))
    v4 = np.ascontiguousarray(v.data.reshape(bk, lk, heads, dh).transpose(0, 2, 1, 3))
    scores = np.matmul(q4, k4) * scale
    if bias is not None:
        scores += bias
    e = np.exp(scores - np.maximum.reduce(scores, -1, keepdims=True))
    weights = e / np.add.reduce(e, -1, keepdims=True)
    out = np.ascontiguousarray(np.matmul(weights, v4).transpose(0, 2, 1, 3)).reshape(b, lq, d)

    def grad_fn(g):
        g4 = g.reshape(b, lq, heads, dh).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if v.requires_grad:
            gv4 = _unbroadcast(np.matmul(np.swapaxes(weights, -1, -2), g4), v4.shape)
            gv = gv4.transpose(0, 2, 1, 3).reshape(bk, lk, d)
        if q.requires_grad or k.requires_grad:
            gw = np.matmul(g4, np.swapaxes(v4, -1, -2))
            gs = weights * (gw - np.add.reduce(gw * weights, -1, keepdims=True)) * scale
            if q.requires_grad:
                gq = np.matmul(gs, np.swapaxes(k4, -1, -2)).transpose(0, 2, 1, 3).reshape(b, lq, d)
            if k.requires_grad:
                gk4 = _unbroadcast(np.matmul(np.swapaxes(q4, -1, -2), gs), k4.shape)
                gk = gk4.transpose(0, 3, 1, 2).reshape(bk, lk, d)
        return gq, gk, gv

    return Tensor._result(out, (q, k, v), grad_fn)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, epsilon: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ValueError(f"gamma/beta must have shape ({d},)")
    # the sums and divisions numpy's mean and var run, without their Python layer
    dev = x.data - np.add.reduce(x.data, -1, keepdims=True) / d
    var = np.add.reduce(dev * dev, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = dev * inv
    out_data = xhat * gamma.data + beta.data

    def grad_fn(g):
        gg = g * gamma.data
        mean_gg = np.add.reduce(gg, -1, keepdims=True) / d
        mean_ggx = np.add.reduce(gg * xhat, -1, keepdims=True) / d
        gx = inv * (gg - mean_gg - xhat * mean_ggx)
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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 2, pad: int = 1) -> Tensor:
    """Batched 2D convolution, x: [B, Cin, H, W], weight: [Cout, Cin, kh, kw]."""
    b, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(f"conv2d channel mismatch: input {cin}, kernel {cin_w}")
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    # im2col through a channels-last padded plane: each kernel offset
    # copies one strided slice, so every copy runs along Cin
    xp = np.zeros((b, hp, wp, cin))
    xp[:, pad : pad + h, pad : pad + w] = x.data.transpose(0, 2, 3, 1)
    windows = np.empty((b, ho, wo, cin, kh, kw))
    for i in range(kh):
        for j in range(kw):
            windows[..., i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols = windows.reshape(b, ho * wo, cin * kh * kw)  # [B, Ho*Wo, Cin*kh*kw]
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = cols @ wmat.T
    out += bias.data
    out_data = out.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2)

    def grad_fn(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(b * ho * wo, cout)
        gw = gb = gx = None
        if weight.requires_grad:
            gw = (gmat.T @ cols.reshape(b * ho * wo, cin * kh * kw)).reshape(weight.shape)
        if bias.requires_grad:
            gb = gmat.sum(axis=0)
        if x.requires_grad:
            # col2im: each kernel offset adds its window values into a
            # channels-last padded plane as one strided slice
            gcols = (gmat @ wmat).reshape(b, ho, wo, cin, kh, kw)
            gxp = np.zeros((b, hp, wp, cin))
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[..., i, j]
            gx = gxp[:, pad : pad + h, pad : pad + w].transpose(0, 3, 1, 2).copy()
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
    :func:`inference` and :func:`fp_guard`. Returns a report with
    per-parameter max relative deviation and the list of failures;
    deviations above tolerance are reported, not raised.
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
        with inference(), fp_guard():
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
_TAG_FOR_KIND = {(dtype.kind, dtype.itemsize): tag for tag, dtype in _DTYPE_TAGS.items()}


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
    """Read a container written by :func:`save_tensors`.

    Each entry is read straight into its own array. Every size the file
    claims is checked against the bytes left in it first, so a truncated or
    inflated container is refused before anything of that size exists. A
    container that repeats an entry name, or holds bytes after its last
    entry, is refused too.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(n: int, what: str, make=bytearray):
            """The next ``n`` bytes, read into ``make(n)`` once the file is known to hold them."""
            nonlocal left
            if n > left:
                raise ValueError(f"truncated tensor container: expected {what}")
            left -= n
            buf = make(n)
            # a zero-size array has no byte view to read into
            if n and fh.readinto(memoryview(buf).cast("B")) != n:
                raise ValueError(f"truncated tensor container: expected {what}")
            return buf

        if take(4, "magic") != _CONTAINER_MAGIC:
            raise ValueError("not a tensor container (bad magic)")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != _CONTAINER_VERSION:
            raise ValueError(f"tensor container version mismatch: file has {version}, expected {_CONTAINER_VERSION}")
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "name length"))
            name = take(name_len, "name").decode("utf-8")
            if name in out:
                raise ValueError(f"tensor container repeats the entry {name!r}")
            tag, ndim = struct.unpack("<BI", take(5, "entry header"))
            if tag not in _DTYPE_TAGS:
                raise ValueError(f"unknown dtype tag {tag} for entry {name!r}")
            shape = struct.unpack(f"<{ndim}q", take(8 * ndim, "shape"))
            if min(shape, default=0) < 0:
                raise ValueError(f"negative dimension in the shape {shape} of entry {name!r}")
            dtype = _DTYPE_TAGS[tag]
            n_bytes = math.prod(shape) * dtype.itemsize  # exact: no int64 wrap-around
            out[name] = take(n_bytes, f"payload of {name!r}", lambda _: np.empty(shape, dtype))
        if left:
            raise ValueError(f"tensor container has {left} bytes after its last entry")
    return out


def glorot(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot init of a matrix ``[in, out]`` or a conv kernel."""
    if len(shape) == 4:  # conv kernel [out_ch, in_ch, kh, kw]
        receptive = shape[2] * shape[3]
        fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
    else:
        fan_in, fan_out = shape
    scale = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-scale, scale, size=shape)


def views(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    """``flat`` cut into consecutive views, one per name in ``shapes`` order, each in its shape."""
    out, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = flat[start : start + size].reshape(shape)
        start += size
    return out


class Parameters(dict):
    """Name -> trainable ``Tensor``, the ``data`` consecutive views of one float64 arena ``flat``.

    Built once from ``arrays`` in dict order; rebinding a ``p.data`` detaches that parameter.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        # the leading empty array makes the join of no arrays an empty arena
        self.flat = np.concatenate([np.empty(0), *arrays.values()], axis=None, dtype=np.float64)
        shapes = {name: np.shape(arr) for name, arr in arrays.items()}
        super().__init__((name, Tensor(view, requires_grad=True))
                         for name, view in views(self.flat, shapes).items())
