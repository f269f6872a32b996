"""Dense float64 tensors with a reverse-mode gradient tape.

The op set is deliberately closed: exactly what a micro vision transformer
with patchify/conv stems, a cosine head, and its losses need. At desk scale a
node's Python and small-array overhead costs more than its arithmetic, so
the transformer's hot paths are fused: `linear` is one node per projection
and `attention` one node per block. The unfused ops (`matmul`, `softmax`,
`index`, ...) stay for the head, the losses and the gradient checks.
`conv2d` lowers to K-major im2col columns, [c*kh*kw, b*L]: its kernel
gradient is one 2-D GEMM over the folded batch, and so are the columns of
its input gradient, which a col2im scatters back. `linear` and `conv2d`
decide when they run whether their input is tracked (`_needs_grad`); for an
untracked input, such as the pixels the stems read, the backward forms no
gradient toward it. Arrays are numpy throughout; the tape is a flat list of
nodes, and each node is released as backward consumes it, so a batch's
activations and backward closures die by refcount during the pass and no
tape outlives its batch.
Gradients accumulate additively within a single backward pass; running
backward twice on the same tape raises.

The tape stack is thread-local: a `Tape` opened in one thread is never the
active tape of another, so ops that `model.embed` runs on its worker
threads record nothing and cannot race on the caller's tape.

Importing this module sets glibc's heap top pad and mmap threshold, so the
heap top that one batch frees serves the next batch instead of being
trimmed and faulted in again, and one malloc arena, so that `embed`'s
workers share that heap (see `_M_TOP_PAD`). It also pins numpy's BLAS to one
thread. numpy is the only dependency: `_erf` is scipy's erf, bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import warnings

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ShapeError, TapeError


class _TapeStack(threading.local):
    """Each thread's own stack of open tapes."""

    def __init__(self):
        self.stack: list[Tape] = []


_TAPES = _TapeStack()

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
VAR_EPS = 1e-5          # added to the variance by layer_norm and batch_norm
BN_MOMENTUM = 0.1       # batch_norm's running-statistics update rate
NORM_EPS = 1e-12        # l2_normalize's floor on a row's norm

# mallopt(M_TOP_PAD): bytes glibc keeps above the heap top when it trims, and
# asks for in addition when it grows the heap. 256 MiB holds the freed tape
# of a batch for the next one. Setting M_TRIM_THRESHOLD instead faults far
# more; M_MMAP_THRESHOLD alone still trims. Pages of the pad that are never
# touched take no memory.
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 256 << 20
# mallopt(M_MMAP_THRESHOLD): blocks this large or larger are mapped, faulted
# in and unmapped one by one. Any mallopt call freezes glibc's sliding
# threshold, at 128 KiB in a process that has freed no larger mapping yet;
# 32 MiB (glibc's maximum) keeps every activation array on the heap.
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
# mallopt(M_ARENA_MAX): with 1, threads share the main heap instead of each
# getting an arena of its own, whose pages the top pad does not keep.
_M_ARENA_MAX = -8
# A threaded GEMM's sum order, so the low bits of trained weights, depends on
# OPENBLAS_NUM_THREADS. The OpenBLAS thread setter of numpy's 2.x and 1.x
# wheels, and of a system OpenBLAS:
_BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_",
                        "openblas_set_num_threads64_", "openblas_set_num_threads")


def _keep_freed_heap_top() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return                  # not glibc: keep the C library's behaviour
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_ARENA_MAX, 1)


def _pin_blas_to_one_thread() -> None:
    blas = ctypes.CDLL(_umath_linalg.__file__)    # dlsym searches what it links
    for name in _BLAS_THREAD_SETTERS:   # none found: not OpenBLAS, left as is
        if hasattr(blas, name):
            setter = getattr(blas, name)
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return


_keep_freed_heap_top()
_pin_blas_to_one_thread()


class Tensor:
    """A contiguous float64 array, optionally attached to the active tape."""

    __slots__ = ("data", "grad", "requires_grad", "_tape", "_node_index")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: Tape | None = None
        self._node_index: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def tape_id(self) -> int | None:
        """Index of the node that produced this tensor on its tape, if any."""
        return self._node_index

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all routed through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, key):
        return index(self, key)


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Record of operations; each node is released as backward consumes it."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.stack.pop()
        return False

    def __len__(self) -> int:
        return len(self._nodes)


def active_tape() -> Tape | None:
    """The innermost tape open in the calling thread."""
    stack = _TAPES.stack
    return stack[-1] if stack else None


def _needs_grad(t: Tensor) -> bool:
    """Whether an op recording now must form a gradient toward input t.

    Decided when the op runs: an untracked input, or one left over from an
    earlier tape, is a constant to the active tape.
    """
    tape = active_tape()
    return tape is not None and (t.requires_grad or t._tape is tape)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = active_tape()
    if tape is not None:
        for t in inputs:
            if t.requires_grad or t._tape is tape:
                out._tape, out._node_index = tape, len(tape._nodes)
                tape._nodes.append(_Node(out, inputs, backward_fn))
                break
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate .grad on every tensor the (scalar) loss depends on."""
    if loss.data.size != 1:
        raise TapeError(f"loss must be scalar, got shape {loss.shape}")
    if tape.consumed:
        raise TapeError("tape already consumed by a previous backward pass")
    if loss._tape is not tape:
        raise TapeError("loss was not recorded on this tape")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        node = nodes.pop()
        g_out = node.out.grad
        if g_out is None:
            continue
        grads = node.backward_fn(g_out)
        for inp, g in zip(node.inputs, grads):
            if g is None or not (inp.requires_grad or inp._tape is tape):
                continue
            if g.shape != inp.shape:
                op = node.backward_fn.__qualname__.split(".")[0]   # op.<locals>._bw
                raise TapeError(f"{op} backward returned a gradient of shape "
                                f"{g.shape} for an input of shape {inp.shape}")
            inp.grad = g if inp.grad is None else inp.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise

def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                           _unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape),
                                           _unbroadcast(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = Tensor(a.data * b.data)
    return _record(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.shape),
                                           _unbroadcast(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    out = Tensor(a.data / b.data)

    def _bw(g):
        da = _unbroadcast(g / b.data, a.shape)
        db = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return da, db

    return _record(out, (a, b), _bw)


def neg(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = _coerce(a)
    e = np.exp(a.data)
    out = Tensor(e)
    return _record(out, (a,), lambda g: (g * e,))


def log(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def relu(a) -> Tensor:
    a = _coerce(a)
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


# Cephes' erf and erfc (ndtr.c), which scipy.special.erf runs: x T(x^2)/U(x^2)
# for |x| <= 1; beyond, 1 - erfc(|x|) with x's sign, where erfc is
# exp(-x^2) P(x)/Q(x) below 8, exp(-x^2) R(x)/S(x) from 8, and 0 once
# -x^2 < -MAXLOG. The leading 1.0 of U, Q and S makes `_polevl` Cephes' p1evl.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2
# Elements per pass of `_erf`: its three work arrays (512 KiB each) stay in
# L2. Smaller blocks run faster on one thread but, with a GIL handover per
# ufunc call, do not scale on `embed`'s workers.
_ERF_BLOCK = 1 << 16


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule with one rounding per * and per +, as the C code does."""
    out = x * coef[0]
    for c in coef[1:-1]:
        out += c
        out *= x
    out += coef[-1]
    return out


def _erf_outside_unit(x: np.ndarray) -> np.ndarray:
    """`_erf` where |x| > 1 or x is NaN. The exp is the C library's, as in
    scipy: numpy's SIMD exp differs from it in the last bit."""
    a = np.abs(x)
    z = -a * a
    erfc = np.fromiter(map(math.exp, z.tolist()), np.float64, count=z.size)
    near = a < 8.0
    erfc *= np.where(near, _polevl(a, _ERFC_P), _polevl(a, _ERFC_R))
    erfc /= np.where(near, _polevl(a, _ERFC_Q), _polevl(a, _ERFC_S))
    erfc[z < -_MAXLOG] = 0.0
    out = np.copysign(1.0 - erfc, x)
    out[np.isnan(x)] = np.nan
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """scipy.special.erf, bit for bit, written over `x` (contiguous float64)."""
    flat = x.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _ERF_BLOCK):
            xb = flat[start:start + _ERF_BLOCK]
            z = xb * xb
            inside = z <= 1.0              # |x| <= 1 exactly; NaN is outside
            outside = None if inside.all() else np.flatnonzero(~inside)
            if outside is not None:
                rest = _erf_outside_unit(xb[outside])
            np.multiply(xb, _polevl(z, _ERF_T), out=xb)
            np.divide(xb, _polevl(z, _ERF_U), out=xb)
            if outside is not None:
                xb[outside] = rest
    return x


def gelu(a) -> Tensor:
    """Exact GELU: x * Phi(x)."""
    a = _coerce(a)
    phi = _erf(a.data * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    if not _needs_grad(a):                # no backward reads phi: reuse it
        return Tensor(np.multiply(a.data, phi, out=phi))
    out = Tensor(a.data * phi)

    def _bw(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        return (g * (phi + a.data * pdf),)

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b) -> Tensor:
    """Matrix product with leading batch dims broadcast (numpy semantics)."""
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    def _bw(g):
        da = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        db = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return da, db

    return _record(out, (a, b), _bw)


def linear(x, w, b) -> Tensor:
    """`x @ w + b` as one node: x [..., din], w [din, dout], b [dout].

    The backward folds x's leading dims into one 2-D GEMM for `dw`, and
    forms `dx` only if x was tracked when the op ran (the patchify stem's
    pixels are not).
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim < 2 or w.data.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs x [..., din], w [din, dout] and b [dout], "
                         f"got {x.shape}, {w.shape} and {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner dimensions differ: {x.shape} x {w.shape}")
    y = np.matmul(x.data, w.data)
    y += b.data
    out = Tensor(y)
    want_dx = _needs_grad(x)

    def _bw(g):
        g2 = g.reshape(-1, g.shape[-1])
        dw = np.matmul(x.data.reshape(-1, x.shape[-1]).T, g2)
        dx = np.matmul(g, w.data.T) if want_dx else None
        return dx, dw, g2.sum(axis=0)

    return _record(out, (x, w, b), _bw)


def attention(qkv, heads: int, queries: int) -> Tensor:
    """Softmax attention of the first `queries` tokens over all t tokens.

    `qkv` is [b, t, 3d]: queries, keys and values side by side, each split
    into `heads` heads of d/heads. Scores are scaled by 1/sqrt(d/heads). The
    result is the merged heads, [b, queries, d]. The backward uses the
    softmax identity dS = P∘(dP − rowsum(dP∘P)) (FlashAttention, Dao et al.,
    2022) and writes dq, dk and dv into one [b, t, 3d] gradient.
    """
    qkv = _coerce(qkv)
    if qkv.data.ndim != 3 or heads < 1 or qkv.shape[-1] % (3 * heads):
        raise ShapeError(f"attention needs qkv [b, t, 3d] with d divisible by "
                         f"{heads} heads, got {qkv.shape}")
    b, t, d3 = qkv.shape
    if not 1 <= queries <= t:
        raise ShapeError(f"attention queries must be in [1, {t}], got {queries}")
    d = d3 // 3
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    # strided views, [b, heads, tokens, dh], which numpy hands to BLAS as they
    # are; only k^T is copied, because a transposed view takes another BLAS
    # kernel and moves the scores' low-order bits
    q, k, v = qkv.data.reshape(b, t, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    q = q[:, :, :queries]
    kt = np.ascontiguousarray(k.swapaxes(-1, -2))
    p = _softmax(np.matmul(q, kt) * scale, -1)        # [b, heads, queries, t]
    out = Tensor(np.matmul(p, v).transpose(0, 2, 1, 3).reshape(b, queries, d))

    def _bw(g):
        g = g.reshape(b, queries, heads, dh).transpose(0, 2, 1, 3)
        dp = np.matmul(g, v.swapaxes(-1, -2))
        ds = _softmax_grad(p, dp, -1)
        ds *= scale
        dqkv = np.empty((b, t, 3, heads, dh))
        dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
        dq[:, :, :queries] = np.matmul(ds, k)
        dq[:, :, queries:] = 0.0
        dk[...] = np.matmul(ds.swapaxes(-1, -2), q)
        dv[...] = np.matmul(p.swapaxes(-1, -2), g)
        return (dqkv.reshape(b, t, d3),)

    return _record(out, (qkv,), _bw)


# ---------------------------------------------------------------------------
# reductions

def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis):
    """The gradient g of a reduction over `axis`, broadcast back to `shape`."""
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)


def sum_(a, axis=None) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.sum(axis=axis))
    return _record(out, (a,), lambda g: (
        np.ascontiguousarray(_expand_reduced(g, a.shape, axis)),))


def mean(a, axis=None) -> Tensor:
    a = _coerce(a)
    total = np.add.reduce(a.data, axis)
    count = a.data.size / np.size(total)
    out = Tensor(total / count)
    return _record(out, (a,), lambda g: (
        np.ascontiguousarray(_expand_reduced(g, a.shape, axis)) / count,))


def max_(a, axis=None) -> Tensor:
    """Max reduction; ties send the gradient to the first maximum only."""
    a = _coerce(a)
    out = Tensor(a.data.max(axis=axis))

    def _bw(g):
        mask = np.zeros_like(a.data)
        if axis is None:
            mask.flat[np.argmax(a.data)] = 1.0
        else:
            idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
            np.put_along_axis(mask, idx, 1.0, axis=axis)
        return (mask * _expand_reduced(g, a.shape, axis),)

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# normalization / softmax

def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """The forward of `softmax` and `attention`: exp(x - max), over its sum."""
    y = np.exp(x - x.max(axis=axis, keepdims=True))
    y /= y.sum(axis=axis, keepdims=True)
    return y


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """y∘(g − rowsum(g∘y)): the gradient toward a softmax's input, from its output y."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def softmax(a, axis: int) -> Tensor:
    """Row-stable softmax (max subtraction before exponentials)."""
    a = _coerce(a)
    y = _softmax(a.data, axis)
    return _record(Tensor(y), (a,), lambda g: (_softmax_grad(y, g, axis),))


def _normalize(x: Tensor, gain: Tensor, bias: Tensor, axes, shared: tuple,
               stats):
    """`gain * (x - mu) / sqrt(var + VAR_EPS) + bias` as one node: the kernel
    of `layer_norm` and `batch_norm`. Returns the output, mu and var.

    mu and var are x's statistics over `axes`, kept as unit axes, and the
    backward differentiates through them; fixed `stats` (mu, var) are
    constants, so dx is dxhat * inv. gain and bias vary along the one axis
    of x not in `shared`, and their gradients sum over `shared`.
    """
    gshape = [1 if i in shared else -1 for i in range(x.data.ndim)]
    gain_b, bias_b = gain.data.reshape(gshape), bias.data.reshape(gshape)
    mu, var = (np.add.reduce(x.data, axes, keepdims=True), None) if stats is None else stats
    count = x.data.size // mu.size              # the elements each statistic covers
    if var is None:
        mu /= count
    xhat = x.data - mu
    if var is None:
        var = np.add.reduce(xhat * xhat, axes, keepdims=True) / count
    inv = 1.0 / np.sqrt(var + VAR_EPS)
    xhat *= inv
    out = Tensor(gain_b * xhat + bias_b)

    def _bw(g):
        dgain = (g * xhat).sum(axis=shared)
        dbias = g.sum(axis=shared)
        dxhat = g * gain_b
        if stats is not None:
            return dxhat * inv, dgain, dbias
        dx = inv * (dxhat - np.add.reduce(dxhat, axes, keepdims=True) / count
                    - xhat * (np.add.reduce(dxhat * xhat, axes, keepdims=True) / count))
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), _bw), mu, var


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    return _normalize(x, gain, bias, -1, tuple(range(x.data.ndim - 1)), None)[0]


def batch_norm(x, gain, bias, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel batch norm over a [b, c, h, w] tensor.

    Training mode normalizes with batch statistics and updates the running
    buffers in place from them (biased variance, momentum BN_MOMENTUM). Eval
    mode is a fixed affine map through the running statistics.
    """
    x, gain, bias = _coerce(x), _coerce(gain), _coerce(bias)
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm expects [b,c,h,w], got {x.shape}")
    stats = None if training else (running_mean.reshape(1, -1, 1, 1),
                                   running_var.reshape(1, -1, 1, 1))
    out, mu, var = _normalize(x, gain, bias, (0, 2, 3), (0, 2, 3), stats)
    if training:
        for buf, stat in ((running_mean, mu), (running_var, var)):
            buf *= (1.0 - BN_MOMENTUM)
            buf += BN_MOMENTUM * stat.reshape(-1)
    return out


def l2_normalize(a, axis: int) -> Tensor:
    """Scale rows to unit L2 norm; a norm below NORM_EPS divides by NORM_EPS,
    with one RuntimeWarning that counts those rows."""
    a = _coerce(a)
    norm = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    zero = int((norm < NORM_EPS).sum())
    if zero:
        warnings.warn(f"l2_normalize: {zero} zero-norm row(s), eps-guarded",
                      RuntimeWarning, stacklevel=2)
    scale = np.maximum(norm, NORM_EPS)
    y = a.data / scale
    out = Tensor(y)

    def _bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * dot) / scale,)

    return _record(out, (a,), _bw)


# ---------------------------------------------------------------------------
# convolution

@functools.lru_cache(maxsize=None)
def _taps(k: int, stride: int, padding: int, size: int, out: int) -> tuple:
    """Per kernel offset along one axis: (lo, hi, src). Output positions
    [lo, hi) read the input inside the image, through the slice `src` of the
    unpadded axis; the others read the zero padding. Cached per conv geometry,
    so every caller shares one immutable tuple.
    """
    taps = []
    for i in range(k):
        lo = min(out, max(0, (padding - i + stride - 1) // stride))
        hi = max(lo, min(out, (size - 1 - i + padding) // stride + 1))
        start = lo * stride + i - padding
        taps.append((lo, hi, slice(start, start + (hi - lo - 1) * stride + 1, stride)))
    return tuple(taps)


# Each row of the columns is padded by one cache line (8 float64s). Without
# it, b*L a power of two (batch 256 or 512) puts the rows a multiple of
# 4 KiB apart, the strided per-image blocks the forward GEMM reads all map
# to the same cache sets, and the second stem conv's forward at batch 512
# runs about 1.4x slower (best of 250 calls, one OpenBLAS thread on a
# 2-vCPU Intel Xeon VM).
_COL_ROW_PAD = 8


def _im2col(x: np.ndarray, ytaps: list, xtaps: list, out_h: int,
            out_w: int) -> np.ndarray:
    """K-major columns of x [b, c, h, w]: a [c*kh*kw, b*out_h*out_w] view.

    Row (ci, i, j) holds channel ci at kernel offset (i, j) for every image
    and output position, image-major, and zero where the offset reads the
    padding, so no padded copy of x is made. Both conv gradients are then
    single 2-D GEMMs over the folded batch.
    """
    b, c = x.shape[:2]
    n = b * out_h * out_w
    cols = np.empty((c * len(ytaps) * len(xtaps), n + _COL_ROW_PAD))[:, :n]
    blocks = cols.reshape(c, len(ytaps), len(xtaps), b, out_h, out_w)
    src = x.transpose(1, 0, 2, 3)                                # [c, b, h, w]
    for i, (y0, y1, ys) in enumerate(ytaps):
        for j, (x0, x1, xs) in enumerate(xtaps):
            dst = blocks[:, i, j]
            dst[:, :, :y0] = 0.0
            dst[:, :, y1:] = 0.0
            dst[:, :, y0:y1, :x0] = 0.0
            dst[:, :, y0:y1, x1:] = 0.0
            dst[:, :, y0:y1, x0:x1] = src[:, :, ys, xs]
    return cols


def conv2d(x, kernel, stride: int, padding: int) -> Tensor:
    """2-d cross-correlation of [b,c,h,w] with [c_out,c,kh,kw].

    The backward makes one GEMM for the kernel gradient and, only if x was
    tracked when the op ran, one more plus a col2im for `dx`; the first
    stem conv's pixels are not tracked, so it skips both.
    """
    x, kernel = _coerce(x), _coerce(kernel)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d operands, got {x.shape} and {kernel.shape}")
    b, c, h, w = x.shape
    c_out, c_k, kh, kw = kernel.shape
    if c_k != c:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if kh > h + 2 * padding or kw > w + 2 * padding or out_h < 1 or out_w < 1:
        raise ShapeError(
            f"conv2d output would be empty: input {x.shape}, kernel {kernel.shape}, "
            f"stride {stride}, padding {padding}")
    ytaps = _taps(kh, stride, padding, h, out_h)
    xtaps = _taps(kw, stride, padding, w, out_w)
    k, L = c * kh * kw, out_h * out_w
    cols = _im2col(x.data, ytaps, xtaps, out_h, out_w)           # [k, b*L]
    kflat = kernel.data.reshape(c_out, k)
    # each image's [k, L] block of cols is a strided view BLAS reads in place
    out = Tensor(np.matmul(kflat, cols.reshape(k, b, L).transpose(1, 0, 2))
                 .reshape(b, c_out, out_h, out_w))
    want_dx = _needs_grad(x)

    def _bw(g):
        g_k = g.reshape(b, c_out, L).transpose(1, 0, 2).reshape(c_out, b * L)
        dkernel = np.matmul(g_k, cols.T).reshape(kernel.shape)
        if not want_dx:
            return None, dkernel
        dcols = np.matmul(kflat.T, g_k).reshape(c, kh, kw, b, out_h, out_w)
        dx = np.zeros((c, b, h, w))
        for i, (y0, y1, ys) in enumerate(ytaps):
            for j, (x0, x1, xs) in enumerate(xtaps):
                dx[:, :, ys, xs] += dcols[:, i, j, :, y0:y1, x0:x1]
        return np.ascontiguousarray(dx.transpose(1, 0, 2, 3)), dkernel

    return _record(out, (x, kernel), _bw)


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a, shape) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = _coerce(a)
    out = Tensor(a.data.transpose(axes))
    inv = np.argsort([ax % a.data.ndim for ax in axes])
    return _record(out, (a,), lambda g: (
        np.ascontiguousarray(g.transpose(inv)),))


def concat(tensors, axis: int) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), _bw)


def index(a, key) -> Tensor:
    """Basic (slice/int/ellipsis) indexing; use take* ops for array indices."""
    a = _coerce(a)
    out = Tensor(a.data[key])

    def _bw(g):
        dx = np.zeros_like(a.data)
        dx[key] += g
        return (dx,)

    return _record(out, (a,), _bw)


def take(a, indices, axis: int) -> Tensor:
    """Gather whole slices by a 1-d integer index array."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take expects 1-d indices, got shape {idx.shape}")
    out = Tensor(np.take(a.data, idx, axis=axis))
    axis %= a.data.ndim

    def _bw(g):
        dx = np.zeros_like(a.data)
        np.add.at(dx, (slice(None),) * axis + (idx,), g)
        return (dx,)

    return _record(out, (a,), _bw)


def take_along_axis(a, indices, axis: int) -> Tensor:
    """Elementwise gather along an axis (duplicate indices accumulate)."""
    a = _coerce(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = Tensor(np.take_along_axis(a.data, idx, axis=axis))

    def _bw(g):
        dx = np.zeros_like(a.data)
        grid = list(np.indices(idx.shape))
        grid[axis] = idx
        np.add.at(dx, tuple(grid), g)
        return (dx,)

    return _record(out, (a,), _bw)
