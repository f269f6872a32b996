"""Tape and op contracts: hand examples plus finite-difference checks."""

from __future__ import annotations

import math
import platform
import threading
import weakref

import numpy as np
import pytest

from helpers import fd_grad, gc_disabled, rel_err, run_fresh_python

from tinycil import tensor as T
from tinycil.errors import ShapeError, TapeError

RNG = np.random.default_rng


def _check_grads(build_loss, arrays, tol=1e-4, h=1e-5):
    """build_loss(tensors) -> scalar Tensor; compares tape grads with FD."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        loss = build_loss(*tensors)
    T.backward(tape, loss)

    for i, t in enumerate(tensors):
        def f(i=i):
            ts = [T.Tensor(a) for a in arrays]
            return build_loss(*ts).data.item()
        num = fd_grad(f, arrays[i], h=h)
        assert t.grad is not None
        assert rel_err(t.grad, num) < tol, f"input {i}: {rel_err(t.grad, num)}"


# --- matmul ----------------------------------------------------------------

def test_matmul_identity():
    b = np.arange(6, dtype=float).reshape(2, 3)
    out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(b))
    np.testing.assert_array_equal(out.data, b)


def test_matmul_hand():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[11.0]])


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_matmul_grad_vs_fd():
    rng = RNG(0)
    a = rng.uniform(-1, 1, (3, 4))
    b = rng.uniform(-1, 1, (4, 2))
    _check_grads(lambda x, y: T.sum_(T.matmul(x, y)), [a, b], tol=1e-6)


def test_matmul_batched_grad_vs_fd():
    rng = RNG(1)
    a = rng.uniform(-1, 1, (2, 3, 4))
    b = rng.uniform(-1, 1, (4, 5))
    _check_grads(lambda x, y: T.sum_(T.matmul(x, y)), [a, b], tol=1e-5)


# --- linear ----------------------------------------------------------------

@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)])
def test_linear_grad_vs_fd(shape):
    rng = RNG(2)
    x = rng.uniform(-1, 1, shape)
    w = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, 3)
    weights = rng.uniform(-1, 1, shape[:-1] + (3,))
    _check_grads(lambda x, w, b: T.sum_(T.mul(T.linear(x, w, b), weights)),
                 [x, w, b], tol=1e-6)


def test_linear_is_matmul_plus_bias():
    rng = RNG(3)
    x, w, b = rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    out = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b))
    np.testing.assert_array_equal(out.data, np.matmul(x, w) + b)


def test_untaped_linear_is_bitwise_the_taped_forward_and_records_no_node():
    rng = RNG(3)
    x, w, b = rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    with T.Tape() as tape:
        plain = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b))
        assert len(tape) == 0
        taped = T.linear(T.Tensor(x), T.Tensor(w, requires_grad=True), T.Tensor(b))
    assert len(tape) == 1
    assert plain.data.tobytes() == taped.data.tobytes()


def test_linear_shape_error_names_shapes():
    with pytest.raises(ShapeError) as e:
        T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))),
                 T.Tensor(np.zeros(2)))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def _backward_gemms(tape, loss, monkeypatch):
    """Run backward with np.matmul spied on; the shape of each call's b operand."""
    calls = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        calls.append(args[1].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    T.backward(tape, loss)
    monkeypatch.undo()
    return calls


def _linear_backward_gemms(x, monkeypatch):
    """Backward of sum(linear(x, w, b) * c); returns the np.matmul calls."""
    rng = RNG(4)
    w = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.mul(T.linear(x, w, b), rng.normal(size=(2, 5, 3))))
    calls = _backward_gemms(tape, loss, monkeypatch)
    assert w.grad is not None and b.grad is not None
    return calls


def test_linear_untracked_input_gets_no_gradient(monkeypatch):
    x = T.Tensor(RNG(5).normal(size=(2, 5, 4)))
    assert _linear_backward_gemms(x, monkeypatch) == [(10, 3)]     # dw only
    assert x.grad is None


def test_linear_input_from_an_earlier_tape_gets_no_gradient(monkeypatch):
    # x keeps its old tape after that tape's backward; on a new tape it is a
    # constant, so g @ w.T is never formed
    w0 = T.Tensor(RNG(6).normal(size=(2, 5, 4)), requires_grad=True)
    with T.Tape():
        x = T.mul(w0, 2.0)
    assert x._tape is not None
    assert _linear_backward_gemms(x, monkeypatch) == [(10, 3)]
    assert x.grad is None


def test_linear_tracked_input_gets_gradient(monkeypatch):
    x = T.Tensor(RNG(5).normal(size=(2, 5, 4)), requires_grad=True)
    assert len(_linear_backward_gemms(x, monkeypatch)) == 2
    assert x.grad.shape == (2, 5, 4)


# --- attention -------------------------------------------------------------

def _unfused_attention(qkv, heads, queries):
    """Reshape, split, scaled scores, softmax and merge as separate ops."""
    b, t, d3 = qkv.shape
    d = d3 // 3
    dh = d // heads
    parts = T.transpose(T.reshape(qkv, (b, t, 3, heads, dh)), (2, 0, 3, 1, 4))
    q, k, v = parts[0, :, :, :queries], parts[1], parts[2]
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    out = T.matmul(T.softmax(scores, axis=-1), v)
    return T.reshape(T.transpose(out, (0, 2, 1, 3)), (b, queries, d))


_ATTENTION_CASES = pytest.mark.parametrize(
    "heads,queries", [(h, q) for h in (1, 2) for q in (4, 1)])


@_ATTENTION_CASES
def test_attention_grad_vs_fd(heads, queries):
    rng = RNG(7)
    qkv = rng.uniform(-1, 1, (2, 4, 12))          # t = 4 tokens, d = 4
    weights = rng.uniform(-1, 1, (2, queries, 4))
    _check_grads(lambda a: T.sum_(T.mul(T.attention(a, heads, queries), weights)),
                 [qkv], tol=1e-6)


@_ATTENTION_CASES
def test_attention_matches_unfused_ops(heads, queries):
    rng = RNG(8)
    qkv = rng.normal(size=(3, 4, 12))
    weights = rng.normal(size=(3, queries, 4))
    outs, grads = [], []
    for attend in (T.attention, _unfused_attention):
        x = T.Tensor(qkv, requires_grad=True)
        with T.Tape() as tape:
            out = attend(x, heads, queries)
            loss = T.sum_(T.mul(out, weights))
        T.backward(tape, loss)
        outs.append(out.data)
        grads.append(x.grad)
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(grads[0], grads[1], rtol=1e-12, atol=1e-15)
    if queries < 4:
        assert not grads[0][:, queries:, :4].any()    # unread queries


@pytest.mark.parametrize("shape,heads,queries,match", [
    ((2, 4, 12), 5, 4, r"\(2, 4, 12\)"),
    ((2, 4, 10), 1, 4, r"\(2, 4, 10\)"),
    ((4, 12), 1, 4, r"\(4, 12\)"),
    ((2, 4, 12), 2, 0, "queries"),
    ((2, 4, 12), 2, 5, "queries"),
])
def test_attention_shape_errors(shape, heads, queries, match):
    with pytest.raises(ShapeError, match=match):
        T.attention(T.Tensor(np.zeros(shape)), heads, queries)


# --- softmax ---------------------------------------------------------------

def test_softmax_uniform():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3))


def test_softmax_overflow_safe():
    out = T.softmax(T.Tensor([1000.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)


def test_softmax_direct_value():
    out = T.softmax(T.Tensor([1.0, 2.0]), axis=-1)
    np.testing.assert_allclose(out.data, [0.26894, 0.73106], atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = RNG(2)
    for _ in range(20):
        x = rng.uniform(-1e4, 1e4, (5, 7))
        y = T.softmax(T.Tensor(x), axis=-1).data
        assert (y >= 0).all()
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_grad_vs_fd():
    rng = RNG(3)
    x = rng.uniform(-1, 1, (4, 5))
    w = rng.uniform(-1, 1, (4, 5))
    _check_grads(lambda t: T.sum_(T.mul(T.softmax(t, axis=-1), w)), [x])


# --- layer norm ------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    x = T.Tensor(np.full((2, 6), 3.7))
    out = T.layer_norm(x, T.Tensor(np.ones(6)), T.Tensor(np.zeros(6)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


def test_layer_norm_standardizes():
    rng = RNG(4)
    x = rng.uniform(-1, 1, (3, 16))
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(16)), T.Tensor(np.zeros(16))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_grad_vs_fd():
    rng = RNG(5)
    x = rng.uniform(-1, 1, (3, 8))
    gain = rng.uniform(0.5, 1.5, 8)
    bias = rng.uniform(-0.5, 0.5, 8)
    w = rng.uniform(-1, 1, (3, 8))
    _check_grads(lambda a, g, b: T.sum_(T.mul(T.layer_norm(a, g, b), w)),
                 [x, gain, bias], tol=1e-5)


# --- conv2d ----------------------------------------------------------------

def test_conv2d_one_by_one_kernel_sums_channels():
    rng = RNG(6)
    x = rng.uniform(-1, 1, (1, 3, 4, 4))
    k = np.ones((1, 3, 1, 1))
    out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=1, padding=0)
    np.testing.assert_allclose(out.data[0, 0], x[0].sum(axis=0))


def test_conv2d_full_window_is_dot():
    rng = RNG(7)
    x = rng.uniform(-1, 1, (1, 1, 3, 3))
    k = rng.uniform(-1, 1, (1, 1, 3, 3))
    out = T.conv2d(T.Tensor(x), T.Tensor(k), stride=1, padding=0)
    assert out.shape == (1, 1, 1, 1)
    np.testing.assert_allclose(out.data.ravel(), [(x * k).sum()])


def test_conv2d_empty_output_raises():
    with pytest.raises(ShapeError):
        T.conv2d(T.Tensor(np.zeros((1, 1, 2, 2))), T.Tensor(np.zeros((1, 1, 3, 3))),
                 stride=1, padding=0)


def test_conv2d_grads_vs_fd():
    rng = RNG(8)
    x = rng.uniform(-1, 1, (2, 2, 5, 5))
    k = rng.uniform(-1, 1, (3, 2, 3, 3))
    w = rng.uniform(-1, 1, (2, 3, 2, 2))
    _check_grads(lambda a, b: T.sum_(T.mul(T.conv2d(a, b, stride=2, padding=0), w)),
                 [x, k], tol=1e-5)


def test_conv2d_grads_vs_fd_padded():
    rng = RNG(9)
    x = rng.uniform(-1, 1, (1, 2, 4, 4))
    k = rng.uniform(-1, 1, (2, 2, 3, 3))
    _check_grads(lambda a, b: T.sum_(T.conv2d(a, b, stride=2, padding=1)),
                 [x, k], tol=1e-5)


@pytest.mark.parametrize("x_shape,k_shape,stride", [
    ((2, 2, 5, 5), (2, 2, 3, 3), 1),          # stride 1, padding 1
    ((2, 2, 5, 6), (3, 2, 2, 3), 1),          # non-square kernel, c_out != c
    ((2, 3, 6, 5), (4, 3, 3, 2), 2),
])
def test_conv2d_grads_vs_fd_padding_one(x_shape, k_shape, stride):
    rng = RNG(10)
    x = rng.uniform(-1, 1, x_shape)
    k = rng.uniform(-1, 1, k_shape)
    out_shape = T.conv2d(T.Tensor(x), T.Tensor(k), stride=stride, padding=1).shape
    w = rng.uniform(-1, 1, out_shape)
    _check_grads(lambda a, b: T.sum_(T.mul(T.conv2d(a, b, stride=stride, padding=1), w)),
                 [x, k], tol=1e-5)


def _loop_conv(x, k, g, stride, padding):
    """Direct loops over output positions: the output, dx and dkernel of sum(conv * g)."""
    kh, kw = k.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros(g.shape)
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for oy in range(g.shape[2]):
        for ox in range(g.shape[3]):
            win = (slice(None), slice(None), slice(oy * stride, oy * stride + kh),
                   slice(ox * stride, ox * stride + kw))
            out[:, :, oy, ox] = np.einsum("bcij,ocij->bo", xp[win], k)
            dk += np.einsum("bo,bcij->ocij", g[:, :, oy, ox], xp[win])
            dxp[win] += np.einsum("bo,ocij->bcij", g[:, :, oy, ox], k)
    h, w = x.shape[2:]
    return out, dxp[:, :, padding:padding + h, padding:padding + w], dk


@pytest.mark.parametrize("x_shape,k_shape,stride,padding", [
    ((64, 3, 16, 16), (16, 3, 3, 3), 2, 1),   # the conv stem's two convs
    ((64, 16, 8, 8), (32, 16, 3, 3), 2, 1),
    ((2, 3, 5, 7), (4, 3, 2, 3), 1, 1),
    ((2, 2, 4, 4), (3, 2, 3, 3), 2, 2),
    ((2, 2, 3, 3), (1, 2, 5, 5), 1, 2),       # taps that read only padding
    ((3, 2, 6, 5), (2, 2, 1, 1), 3, 0),
])
def test_conv2d_matches_direct_loops(x_shape, k_shape, stride, padding):
    rng = RNG(11)
    x = T.Tensor(rng.normal(size=x_shape), requires_grad=True)
    k = T.Tensor(rng.normal(size=k_shape), requires_grad=True)
    with T.Tape() as tape:
        out = T.conv2d(x, k, stride=stride, padding=padding)
        g = rng.normal(size=out.shape)
        loss = T.sum_(T.mul(out, g))
    T.backward(tape, loss)
    ref_out, ref_dx, ref_dk = _loop_conv(x.data, k.data, g, stride, padding)
    for got, ref in ((out.data, ref_out), (x.grad, ref_dx), (k.grad, ref_dk)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _conv2d_backward_gemms(x, monkeypatch):
    """Backward of sum(conv2d(x, k) * c); returns the np.matmul calls it makes."""
    rng = RNG(12)
    k = T.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.mul(T.conv2d(x, k, stride=2, padding=1),
                            rng.normal(size=(2, 4, 3, 3))))
    calls = _backward_gemms(tape, loss, monkeypatch)
    assert k.grad is not None
    return calls


def test_conv2d_untracked_input_gets_no_gradient(monkeypatch):
    x = T.Tensor(RNG(13).normal(size=(2, 3, 6, 6)))
    assert _conv2d_backward_gemms(x, monkeypatch) == [(18, 27)]     # dkernel only
    assert x.grad is None


def test_conv2d_input_from_an_earlier_tape_gets_no_gradient(monkeypatch):
    w0 = T.Tensor(RNG(14).normal(size=(2, 3, 6, 6)), requires_grad=True)
    with T.Tape():
        x = T.mul(w0, 2.0)
    assert x._tape is not None
    assert _conv2d_backward_gemms(x, monkeypatch) == [(18, 27)]
    assert x.grad is None


def test_conv2d_tracked_input_gets_gradient(monkeypatch):
    x = T.Tensor(RNG(13).normal(size=(2, 3, 6, 6)), requires_grad=True)
    assert len(_conv2d_backward_gemms(x, monkeypatch)) == 2
    assert x.grad.shape == (2, 3, 6, 6)


# --- backward contracts ------------------------------------------------------

def test_backward_sum_gives_ones():
    x = T.Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(x)
    T.backward(tape, loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_half_sum_of_squares_gives_x():
    x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.mul(T.sum_(T.mul(x, x)), 0.5)
    T.backward(tape, loss)
    np.testing.assert_allclose(x.grad, x.data)


def test_backward_twice_raises():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(x)
    T.backward(tape, loss)
    with pytest.raises(TapeError):
        T.backward(tape, loss)


def test_backward_releases_each_node_as_it_walks():
    with gc_disabled():
        x = T.Tensor(RNG(0).normal(size=(4, 3)), requires_grad=True)
        with T.Tape() as tape:
            h = T.gelu(T.matmul(x, T.Tensor(np.ones((3, 2)))))
            loss = T.sum_(h)
        activation = weakref.ref(h.data)
        del h
        assert len(tape) == 3 and activation() is not None
        T.backward(tape, loss)
        assert len(tape) == 0
        assert activation() is None
        assert x.grad is not None
        with pytest.raises(TapeError):
            T.backward(tape, loss)


def _flipped(a):
    """`2 * a`, with a backward that returns its gradient transposed."""
    return T._record(T.Tensor(a.data * 2.0), (a,), lambda g: (g.T * 2.0,))


def test_backward_rejects_a_gradient_of_another_shape():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(_flipped(x))
    with pytest.raises(TapeError, match=r"^_flipped backward .*\(3, 2\).*\(2, 3\)"):
        T.backward(tape, loss)
    assert x.grad is None


def test_backward_non_scalar_raises():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, 2.0)
    with pytest.raises(TapeError):
        T.backward(tape, y)


def test_backward_unrecorded_loss_raises():
    x = T.Tensor(np.ones(3))  # not tracked
    with T.Tape() as tape:
        loss = T.sum_(x)
    with pytest.raises(TapeError):
        T.backward(tape, loss)


def test_untracked_tensor_never_gets_grad():
    x = T.Tensor(np.ones(3), requires_grad=True)
    c = T.Tensor(np.full(3, 2.0))  # constant
    with T.Tape() as tape:
        loss = T.sum_(T.mul(x, c))
    T.backward(tape, loss)
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, c.data)


def test_tape_is_active_only_in_the_thread_that_opened_it():
    x = T.Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def other_thread():
        seen["tape"] = T.active_tape()
        seen["out"] = T.mul(x, x)
        with T.Tape() as inner:
            seen["inner"] = T.active_tape() is inner

    with T.Tape() as tape:
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert T.active_tape() is tape
    assert seen["tape"] is None and seen["inner"]
    assert seen["out"].tape_id is None and len(tape) == 0
    assert T.active_tape() is None


def test_grads_accumulate_across_uses():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.add(T.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    T.backward(tape, loss)
    np.testing.assert_allclose(x.grad, [5.0])


def test_no_recording_without_tape():
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, 3.0)
    assert y.tape_id is None


# --- elementwise / reductions / shape ops vs FD ------------------------------

def test_elementwise_grads_vs_fd():
    rng = RNG(10)
    a = rng.uniform(0.3, 1.3, (3, 4))
    b = rng.uniform(0.3, 1.3, (3, 4))

    def loss(x, y):
        z = T.div(T.mul(T.add(x, y), T.sub(x, y)), y)
        return T.sum_(T.mul(z, z))

    _check_grads(loss, [a, b])


def test_broadcast_grads_vs_fd():
    rng = RNG(11)
    a = rng.uniform(-1, 1, (3, 1))
    b = rng.uniform(-1, 1, (1, 4))
    _check_grads(lambda x, y: T.sum_(T.mul(T.add(x, y), T.add(x, y))), [a, b])


def test_unary_grads_vs_fd():
    rng = RNG(12)
    x = rng.uniform(0.2, 1.0, (3, 3))

    def loss(t):
        return T.sum_(T.add(T.exp(t), T.add(T.log(t), T.neg(t))))

    _check_grads(loss, [x])


def test_relu_gelu_grads_vs_fd():
    rng = RNG(13)
    x = rng.uniform(-1, 1, (4, 4))
    x[np.abs(x) < 0.1] += 0.2  # keep away from the relu kink
    _check_grads(lambda t: T.sum_(T.relu(t)), [x.copy()])
    _check_grads(lambda t: T.sum_(T.gelu(t)), [x.copy()], tol=1e-5)


def test_gelu_grad_vs_fd_outside_the_unit_interval():
    # |x| > 1 takes `_erf`'s other branch
    x = RNG(13).uniform(-4.0, 4.0, (3, 5))
    _check_grads(lambda t: T.sum_(T.mul(T.gelu(t), t)), [x], tol=1e-5)


def test_untaped_gelu_is_bitwise_the_taped_forward_and_records_no_node():
    x = RNG(14).uniform(-4.0, 4.0, (3, T._ERF_BLOCK // 3 + 5))
    x[0, :len(ERF_EDGES)] = ERF_EDGES
    before = x.copy()
    with T.Tape() as tape, np.errstate(invalid="ignore"):     # -inf * 0
        plain = T.gelu(T.Tensor(x))
        assert len(tape) == 0
        taped = T.gelu(T.Tensor(x, requires_grad=True))
    assert len(tape) == 1
    assert plain.data.tobytes() == taped.data.tobytes()
    assert x.tobytes() == before.tobytes()         # the input is not written


# Edge values of Cephes' erf: signed zeros, the |x| = 1 and x = 8 branch
# points and their neighbours, the MAXLOG underflow edge, overflow in x*x,
# infinities, NaN and subnormals.
ERF_EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
    -np.nextafter(1.0, 2.0), 8.0, -8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0),
    np.sqrt(T._MAXLOG), -np.sqrt(T._MAXLOG), np.nextafter(np.sqrt(T._MAXLOG), 0.0),
    np.nextafter(np.sqrt(T._MAXLOG), 99.0), 26.0, 27.0, 1e10, 1e200, -1e308,
    np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    -1e-310, 1e-300, 0.5, -3.0])


@pytest.mark.parametrize("scale", [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 30.0])
def test_erf_is_scipy_erf_bit_for_bit(scale):
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([RNG(31).standard_normal(150_000) * scale, ERF_EDGES])
    got = T._erf(x.copy())
    want = special.erf(x)
    # bit patterns, so the sign of zero and of NaN count too
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_erf_runs_in_blocks_and_writes_over_its_argument():
    x = RNG(32).uniform(-3.0, 3.0, (3, T._ERF_BLOCK // 2 + 7))
    want = np.array([math.erf(v) for v in x.ravel()]).reshape(x.shape)
    got = T._erf(x)
    assert got is x
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


# In a fresh process: 20 GELU calls after warm-up reuse the heap's pages.
# Without `_M_MMAP_THRESHOLD` each call can map, fault in and unmap its
# activation-sized arrays, about 2,700 faults per call here.
GELU_FAULTS_PROBE = """
import resource
import numpy as np
from tinycil import tensor as T
x = T.Tensor(np.random.default_rng(0).uniform(-1.0, 1.0, (128, 17, 128)))
for _ in range(5):
    T.gelu(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    T.gelu(x)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_gelu_reuses_heap_pages_after_warm_up():
    assert float(run_fresh_python("-c", GELU_FAULTS_PROBE)) < 100


# Whether the fault count above shows a missing threshold depends on the
# interpreter's start-up allocations: `_M_TOP_PAD` freezes glibc's sliding
# threshold wherever they left it, and a heap top that happens to be large
# hides it. This probe does not depend on them. Twelve untouched 31 MiB
# blocks outgrow the 256 MiB pad, so glibc must extend the heap or map a
# block; a block above the program break was mapped.
HEAP_BLOCKS_PROBE = """
import ctypes
import tinycil.tensor
libc = ctypes.CDLL(None)
libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
libc.sbrk.argtypes, libc.sbrk.restype = (ctypes.c_ssize_t,), ctypes.c_void_p
blocks = [libc.malloc(31 << 20) for _ in range(12)]
brk = libc.sbrk(0)
print(sum(block > brk for block in blocks))
for block in blocks:
    libc.free(block)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt options are glibc's")
def test_import_keeps_blocks_under_32_mib_on_the_heap():
    assert run_fresh_python("-c", HEAP_BLOCKS_PROBE).strip() == "0"


BLAS_THREADS_PROBE = """
import ctypes
from numpy.linalg import _umath_linalg
import tinycil.tensor
blas = ctypes.CDLL(_umath_linalg.__file__)
getters = [getattr(blas, name.replace("_set_", "_get_"))
           for name in tinycil.tensor._BLAS_THREAD_SETTERS
           if hasattr(blas, name.replace("_set_", "_get_"))]
print(getters[0]() if getters else "none")
"""


def test_import_pins_openblas_to_one_thread():
    threads = run_fresh_python("-c", BLAS_THREADS_PROBE, OPENBLAS_NUM_THREADS="2").strip()
    if threads == "none":
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert threads == "1"


def test_reduction_grads_vs_fd():
    rng = RNG(14)
    x = rng.uniform(-1, 1, (3, 4, 2))

    def loss(t):
        s = T.sum_(t, axis=1)
        m = T.mean(t, axis=(0, 2))
        return T.add(T.sum_(T.mul(s, s)), T.sum_(T.mul(m, m)))

    _check_grads(loss, [x])


def test_max_reduction_grad_and_ties():
    rng = RNG(15)
    x = rng.uniform(-1, 1, (3, 5))
    _check_grads(lambda t: T.sum_(T.max_(t, axis=1)), [x])

    tied = T.Tensor(np.array([[1.0, 1.0, 0.0]]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.max_(tied, axis=1))
    T.backward(tape, loss)
    np.testing.assert_array_equal(tied.grad, [[1.0, 0.0, 0.0]])


def test_shape_op_grads_vs_fd():
    rng = RNG(16)
    x = rng.uniform(-1, 1, (2, 3, 4))
    w = rng.uniform(-1, 1, (4, 6))

    def loss(t):
        r = T.reshape(t, (4, 6))
        tr = T.transpose(r, (1, 0))
        back = T.transpose(tr, (1, 0))
        return T.sum_(T.mul(back, w))

    _check_grads(loss, [x])


def test_concat_index_grads_vs_fd():
    rng = RNG(17)
    a = rng.uniform(-1, 1, (2, 3))
    b = rng.uniform(-1, 1, (2, 2))

    def loss(x, y):
        c = T.concat([x, y], axis=1)
        s = c[:, 1:4]
        return T.sum_(T.mul(s, s))

    _check_grads(loss, [a, b])


def test_take_ops_grads_vs_fd():
    rng = RNG(18)
    x = rng.uniform(-1, 1, (4, 5))
    rows = np.array([0, 2, 2])
    cols = np.array([[1, 3], [0, 0], [4, 2]])

    def loss(t):
        sub = T.take(t, rows, axis=0)
        picked = T.take_along_axis(sub, cols, axis=1)
        return T.sum_(T.mul(picked, picked))

    _check_grads(loss, [x])


@pytest.mark.parametrize("axis", [1, -1, -2])
def test_take_grads_vs_fd_on_any_axis(axis):
    x = RNG(18).uniform(-1, 1, (3, 4, 5))
    rows = np.array([0, 2, 2])
    _check_grads(lambda t: T.sum_(T.mul(T.take(t, rows, axis=axis),
                                        T.take(t, rows, axis=axis))), [x])


@pytest.mark.parametrize("shape,axes", [((3, 4), (-1, 0)), ((2, 3, 4), (0, -1, 1)),
                                        ((2, 3, 4), (-2, -3, -1))])
def test_transpose_grads_vs_fd_with_negative_axes(shape, axes):
    rng = RNG(16)
    x = rng.uniform(-1, 1, shape)
    w = rng.uniform(-1, 1, x.transpose(axes).shape)
    _check_grads(lambda t: T.sum_(T.mul(T.transpose(t, axes), w)), [x])


def test_l2_normalize_grads_and_value():
    rng = RNG(19)
    x = rng.uniform(0.2, 1.0, (3, 6))
    y = T.l2_normalize(T.Tensor(x), axis=-1).data
    np.testing.assert_allclose((y * y).sum(axis=-1), 1.0, atol=1e-12)
    w = rng.uniform(-1, 1, (3, 6))
    _check_grads(lambda t: T.sum_(T.mul(T.l2_normalize(t, axis=-1), w)), [x])


def test_l2_normalize_zero_row_guarded():
    with pytest.warns(RuntimeWarning, match="1 zero-norm row"):
        y = T.l2_normalize(T.Tensor(np.zeros((1, 4))), axis=-1).data
    assert np.isfinite(y).all()


def test_batch_norm_train_grads_vs_fd():
    rng = RNG(20)
    x = rng.uniform(-1, 1, (3, 2, 4, 4))
    gain = rng.uniform(0.5, 1.5, 2)
    bias = rng.uniform(-0.5, 0.5, 2)
    w = rng.uniform(-1, 1, (3, 2, 4, 4))

    def loss(a, g, b):
        rm = np.zeros(2)
        rv = np.ones(2)
        out = T.batch_norm(a, g, b, rm, rv, training=True)
        return T.sum_(T.mul(out, w))

    _check_grads(loss, [x, gain, bias], tol=1e-4)


def test_batch_norm_eval_grads_vs_fd():
    rng = RNG(21)
    x = rng.uniform(-1, 1, (2, 3, 3, 3))
    gain = rng.uniform(0.5, 1.5, 3)
    bias = rng.uniform(-0.5, 0.5, 3)
    rm = rng.uniform(-0.2, 0.2, 3)
    rv = rng.uniform(0.8, 1.2, 3)

    def loss(a, g, b):
        out = T.batch_norm(a, g, b, rm.copy(), rv.copy(), training=False)
        return T.sum_(T.mul(out, out))

    _check_grads(loss, [x, gain, bias], tol=1e-5)


def test_batch_norm_updates_running_stats():
    rng = RNG(22)
    x = rng.uniform(-1, 1, (4, 2, 3, 3))
    rm = np.zeros(2)
    rv = np.ones(2)
    T.batch_norm(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
                 rm, rv, training=True)
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    np.testing.assert_allclose(rm, 0.1 * mu)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * var)


# --- one node per public op -------------------------------------------------------

def _spy_on_public_ops(monkeypatch) -> list:
    """Wrap every public op of `tinycil.tensor`, as perfbench's tracer does;
    returns the list the wrappers append each entered op's name to."""
    entered = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            entered.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(T).items()):
        if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                and getattr(fn, "__module__", None) == T.__name__
                and name not in ("active_tape", "backward")):
            monkeypatch.setattr(T, name, spy(name, fn))
    return entered


@pytest.mark.parametrize("op,make_args", [
    ("attention", lambda rng: (rng.normal(size=(2, 3, 12)), 2, 3)),
    ("softmax", lambda rng: (rng.normal(size=(2, 3)), -1)),
    ("layer_norm", lambda rng: (rng.normal(size=(2, 3, 4)), np.ones(4), np.zeros(4))),
    ("batch_norm", lambda rng: (rng.normal(size=(2, 3, 4, 4)), np.ones(3), np.zeros(3),
                                np.zeros(3), np.ones(3), True)),
    ("batch_norm", lambda rng: (rng.normal(size=(2, 3, 4, 4)), np.ones(3), np.zeros(3),
                                np.zeros(3), np.ones(3), False)),
], ids=["attention", "softmax", "layer_norm", "batch_norm-train", "batch_norm-eval"])
def test_ops_sharing_a_kernel_record_one_node_and_enter_no_other_op(monkeypatch, op,
                                                                    make_args):
    # perfbench times each public op by name: a shared kernel called through
    # another public op would move time and calls between the per-op rows
    args = make_args(RNG(5))
    args = (T.Tensor(args[0], requires_grad=True), *args[1:])
    entered = _spy_on_public_ops(monkeypatch)
    with T.Tape() as tape:
        out = getattr(T, op)(*args)
    assert entered == [op]
    assert len(tape) == 1 and out.tape_id == 0
