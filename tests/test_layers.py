import numpy as np
import pytest

from hsg import autodiff as ad
from hsg.autodiff import Tape, Tensor, backward, grad_check
from hsg.layers import (AttentionHead, Embedding, Linear, LstmCell, lstm_layer,
                        uniform_init)

from oracles import lstm_layer_oracle


def make_cell(input_dim=4, hidden_dim=3, seed=0):
    return LstmCell(input_dim, hidden_dim, np.random.default_rng(seed))


def test_lstm_zero_weights_zero_state():
    cell = make_cell()
    for p in (cell.w_ih, cell.w_hh, cell.b):
        p.data[...] = 0.0
    h, c = cell.step(Tensor([[1.0, -2.0, 0.5, 3.0]]), Tensor(np.zeros((1, 3))),
                     Tensor(np.zeros((1, 3))))
    assert np.all(h.data == 0.0) and np.all(c.data == 0.0)


def test_lstm_saturated_forget_gate_accumulates():
    cell = make_cell(seed=1)
    hd = cell.hidden_dim
    cell.b.data[hd:2 * hd] = 50.0  # forget gate pinned open
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(1, 4)))
    h0 = Tensor(rng.normal(size=(1, 3)))
    c0 = Tensor(rng.normal(size=(1, 3)))
    _, c1 = cell.step(x, h0, c0)
    z = cell.w_ih.data @ x.data[0] + cell.w_hh.data @ h0.data[0] + cell.b.data
    i = 1 / (1 + np.exp(-z[:hd]))
    g = np.tanh(z[2 * hd:3 * hd])
    assert np.allclose(c1.data, c0.data + i * g, atol=1e-10)


def test_lstm_gradient_check():
    cell = make_cell(seed=3)
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.normal(size=(1, 4)))
    h = ad.parameter(rng.normal(size=(1, 3)))
    c = ad.parameter(rng.normal(size=(1, 3)))

    def f(*_):
        hn, cn = cell.step(x, h, c)
        return ad.tensor_sum(hn) + ad.tensor_sum(ad.mul(cn, cn))

    assert grad_check(f, [x, h, c, cell.w_ih, cell.w_hh, cell.b]) <= 1e-5


def test_interrupted_backward_leaves_no_stale_weight_grads():
    cell, fresh = make_cell(seed=14), make_cell(seed=14)
    rng = np.random.default_rng(15)
    x = ad.parameter(rng.normal(size=(1, 4)))
    h, c = Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(1, 3)))

    class Interrupt(Exception):
        pass

    def raise_interrupt():
        raise Interrupt

    with Tape() as tape:
        # the sweep reaches this node after the LSTM step's backward rule
        x_in = Tensor(x.data.copy())
        ad.record(raise_interrupt, x_in)
        h1, _ = cell.step(x_in, h, c)
        with pytest.raises(Interrupt):
            backward(tape, ad.tensor_sum(h1))
    for p in (cell.w_ih, cell.w_hh, cell.b):
        p.zero_grad()

    for m in (cell, fresh):
        with Tape() as tape:
            h1, c1 = m.step(x, h, c)
            backward(tape, ad.tensor_sum(h1) + ad.tensor_sum(ad.mul(c1, c1)))
    for name in ("w_ih", "w_hh", "b"):
        got, want = getattr(cell, name).grad, getattr(fresh, name).grad
        assert got is not None and np.array_equal(got, want), name


def test_lstm_cell_state_bounded_growth():
    cell = make_cell(seed=5)
    rng = np.random.default_rng(6)
    c = Tensor(rng.normal(size=(1, 3)))
    for _ in range(20):
        x = Tensor(rng.normal(size=(1, 4)))
        h = Tensor(rng.normal(size=(1, 3)))
        _, c_new = cell.step(x, h, c)
        assert np.all(np.abs(c_new.data) <= np.abs(c.data) + 1.0 + 1e-12)
        c = c_new


def lstm_step_chain(cell, x, batch_sizes, state):
    """lstm_layer as a chain of tape ops: one lstm_step per step from the
    given state, the rows of the sequences that end dropped before the next
    step; returns the step outputs stacked and the finals in step-0 row
    order."""
    starts = np.cumsum([0] + list(batch_sizes))
    h, c = state
    hs, h_fin, c_fin = [], [None] * batch_sizes[0], [None] * batch_sizes[0]
    for t, n in enumerate(batch_sizes):
        if n < h.data.shape[0]:
            h, c = ad.row(h, np.arange(n)), ad.row(c, np.arange(n))
        h, c = cell.step(ad.row(x, np.arange(starts[t], starts[t + 1])), h, c)
        hs.append(h)
        for j in range(batch_sizes[t + 1] if t + 1 < len(batch_sizes) else 0, n):
            h_fin[j], c_fin[j] = ad.row(h, np.array([j])), ad.row(c, np.array([j]))
    return ad.stack_rows(hs), (ad.stack_rows(h_fin), ad.stack_rows(c_fin))


LAYOUTS = pytest.mark.parametrize("batch_sizes", [[3, 2, 2, 1], [3, 3, 3], [1]],
                                  ids=["unequal", "equal", "single_length_1"])


@LAYOUTS
def test_lstm_layer_matches_gate_equations(batch_sizes):
    rng = np.random.default_rng(18)
    cell = make_cell(seed=19)
    x = rng.normal(size=(sum(batch_sizes), 4))
    h0, c0 = rng.normal(size=(2, batch_sizes[0], 3))
    h_all, (h_fin, c_fin) = lstm_layer(cell, Tensor(x), batch_sizes,
                                       (Tensor(h0), Tensor(c0)))
    for got, want in zip((h_all, h_fin, c_fin),
                         lstm_layer_oracle(cell, x, batch_sizes, h0, c0)):
        assert got.data.shape == want.shape
        assert np.allclose(got.data, want, rtol=0, atol=1e-12)


@LAYOUTS
def test_lstm_layer_matches_step_chain(batch_sizes):
    rng = np.random.default_rng(16)
    cell = make_cell(seed=17)
    x = ad.parameter(rng.normal(size=(sum(batch_sizes), 4)))
    h0 = ad.parameter(rng.normal(size=(batch_sizes[0], 3)))
    c0 = ad.parameter(rng.normal(size=(batch_sizes[0], 3)))
    h_weights = Tensor(rng.normal(size=(sum(batch_sizes), 3)))
    params = (x, h0, c0, cell.w_ih, cell.w_hh, cell.b)
    runs = []
    for layer in (lstm_layer, lstm_step_chain):
        with Tape() as tape:
            h_all, (h_fin, c_fin) = layer(cell, x, batch_sizes, (h0, c0))
            loss = (ad.tensor_sum(ad.mul(h_all, h_weights)) + ad.tensor_sum(ad.mul(h_fin, h_fin))
                    + ad.tensor_sum(ad.tanh(c_fin)))
            backward(tape, loss)
        runs.append([h_all.data, h_fin.data, c_fin.data] + [p.grad for p in params])
        for p in params:
            p.zero_grad()
    for got, want in zip(*runs):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch_sizes, shape, state_rows", [
    ([1, 2], (3, 4), (1, 1)),     # increasing
    ([2, 0], (2, 4), (2, 2)),     # an empty step
    ([], (0, 4), (0, 0)),         # no steps
    ([2, 1], (4, 4), (2, 2)),     # sizes do not add up to the rows
    ([2, 1], (3, 5), (2, 2)),     # wrong input width
    ([2, 1], (3, 4), (1, 1)),     # a state row per step-1 row, not per sequence
    ([2, 1], (3, 4), (2, 1)),     # one c0 row, which would broadcast
], ids=["increasing", "zero", "empty", "wrong_total", "wrong_width", "wrong_state",
        "wrong_cell_state"])
def test_lstm_layer_rejects_bad_layout(batch_sizes, shape, state_rows):
    state = tuple(Tensor(np.zeros((n, 3))) for n in state_rows)
    with pytest.raises(ad.DimensionError):
        lstm_layer(make_cell(), Tensor(np.zeros(shape)), batch_sizes, state)


def attention_weights(head, h, feats):
    """(B, K) weights of the K feature rows feats, one scene, for query rows h."""
    stack = ad.reshape(feats, (1,) + feats.data.shape)
    scene = np.zeros(h.data.shape[0], dtype=np.intp)
    return ad.scene_attention(h, head.keys(stack), stack, scene)[0]


def test_attend_single_object_and_symmetry():
    head = AttentionHead(4, 3, np.random.default_rng(7))
    h = Tensor(np.random.default_rng(8).normal(size=(1, 3)))
    assert attention_weights(head, h, Tensor(np.ones((1, 4)))).data.tolist() == [[1.0]]
    two = attention_weights(head, h, Tensor(np.ones((2, 4))))
    assert np.allclose(two.data, [0.5, 0.5], atol=1e-15)


def test_attend_matches_dot_softmax_oracle():
    rng = np.random.default_rng(9)
    head = AttentionHead(4, 3, rng)
    h = Tensor(rng.normal(size=(1, 3)))
    feats = rng.normal(size=(3, 4))
    scores = np.array([float(np.dot(h.data[0], head.proj.w.data @ v + head.proj.b.data))
                       for v in feats])
    e = np.exp(scores - scores.max())
    assert np.allclose(attention_weights(head, h, Tensor(feats)).data, e / e.sum(),
                       atol=1e-12)


def test_attend_shift_invariance():
    rng = np.random.default_rng(10)
    head = AttentionHead(4, 3, rng)
    h = ad.Tensor(rng.normal(size=(1, 3)))
    feats = rng.normal(size=(4, 4))
    base = attention_weights(head, h, Tensor(feats)).data.copy()
    # shifting every score by a constant must not move the weights; a bias
    # change along h's direction shifts all K scores equally when the
    # features share the same projection offset
    scores = np.array([float(np.dot(h.data[0], head.proj.w.data @ v + head.proj.b.data))
                       for v in feats])
    shifted = np.exp(scores + 11.5 - (scores + 11.5).max())
    assert np.allclose(base, shifted / shifted.sum(), atol=1e-12)


def test_attend_gradient_and_empty_contract():
    rng = np.random.default_rng(11)
    head = AttentionHead(3, 2, rng)
    h = ad.parameter(rng.normal(size=(1, 2)))
    feats = ad.parameter(rng.normal(size=(3, 3)))
    first = np.array([0])
    # the projection bias shifts every score equally, so the weights do not
    # depend on it; check it separately as an exact-zero gradient
    assert grad_check(lambda *a: ad.pick(attention_weights(head, h, feats), first),
                      [h, head.proj.w, feats]) <= 1e-5
    head.proj.b.zero_grad()
    with Tape() as tape:
        backward(tape, ad.pick(attention_weights(head, h, feats), first))
    assert np.all(np.abs(head.proj.b.grad) < 1e-12)
    with pytest.raises(ad.DimensionError):
        attention_weights(head, h, Tensor(np.zeros((0, 3))))


def test_embedding_lookup_equals_one_hot_matmul():
    rng = np.random.default_rng(12)
    emb = Embedding(6, 4, rng)
    for tid in range(6):
        one_hot = np.zeros((1, 6))
        one_hot[0, tid] = 1.0
        via_matmul = one_hot @ emb.w.data
        assert np.allclose(emb.lookup(np.array([tid])).data, via_matmul, atol=1e-15)


def test_linear_is_exact_affine():
    rng = np.random.default_rng(13)
    lin = Linear(3, 2, rng)
    x = Tensor(rng.normal(size=(2, 3)))
    assert np.allclose(lin(x).data, x.data @ lin.w.data.T + lin.b.data, atol=0)


def test_layer_init_determinism_and_range():
    def linear(seed):
        return Linear(100, 10, np.random.default_rng(seed))

    p1, p2, p3 = linear(42), linear(42), linear(43)
    for name in ("w", "b"):
        assert np.array_equal(getattr(p1, name).data, getattr(p2, name).data)
        assert np.all(np.abs(getattr(p1, name).data) < 0.1)  # fan_in 100 -> bound 0.1
    assert any(not np.array_equal(getattr(p1, n).data, getattr(p3, n).data)
               for n in ("w", "b"))


def test_uniform_init_spans_negative_and_positive():
    vals = uniform_init(np.random.default_rng(0), (1000,), 4)
    assert vals.min() < 0 < vals.max()
    assert np.all(np.abs(vals) <= 0.5)
