"""Neural building blocks: LSTM cell, embedding table, linear layer, attention.

Every layer maps (B, d) row batches to row batches.  All parameters are
drawn uniform(-a, a) with a = 1/sqrt(fan_in) from a seeded generator, so
identical seeds give bit-identical models.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import (
    Tensor, DimensionError, accumulate, record, affine, reshape,
)

__all__ = [
    "uniform_init", "LstmCell", "lstm_step", "lstm_layer",
    "Embedding", "Linear", "AttentionHead",
]


def uniform_init(rng, shape, fan_in):
    a = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-a, a, size=shape)


class LstmCell:
    """Single LSTM cell with gate order [input, forget, cell, output].

    Weights are stored as w_ih (4h x input_dim), w_hh (4h x h) and a single
    bias b (4h).
    """

    def __init__(self, input_dim, hidden_dim, rng):
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.w_ih = ad.parameter(uniform_init(rng, (4 * h, input_dim), input_dim))
        self.w_hh = ad.parameter(uniform_init(rng, (4 * h, h), h))
        self.b = ad.parameter(uniform_init(rng, (4 * h,), input_dim))

    def _flush_weight_grads(self, pending):
        """Add the (dz, x, h) row blocks one backward sweep buffered for this
        cell as one matrix product per weight."""
        dzs = np.vstack([p[0] for p in pending])
        if self.w_ih.requires_grad:
            xs = np.vstack([p[1] for p in pending])
            accumulate(self.w_ih, dzs.T @ xs)
        if self.w_hh.requires_grad:
            hs = np.vstack([p[2] for p in pending])
            accumulate(self.w_hh, dzs.T @ hs)
        accumulate(self.b, dzs.sum(axis=0))

    def step(self, x, h, c):
        return lstm_step(self, x, h, c)

    def named_parameters(self, prefix):
        return {prefix + ".w_ih": self.w_ih,
                prefix + ".w_hh": self.w_hh,
                prefix + ".b": self.b}


def _gates_forward(z, c_prev):
    """The gate math of one LSTM step over (B, 4H) pre-activations z: z's
    column blocks become the [i, f, g, o] activations in place, and the new
    c, tanh(c) and h rows are returned.  c_prev is the (B, H) previous cell
    state."""
    hd = z.shape[1] // 4
    for gate in (z[:, :2 * hd], z[:, 3 * hd:]):
        np.negative(gate, out=gate)
        np.exp(gate, out=gate)
        gate += 1.0
        np.divide(1.0, gate, out=gate)
    np.tanh(z[:, 2 * hd:3 * hd], out=z[:, 2 * hd:3 * hd])
    i, f, g, o = z[:, :hd], z[:, hd:2 * hd], z[:, 2 * hd:3 * hd], z[:, 3 * hd:]
    c_new = f * c_prev
    c_new += i * g
    tc = np.tanh(c_new)
    return c_new, tc, o * tc


def _gates_backward(z, c_prev, tc, gh, gc, dz):
    """The backward of _gates_forward from the (B, H) rows c_prev: fills dz
    with the gradient of the pre-activations and returns dc, the full
    gradient of the new c, given the gradients gh and gc of the new h and c."""
    hd = tc.shape[1]
    i, f, g, o = z[:, :hd], z[:, hd:2 * hd], z[:, 2 * hd:3 * hd], z[:, 3 * hd:]
    dc = gc + gh * o * (1.0 - tc * tc)
    dz[:, :hd] = dc * g * i * (1.0 - i)
    dz[:, hd:2 * hd] = dc * c_prev * f * (1.0 - f)
    dz[:, 2 * hd:3 * hd] = dc * i * (1.0 - g * g)
    dz[:, 3 * hd:] = gh * tc * o * (1.0 - o)
    return dc


def lstm_step(cell, x, h, c):
    """One LSTM step over (B, d) rows from the state (h, c), one independent
    step per row: a one-step lstm_layer.  Returns (h', c')."""
    return lstm_layer(cell, x, x.data.shape[:1], (h, c))[1]


def lstm_layer(cell, x, batch_sizes, state):
    """One LSTM over packed sequences from the initial state (h0, c0), as one
    tape node.

    x holds the (N, d) input rows step-major: step t has batch_sizes[t] rows,
    the sizes are non-increasing and at least 1, and step t's rows are the
    first rows of step t-1 (PyTorch's PackedSequence layout); h0 and c0 are
    the (batch_sizes[0], H) rows that step 0 continues.  Since every input
    is known in advance, the input projection of all steps is one GEMM, and
    a step adds only h @ w_hhᵀ and the bias; the backward is one BPTT loop,
    one dZ @ w_ih for the input gradient and one deferred weight block.

    Returns the (N, H) h rows of every step in x's order, and each
    sequence's final (h, c) as (B, H) rows in step-0 row order.  A single
    step's h rows are its finals, and it copies no rows.
    """
    sizes = [int(n) for n in batch_sizes]
    if not sizes or sizes[-1] < 1 or sizes != sorted(sizes, reverse=True):
        raise DimensionError(
            f"lstm_layer: batch sizes {sizes} are not non-increasing and >= 1")
    xd = x.data
    if xd.shape != (sum(sizes), cell.input_dim):
        raise DimensionError(
            f"lstm_layer: input shape {xd.shape} does not match "
            f"({sum(sizes)}, {cell.input_dim})")
    h0, c0 = state
    hd = cell.hidden_dim
    want = (sizes[0], hd)
    if h0.data.shape != want or c0.data.shape != want:
        raise DimensionError(
            f"lstm_layer: state shapes {h0.data.shape}, {c0.data.shape} do not match {want}")

    w_ih, w_hh, b = cell.w_ih, cell.w_hh, cell.b
    recording = ad._tracing(x, h0, c0, w_ih, w_hh, b)
    # the input projections as (4H, N) columns: a step's (4H, n) block then
    # transposes to (n, 4H) rows with contiguous gate blocks, on which the
    # gate math runs fastest.  w @ xᵀ with xᵀ contiguous is the fastest BLAS
    # layout for a few rows
    zx = w_ih.data @ np.ascontiguousarray(xd.T)
    single = len(sizes) == 1
    if not single:
        h_all, h_fin, c_fin = np.empty((len(xd), hd)), np.empty(want), np.empty(want)
    saved = []  # each step's rows, gates, tanh(c) and input state, for the backward
    h, c = h0.data, c0.data
    start = 0
    for n, n_next in zip(sizes, sizes[1:] + [0]):
        rows = slice(start, start + n)
        start += n
        # a single step's block is all of zx: nothing is copied, and the
        # sum runs in zx's memory
        z = np.ascontiguousarray(zx[:, rows])
        z += w_hh.data @ np.ascontiguousarray(h.T)
        z = z.T
        z += b.data
        h_in, c_in = h, c
        c, tc, h = _gates_forward(z, c_in)
        if recording:
            saved.append((rows, z, tc, h_in, c_in))
        if not single:
            # the sequences that the next step drops end here
            h_fin[n_next:n], c_fin[n_next:n] = h[n_next:], c[n_next:]
            h_all[rows] = h
            h, c = h_all[rows][:n_next], c[:n_next]
    if single:
        h_all, h_fin, c_fin = h, h, c
    h_out = Tensor(h_all)
    h_fin, c_fin = Tensor(h_fin), Tensor(c_fin)
    if recording:

        def bwd():
            gh_all = h_out.grad
            # the finals' gradients carry each row back from its last step;
            # at step 0 they become the gradients of h0 and c0.  The buffers
            # are this node's own: the sweep releases them after this rule
            dh = np.zeros(want) if h_fin.grad is None else h_fin.grad
            dc = np.zeros(want) if c_fin.grad is None else c_fin.grad
            dz_all = np.empty((len(xd), 4 * hd))
            for rows, z, tc, _h_in, c_in in reversed(saved):
                n, dz = len(z), dz_all[rows]
                dh_n, dc_n = dh[:n], dc[:n]
                gh = dh_n if gh_all is None else dh_n + gh_all[rows]
                dc_t = _gates_backward(z, c_in, tc, gh, dc_n, dz)
                np.matmul(dz, w_hh.data, out=dh_n)
                np.multiply(dc_t, z[:, hd:2 * hd], out=dc_n)
            accumulate(h0, dh)
            accumulate(c0, dc)
            if w_ih.requires_grad or w_hh.requires_grad or b.requires_grad:
                h_prev = [s[3] for s in saved]
                ad.defer(cell, cell._flush_weight_grads,
                         (dz_all, xd, h_prev[0] if single else np.concatenate(h_prev)))
            if x.requires_grad:
                accumulate(x, dz_all @ w_ih.data)

        record(bwd, h_out, h_fin, c_fin)
    return h_out, (h_fin, c_fin)


class Embedding:
    """Trainable token embedding table (vocab_size x embed_dim)."""

    def __init__(self, vocab_size, embed_dim, rng):
        self.vocab_size = vocab_size
        self.embed_dim = embed_dim
        self.w = ad.parameter(uniform_init(rng, (vocab_size, embed_dim), embed_dim))

    def lookup(self, token_ids):
        """(B, E) embedding rows of an array of B token ids."""
        ad.check_index(token_ids, self.vocab_size, "embedding lookup: token id")
        return ad.row(self.w, token_ids)

    def named_parameters(self, prefix):
        return {prefix + ".w": self.w}


class Linear:
    """Affine layer y = W x + b, applied to each row of a (B, d) batch."""

    def __init__(self, in_dim, out_dim, rng):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = ad.parameter(uniform_init(rng, (out_dim, in_dim), in_dim))
        self.b = ad.parameter(uniform_init(rng, (out_dim,), in_dim))

    def __call__(self, m):
        return affine(self.w, m, self.b)

    def named_parameters(self, prefix):
        return {prefix + ".w": self.w, prefix + ".b": self.b}


class AttentionHead:
    """Dot-product attention over K object features after a linear projection.

    The projected features are the keys of autodiff.scene_attention, which
    scores each query row against the keys of the row's scene and takes the
    softmax over the K scores of a row.
    """

    def __init__(self, feature_dim, hidden_dim, rng):
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.proj = Linear(feature_dim, hidden_dim, rng)

    def keys(self, feats):
        """The (S, K, H) projections of an (S, K, d) stack of scene features,
        built once per context so every step reuses them."""
        if feats.data.ndim != 3:
            raise DimensionError(
                f"attention keys: expected (S, K, d) features, got {feats.data.shape}")
        s, k, d = feats.data.shape
        return reshape(self.proj(reshape(feats, (s * k, d))), (s, k, self.hidden_dim))

    def named_parameters(self, prefix):
        return self.proj.named_parameters(prefix + ".proj")
