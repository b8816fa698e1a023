"""Dense f64 tensors with tape-based reverse-mode automatic differentiation.

Every operation records a backward closure on the thread's active ``Tape``.
Running ``backward(tape, root)`` replays the tape in reverse and accumulates
``d root / d input`` into the ``grad`` field of every reachable tensor.
Repeated ``backward`` calls without clearing grads accumulate on top of the
previous pass.  Elementwise ops do not broadcast beyond scalars: shapes must
match exactly or one operand must have a single element.

Everything a decoder computes is a (B, d) row batch, one independent row per
caption, hypothesis or beam; a single caption is a batch of one row.  The
matrix ops (affine, concat, log_softmax, pick, row) take rows only.  Per-scene
constants are stacked as (S, ...) arrays and reach the rows through a
row->scene index (row, scene_attention); an operand that several rows read
receives the sum of their gradients.
"""

import threading

import numpy as np

__all__ = [
    "Tensor", "Tape", "DimensionError", "ContractError",
    "parameter", "no_grad", "backward", "grad_check",
    "add", "mul", "neg", "concat", "tensor_sum", "sum_terms",
    "tanh", "exp", "log_softmax",
    "vec_max", "max_rows", "pick", "row", "stack_rows", "scale_rows",
    "affine", "squared_l2", "reshape", "scene_attention",
    "check_index", "defer",
]


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class ContractError(ValueError):
    """Raised when an operation's precondition is violated."""


_STATE = threading.local()


def _tape_stack():
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Append-only record of operations, replayed in reverse by backward().

    Node inputs always precede the node itself, so a single reverse sweep
    visits every node exactly once.
    """

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False


class no_grad:
    """Context manager that suspends tape recording (pure forward mode)."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False


class Tensor:
    """A dense array of 64-bit floats with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "node_id")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = -1

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, data={self.data!r})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def parameter(data):
    return Tensor(data, requires_grad=True)


def accumulate(t, g):
    """Add g into t.grad, allocating the buffer on first touch."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        t.grad += g


def record(fn, *outs):
    """Register a backward closure producing the given output tensors.

    Only records when a tape is active; returns True if recorded so callers
    can skip building backward state in pure-forward mode.
    """
    tape = active_tape()
    if tape is None:
        return False
    for o in outs:
        o.requires_grad = True
        o.node_id = len(tape.nodes)
    tape.nodes.append((fn, outs))
    return True


def _tracing(*inputs):
    """True when an op should record: tape active and some input needs grad."""
    if active_tape() is None:
        return False
    return any(t.requires_grad for t in inputs)


def check_index(index, n, what):
    """Raise ContractError unless index is a non-empty 1-D integer array of
    ids in [0, n)."""
    ok = (isinstance(index, np.ndarray) and index.ndim == 1 and index.size > 0
          and index.dtype.kind in "iu")
    if ok:
        ids = index.tolist()  # min/max of a short list beat numpy reductions
        ok = 0 <= min(ids) and max(ids) < n
    if not ok:
        raise ContractError(f"{what} {index} out of range [0, {n})")


def defer(key, flush, item):
    """Buffer item under key until the current backward sweep finishes.

    After the sweep, flush(items) runs once per key, in the order the keys
    first appeared.  Backward rules use this to batch repeated
    weight-gradient contributions (one GEMM at the end instead of one outer
    product per time step).  The buffers belong to the sweep: an interrupted
    sweep drops them, so nothing carries over into the next pass.
    """
    deferred = _STATE.deferred
    if key not in deferred:
        deferred[key] = (flush, [])
    deferred[key][1].append(item)


def backward(tape, root):
    """Populate grads of everything reachable from the scalar root.

    Visits each tape node exactly once in reverse order.  Gradients of
    intermediate results are consumed and released as the sweep passes them;
    leaf gradients persist, so calling backward again without zeroing adds
    one more copy of the gradient on top.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if root.grad is None:
        root.grad = np.ones_like(root.data)
    else:
        root.grad = root.grad + np.ones_like(root.data)
    _STATE.deferred = deferred = {}
    try:
        for fn, outs in reversed(tape.nodes):
            fired = False
            for o in outs:
                if o.grad is not None:
                    fired = True
                    break
            if fired:
                fn()
                for o in outs:
                    o.grad = None
        for flush, items in deferred.values():
            flush(items)
    finally:
        _STATE.deferred = None


def _check_same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} do not match")


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _binary_prep(a, b, opname):
    """Validate exact-shape or scalar pairing for an elementwise op."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise DimensionError(
            f"{opname}: shapes {a.data.shape} and {b.data.shape} are not "
            "exact-match or scalar")
    return a, b


def _unbroadcast(g, shape):
    """Sum a gradient down to a scalar operand's shape if needed."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def add(a, b):
    a, b = _binary_prep(a, b, "add")
    out = Tensor(a.data + b.data)
    if _tracing(a, b):
        def bwd():
            g = out.grad
            accumulate(a, _unbroadcast(g, a.data.shape))
            accumulate(b, _unbroadcast(g, b.data.shape))
        record(bwd, out)
    return out


def mul(a, b):
    a, b = _binary_prep(a, b, "mul")
    out = Tensor(a.data * b.data)
    if _tracing(a, b):
        ad, bd = a.data, b.data
        def bwd():
            g = out.grad
            accumulate(a, _unbroadcast(g * bd, ad.shape))
            accumulate(b, _unbroadcast(g * ad, bd.shape))
        record(bwd, out)
    return out


def neg(a):
    a = _as_tensor(a)
    out = Tensor(-a.data)
    if _tracing(a):
        def bwd():
            accumulate(a, -out.grad)
        record(bwd, out)
    return out


def concat(parts):
    """Join (B, d_i) row batches side by side into (B, sum d_i) rows."""
    parts = [_as_tensor(p) for p in parts]
    if not parts or any(p.data.ndim != 2 for p in parts):
        raise DimensionError(
            f"concat: expected (B, d) parts, got shapes {[p.data.shape for p in parts]}")
    rows = {p.data.shape[0] for p in parts}
    if len(rows) > 1:
        raise DimensionError(f"concat: parts have row counts {sorted(rows)}")
    widths = [p.data.shape[1] for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    if _tracing(*parts):
        def bwd():
            g = out.grad
            off = 0
            for p, w in zip(parts, widths):
                if p.requires_grad:
                    accumulate(p, g[:, off:off + w])
                off += w
        record(bwd, out)
    return out


def tensor_sum(a):
    a = _as_tensor(a)
    out = Tensor(a.data.sum())
    if _tracing(a):
        def bwd():
            accumulate(a, np.full(a.data.shape, float(out.grad)))
        record(bwd, out)
    return out


def sum_terms(terms):
    """Sum equal-shape tensors left to right as one tape node.

    The value is bit-identical to chaining add over the terms in order, and
    each term receives the output gradient; a single term is returned as is.
    """
    terms = [_as_tensor(t) for t in terms]
    if not terms:
        raise ContractError("sum_terms: no terms given")
    if len(terms) == 1:
        return terms[0]
    total = terms[0].data
    for t in terms[1:]:
        _check_same_shape(terms[0], t, "sum_terms")
        total = total + t.data
    out = Tensor(total)
    if _tracing(*terms):
        def bwd():
            g = out.grad
            for t in terms:
                accumulate(t, g)
        record(bwd, out)
    return out


def tanh(a):
    a = _as_tensor(a)
    y = np.tanh(a.data)
    out = Tensor(y)
    if _tracing(a):
        def bwd():
            accumulate(a, out.grad * (1.0 - y * y))
        record(bwd, out)
    return out


def exp(a):
    a = _as_tensor(a)
    y = np.exp(a.data)
    out = Tensor(y)
    if _tracing(a):
        def bwd():
            accumulate(a, out.grad * y)
        record(bwd, out)
    return out


def log_softmax(a):
    """Stable log-softmax over each row of a (B, n) batch."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.shape[1] == 0:
        raise DimensionError(
            f"log_softmax: expected (B, n) rows with n >= 1, got shape {a.data.shape}")
    z = a.data - a.data.max(axis=1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(y)
    if _tracing(a):
        sm = np.exp(y)
        def bwd():
            g = out.grad
            accumulate(a, g - sm * g.sum(axis=1, keepdims=True))
        record(bwd, out)
    return out


def _scatter(shape, index, g):
    """Zeros of shape with g placed at index, a tuple of index arrays."""
    full = np.zeros(shape)
    full[index] = g
    return full


def vec_max(a):
    """Max over each row of a (B, n) batch, as a (B,) vector; ties route the
    gradient to the lowest index."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or a.data.size == 0:
        raise DimensionError(
            f"vec_max: expected non-empty (B, n) rows, got shape {a.data.shape}")
    idx = (np.arange(a.data.shape[0]), np.argmax(a.data, axis=1))
    out = Tensor(a.data[idx])
    if _tracing(a):
        def bwd():
            accumulate(a, _scatter(a.data.shape, idx, out.grad))
        record(bwd, out)
    return out


def max_rows(m, scene=None):
    """Elementwise max over the rows of each scene of a (B, d) matrix, as
    (S, d) rows: row b belongs to scene scene[b], and each of the scenes
    0..S-1 owns at least one row (scene None: all rows are scene 0).  Ties
    route the gradient to the earliest row of a scene, and a NaN wins as in
    np.argmax."""
    m = _as_tensor(m)
    md = m.data
    if md.ndim != 2 or md.shape[0] == 0:
        raise DimensionError(f"max_rows: expected (B, d) rows, got shape {md.shape}")
    n = md.shape[0]
    if scene is None:
        scene = np.zeros(n, dtype=np.intp)
    elif np.shape(scene) != (n,):
        raise DimensionError(f"max_rows: {np.size(scene)} scene ids for {n} rows")
    check_index(scene, n, "max_rows: scene")
    counts = np.bincount(scene)
    if not counts.all():
        raise ContractError("max_rows: a scene has no rows")
    # each scene's rows as one block, in row order; scene-major rows (every
    # caller's layout) are their own blocks
    order = None if np.all(scene[:-1] <= scene[1:]) else np.argsort(scene, kind="stable")
    blocks = md if order is None else md[order]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    hit = blocks == np.repeat(np.maximum.reduceat(blocks, starts), counts, axis=0)
    hit |= np.isnan(blocks)
    first = np.minimum.reduceat(np.where(hit, np.arange(n)[:, None], n), starts)
    if order is not None:
        first = order[first]
    idx = (first, np.arange(md.shape[1])[None])
    out = Tensor(md[idx])
    if _tracing(m):
        def bwd():
            accumulate(m, _scatter(md.shape, idx, out.grad))
        record(bwd, out)
    return out


def pick(a, index):
    """One element per row of a (B, n) batch, at an array of B indices, as a
    (B,) vector."""
    a = _as_tensor(a)
    if a.data.ndim != 2 or np.shape(index) != a.data.shape[:1]:
        raise DimensionError(
            f"pick: expected (B, n) rows with B indices, got shape {a.data.shape} "
            f"and {np.shape(index)} indices")
    check_index(index, a.data.shape[1], "pick: index")
    idx = (np.arange(a.data.shape[0]), index)
    out = Tensor(a.data[idx])
    if _tracing(a):
        def bwd():
            accumulate(a, _scatter(a.data.shape, idx, out.grad))
        record(bwd, out)
    return out


def row(m, index):
    """The rows of a matrix at an array of B row ids, as a (B, d) batch
    (embedding lookup, row selection); repeated ids sum their gradients."""
    m = _as_tensor(m)
    if m.data.ndim != 2:
        raise DimensionError(f"row: expected a matrix, got shape {m.data.shape}")
    check_index(index, m.data.shape[0], "row: index")
    out = Tensor(m.data[index])
    if _tracing(m):
        def bwd():
            if m.grad is None:
                m.grad = np.zeros_like(m.data)
            np.add.at(m.grad, index, out.grad)
        record(bwd, out)
    return out


def stack_rows(parts):
    """Stack (n_i, d) row batches of equal width into one (sum n_i, d)
    batch; a single part is returned as is."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise DimensionError("stack_rows: no parts given")
    widths = {p.data.shape[1:] for p in parts}
    if len(widths) > 1 or any(p.data.ndim != 2 for p in parts):
        raise DimensionError(
            f"stack_rows: expected (n, d) rows of one width, got shapes "
            f"{[p.data.shape for p in parts]}")
    if len(parts) == 1:
        return parts[0]
    out = Tensor(np.concatenate([p.data for p in parts]))
    if _tracing(*parts):
        def bwd():
            g = out.grad
            off = 0
            for p in parts:
                n = p.data.shape[0]
                accumulate(p, g[off:off + n])
                off += n
        record(bwd, out)
    return out


def scale_rows(s, m):
    """Row b of an (B, d) batch scaled by s[b], for a (B,) vector s."""
    s = _as_tensor(s)
    m = _as_tensor(m)
    if m.data.ndim != 2 or s.data.shape != m.data.shape[:1]:
        raise DimensionError(
            f"scale_rows: scales {s.data.shape} do not match rows {m.data.shape}")
    sd, md = s.data[:, None], m.data
    out = Tensor(sd * md)
    if _tracing(s, m):
        def bwd():
            g = out.grad
            if s.requires_grad:
                accumulate(s, (g * md).sum(axis=1))
            accumulate(m, g * sd)
        record(bwd, out)
    return out


def affine(w, m, b):
    """Fused m @ w.T + b: the affine map w x + b applied to each row of m."""
    w = _as_tensor(w)
    m = _as_tensor(m)
    b = _as_tensor(b)
    if m.data.ndim != 2 or w.data.ndim != 2 or m.data.shape[1] != w.data.shape[1]:
        raise DimensionError(
            f"affine: rows {m.data.shape} do not match weights {w.data.shape}")
    if b.data.shape != (w.data.shape[0],):
        raise DimensionError(
            f"affine: bias shape {b.data.shape} does not match output {w.data.shape[0]}")
    out = Tensor(m.data @ w.data.T + b.data)
    if _tracing(w, m, b):
        wd, md = w.data, m.data
        def bwd():
            g = out.grad
            if w.requires_grad:
                accumulate(w, g.T @ md)
            if m.requires_grad:
                accumulate(m, g @ wd)
            accumulate(b, g.sum(axis=0))
        record(bwd, out)
    return out


def reshape(a, shape):
    """The same values in a new shape (row-major order)."""
    a = _as_tensor(a)
    out = Tensor(a.data.reshape(shape))
    if _tracing(a):
        def bwd():
            accumulate(a, out.grad.reshape(a.data.shape))
        record(bwd, out)
    return out


def scene_attention(q, keys, values, scene):
    """Dot-product attention of each query row over its own scene's objects.

    keys (S, K, H) and values (S, K, d) stack S scenes of K objects each;
    row b of the (B, H) queries belongs to scene scene[b].  Returns the
    (B, K) weights softmax(keys[scene[b]] @ q[b]) and the (B, d) attended
    rows weights[b] @ values[scene[b]], recorded as one tape node.  A
    scene's keys and values receive the summed gradients of its rows.
    """
    q, keys, values = _as_tensor(q), _as_tensor(keys), _as_tensor(values)
    qd, kd, vd = q.data, keys.data, values.data
    if (qd.ndim != 2 or kd.ndim != 3 or vd.ndim != 3 or kd.shape[:2] != vd.shape[:2]
            or kd.shape[2] != qd.shape[1] or np.shape(scene) != qd.shape[:1]):
        raise DimensionError(
            f"scene_attention: queries {qd.shape} with {np.shape(scene)} scene ids, "
            f"keys {kd.shape} and values {vd.shape} do not match")
    if kd.shape[1] == 0:
        raise DimensionError("scene_attention: scenes have no objects")
    check_index(scene, kd.shape[0], "scene_attention: scene")
    # each row's (K, H) keys and (K, d) values are gathered when used and
    # not kept, so a wide row batch holds one gathered copy at a time
    e = np.matmul(kd[scene], qd[:, :, None])[:, :, 0]
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    weights = Tensor(e)
    mixed = Tensor(np.matmul(e[:, None, :], vd[scene])[:, 0, :])
    if _tracing(q, keys, values):
        w = e

        def per_scene(g, rows):
            # sum_b g[b]ᵀ rows[b] over each scene's rows: (S, K, n)
            onehot = scene == np.arange(kd.shape[0])[:, None]
            return np.matmul(onehot[:, None, :] * g.T, rows)

        def bwd():
            gm = mixed.grad
            g = np.zeros_like(w) if weights.grad is None else weights.grad
            if gm is not None:
                g = g + np.matmul(vd[scene], gm[:, :, None])[:, :, 0]
            gs = (g - (g * w).sum(axis=1, keepdims=True)) * w
            if q.requires_grad:
                accumulate(q, np.matmul(gs[:, None, :], kd[scene])[:, 0, :])
            if keys.requires_grad:
                accumulate(keys, per_scene(gs, qd))
            if values.requires_grad and gm is not None:
                accumulate(values, per_scene(w, gm))
        record(bwd, weights, mixed)
    return weights, mixed


def squared_l2(a, b):
    """Sum of squared differences between two equal-shape tensors."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    _check_same_shape(a, b, "squared_l2")
    d = a.data - b.data
    out = Tensor(np.dot(d.reshape(-1), d.reshape(-1)))
    if _tracing(a, b):
        def bwd():
            g = 2.0 * float(out.grad) * d
            accumulate(a, g)
            accumulate(b, -g)
        record(bwd, out)
    return out


def grad_check(f, inputs, eps=1e-5):
    """Compare analytic gradients of a scalar-valued f against central differences.

    f is called as f(*inputs) and must build its result from the given input
    tensors.  Returns the worst relative error over every coordinate of every
    input, with denominator max(|analytic|, |numeric|, 1e-8).
    """
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = f(*inputs)
        if out.size != 1:
            raise ContractError("grad_check: f must return a scalar")
        backward(tape, out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in inputs]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with no_grad():
                f_plus = f(*inputs).item()
            flat[i] = orig - eps
            with no_grad():
                f_minus = f(*inputs).item()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(ana_flat[i]), abs(num), 1e-8)
            worst = max(worst, abs(ana_flat[i] - num) / denom)
    for t in inputs:
        t.zero_grad()
    return worst
