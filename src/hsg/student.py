"""Caption decoders (single-LSTM and two-layer attention), decoding strategies
and the state transformation network.

The same decoder classes serve both the autoencoding teacher and the deployed
student; only the initial hidden states differ.  A decoder holds its reserved
ids: every caption starts from bos_id and ends at eos_id.  Decoder states are
lists of (h, c) pairs, one per LSTM layer, each a (B, H) row batch: one row
per caption or beam, and a batch of one row when a single caption is decoded.
A decode context holds the constants of S scenes; each decode row reaches its
own scene's constants through a row->scene index.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (Tensor, ContractError, DimensionError, check_index,
                       concat, log_softmax, no_grad, pick, row, scene_attention,
                       stack_rows, tanh, tensor_sum)
from .layers import AttentionHead, Embedding, Linear, LstmCell

__all__ = [
    "FcDecoder", "UpDownDecoder", "DECODERS", "StateTransformNet", "DecodedRows",
    "BeamHypothesis", "DecoderContext", "decode_step", "rollout",
    "teacher_forced", "greedy_decode", "sample_decode", "beam_search",
    "sample_categorical", "state_rows",
]


@dataclass
class DecoderContext:
    """The constants of S scenes with K objects each: the (S, K, d) object
    features, their (S, d) means and, for attention, the (S, K, H) projected
    features."""
    feats: Tensor
    vbar: Tensor
    keys: Tensor = None

    @property
    def n_scenes(self):
        return self.vbar.data.shape[0]


def _scene_stack(features):
    """(S, K, d) features of S scenes; one scene's (K, d) block is S = 1."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 2:
        feats = feats[None]
    if feats.ndim != 3 or 0 in feats.shape:
        raise DimensionError(
            f"decoder context: expected (K, d) or (S, K, d) features, got {feats.shape}")
    return Tensor(feats), Tensor(feats.mean(axis=1))


class FcDecoder:
    """Single-layer LSTM decoder fed concat(word embedding, mean feature)."""

    family = "fc"

    def __init__(self, vocab_size, embed_dim, hidden_dim, feature_dim, bos_id, eos_id,
                 rng, embedding=None):
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.feature_dim = feature_dim
        self.bos_id = bos_id
        self.eos_id = eos_id
        self.embedding = embedding or Embedding(vocab_size, embed_dim, rng)
        self.lstm = LstmCell(self.embedding.embed_dim + feature_dim, hidden_dim, rng)
        self.out = Linear(hidden_dim, vocab_size, rng)

    @property
    def layer_dims(self):
        return [self.hidden_dim]

    def begin(self, features):
        feats, vbar = _scene_stack(features)
        return DecoderContext(feats=feats, vbar=vbar)

    def step(self, ctx, state, token_ids, scene):
        (h, c), = state
        e = self.embedding.lookup(token_ids)
        x = concat([e, row(ctx.vbar, scene)])
        h2, c2 = self.lstm.step(x, h, c)
        return self.out(h2), [(h2, c2)]

    def named_parameters(self, prefix="decoder"):
        params = {}
        params.update(self.embedding.named_parameters(prefix + ".embedding"))
        params.update(self.lstm.named_parameters(prefix + ".lstm"))
        params.update(self.out.named_parameters(prefix + ".out"))
        return params


class UpDownDecoder:
    """Two-layer decoder: an attention LSTM picks objects, a language LSTM
    consumes the attended feature and emits word logits."""

    family = "updown"

    def __init__(self, vocab_size, embed_dim, hidden_dim, feature_dim, bos_id, eos_id,
                 rng, embedding=None):
        self.vocab_size = vocab_size
        self.hidden_dim = hidden_dim
        self.feature_dim = feature_dim
        self.bos_id = bos_id
        self.eos_id = eos_id
        self.embedding = embedding or Embedding(vocab_size, embed_dim, rng)
        self.att_lstm = LstmCell(
            hidden_dim + feature_dim + self.embedding.embed_dim, hidden_dim, rng)
        self.attention = AttentionHead(feature_dim, hidden_dim, rng)
        self.lang_lstm = LstmCell(feature_dim + hidden_dim, hidden_dim, rng)
        self.out = Linear(hidden_dim, vocab_size, rng)

    @property
    def layer_dims(self):
        return [self.hidden_dim, self.hidden_dim]

    def begin(self, features):
        feats, vbar = _scene_stack(features)
        return DecoderContext(feats=feats, vbar=vbar,
                              keys=self.attention.keys(feats))

    def step(self, ctx, state, token_ids, scene):
        (h1, c1), (h2, c2) = state
        # the layer inputs are not kept past their step, which lowers the
        # peak memory of a wide row batch
        h1n, c1n = self.att_lstm.step(
            concat([h2, row(ctx.vbar, scene), self.embedding.lookup(token_ids)]),
            h1, c1)
        _alpha, attended = scene_attention(h1n, ctx.keys, ctx.feats, scene)
        h2n, c2n = self.lang_lstm.step(concat([attended, h1n]), h2, c2)
        return self.out(h2n), [(h1n, c1n), (h2n, c2n)]

    def named_parameters(self, prefix="decoder"):
        params = {}
        params.update(self.embedding.named_parameters(prefix + ".embedding"))
        params.update(self.att_lstm.named_parameters(prefix + ".att_lstm"))
        params.update(self.attention.named_parameters(prefix + ".attention"))
        params.update(self.lang_lstm.named_parameters(prefix + ".lang_lstm"))
        params.update(self.out.named_parameters(prefix + ".out"))
        return params


# decoder class by family name; the teacher decoder is the student's class
DECODERS = {cls.family: cls for cls in (FcDecoder, UpDownDecoder)}


def decode_step(decoder, ctx, state, prev_tokens, scene=None):
    """One autoregressive step for an array of B previous token ids and
    (B, H) state rows: ((B, V) logits, next state).

    Row b decodes scene scene[b] of the context; scene None puts every row
    in the only scene of a one-scene context.
    """
    if len(state) != len(decoder.layer_dims):
        raise ContractError(
            f"decode_step: state has {len(state)} layers, decoder expects "
            f"{len(decoder.layer_dims)}")
    for (h, c), dim in zip(state, decoder.layer_dims):
        want = (np.size(prev_tokens), dim)
        if h.data.shape != want or c.data.shape != want:
            raise DimensionError(
                f"decode_step: state shapes {h.data.shape}, {c.data.shape} do not "
                f"match {want}")
    check_index(prev_tokens, decoder.vocab_size, "decode_step: token id")
    if scene is None:
        if ctx.n_scenes != 1:
            raise ContractError(
                f"decode_step: a context of {ctx.n_scenes} scenes needs a scene per row")
        scene = np.zeros(len(prev_tokens), dtype=np.intp)
    elif np.shape(scene) != np.shape(prev_tokens):
        raise DimensionError(
            f"decode_step: {np.size(scene)} scene ids for {np.size(prev_tokens)} rows")
    return decoder.step(ctx, state, prev_tokens, scene)


class StateTransformNet:
    """Two fully-connected layers with tanh in between, mapping the (S, d)
    mean visual features of S scenes to (S, H) initial hidden states per
    decoder layer.  Cell states start at zero."""

    def __init__(self, feature_dim, layer_dims, rng):
        self.feature_dim = feature_dim
        self.layer_dims = list(layer_dims)
        self.blocks = [(Linear(feature_dim, h, rng), Linear(h, h, rng))
                       for h in self.layer_dims]

    def __call__(self, vbar):
        if vbar.data.ndim != 2 or vbar.data.shape[1] != self.feature_dim:
            raise DimensionError(
                f"state transform: input shape {vbar.data.shape} does not match "
                f"(S, {self.feature_dim})")
        return [l2(tanh(l1(vbar))) for l1, l2 in self.blocks]

    def initial_state(self, vbar):
        return [(h, Tensor(np.zeros(h.data.shape)))
                for h in self(vbar)]

    def named_parameters(self, prefix="statenet"):
        params = {}
        for i, (l1, l2) in enumerate(self.blocks):
            params.update(l1.named_parameters(f"{prefix}.layer{i}.fc1"))
            params.update(l2.named_parameters(f"{prefix}.layer{i}.fc2"))
        return params


def state_rows(state, perm):
    """A decoder state's rows taken in the order perm."""
    return [(row(h, perm), row(c, perm)) for h, c in state]


@dataclass
class DecodedRows:
    """C captions decoded as one row batch: a sampled or greedy rollout or a
    teacher-forced pass.

    The rows of step t are the captions with more than t emissions, in
    caption order; logits[t] is their (n_t, V) logits.  trace[t] holds the
    h rows of the captions with at least t content ids, in caption order,
    after t emissions (trace[0]: all C initial rows): one (n_t, H) row batch
    per layer.  emissions holds each caption's emitted ids, ending in eos
    where ended[i]; targets lists them in the order of stack_rows(logits).
    """
    emissions: list
    ended: np.ndarray
    logits: list
    trace: list
    targets: np.ndarray

    @property
    def captions(self):
        """Each caption's content ids (no eos), in caption order."""
        return [e[:-1] if end else e for e, end in zip(self.emissions, self.ended)]

    @property
    def tokens(self):
        """The content ids (no eos) of a single decoded caption."""
        (tokens,) = self.captions
        return tokens

    def log_prob_rows(self):
        """Log-probability of every emission as one vector, in the order of
        targets: one log-softmax over all steps' logits."""
        return pick(log_softmax(stack_rows(self.logits)), self.targets)

    def log_likelihood(self):
        """Summed log-probability of all captions' emissions."""
        return tensor_sum(self.log_prob_rows())

    def total_log_prob(self):
        with no_grad():
            return self.log_likelihood().item()


def sample_categorical(probs, rng):
    """Draw an index from a probability vector with a single uniform draw."""
    cum = np.cumsum(probs)
    u = rng.random() * cum[-1]
    # u can round up to cum[-1], past the last index
    return min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)


def rollout(decoder, ctx, init_state, t_max, choose, scene=None):
    """The decode loop: one caption per row of init_state, from
    decoder.bos_id, with at most t_max emissions (one limit or one per caption).

    choose(t, logits, live) picks emission t of the running captions live
    (ascending caption indices) from the step's (n, V) logits.  A caption
    stops after eos or at its limit and its row is dropped; the loop ends
    when none is left.  Caption i decodes scene scene[i] of the context
    (None: every caption the one scene).  Each step records its logits, and
    the h rows of its state on the rows that did not emit eos
    (DecodedRows.trace), on the active tape; log-probabilities are taken
    afterwards, from all steps at once (DecodedRows.log_prob_rows).
    """
    eos_id = decoder.eos_id
    n = init_state[0][0].data.shape[0]
    limit = np.empty(n, dtype=np.intp)
    limit[:] = t_max
    limit_steps = set(limit.tolist())
    if scene is not None:
        scene = np.asarray(scene)
    live = np.flatnonzero(limit > 0)
    state = init_state if live.size in (0, n) else state_rows(init_state, live)
    prev = np.full(live.size, decoder.bos_id)
    trace, logits, steps = [[h for h, _c in init_state]], [], []
    t = 0
    while live.size:
        step_logits, state = decode_step(
            decoder, ctx, state, prev, None if scene is None else scene[live])
        tokens = np.asarray(choose(t, step_logits, live), dtype=np.intp)
        logits.append(step_logits)
        steps.append((live, tokens))
        t += 1
        if eos_id in tokens.tolist():
            # rows that emit eos leave before their state is recorded
            keep = np.flatnonzero(tokens != eos_id)
            if keep.size:
                state = state_rows(state, keep)
            live, tokens = live[keep], tokens[keep]
        if live.size:
            trace.append([h for h, _c in state])
        if t in limit_steps:
            keep = np.flatnonzero(limit[live] > t)
            if 0 < keep.size < live.size:
                state = state_rows(state, keep)
            live, tokens = live[keep], tokens[keep]
        prev = tokens
    emissions = [[] for _ in range(n)]
    for rows, tokens in steps:
        for i, tok in zip(rows.tolist(), tokens.tolist()):
            emissions[i].append(tok)
    ended = np.array([bool(e) and e[-1] == eos_id for e in emissions])
    targets = np.concatenate([tokens for _live, tokens in steps]
                             or [np.zeros(0, dtype=np.intp)])
    return DecodedRows(emissions, ended, logits, trace, targets)


def greedy_decode(decoder, ctx, init_state, t_max, scene=None):
    """Argmax decoding of one caption per init_state row (row i in scene
    scene[i], as in rollout); ties go to the lowest token id.  Runs
    untaped."""
    if t_max < 1:
        raise ContractError("greedy_decode: t_max must be >= 1")

    def choose(_t, logits, _live):
        return np.argmax(log_softmax(logits).data, axis=1)

    with no_grad():
        return rollout(decoder, ctx, init_state, t_max, choose, scene)


def sample_decode(decoder, ctx, init_state, t_max, rng):
    """Multinomial decoding from the per-step softmax; the tape records the
    steps, so log_prob_rows gives the realized tokens' exact
    log-probabilities."""
    if t_max < 1:
        raise ContractError("sample_decode: t_max must be >= 1")

    def choose(_t, logits, _live):
        with no_grad():
            lp = log_softmax(logits).data
        return [sample_categorical(np.exp(p), rng) for p in lp]

    return rollout(decoder, ctx, init_state, t_max, choose)


def teacher_forced(decoder, ctx, init_state, captions, ended, scene=None):
    """Run the decoder over C known captions (lists of content ids, eos
    appended when ended) as a row batch, from init_state's rows, one per
    scene of the context (as beam_search takes them).  Caption i decodes
    scene scene[i] from that scene's row (None: every caption the one scene).

    This is a rollout whose chooser returns the given words, so each
    caption's rows compute the same values as decoding it alone, and
    replaying a sampled caption reproduces its log-probabilities and trace.
    The pass records logits and the trace only; DecodedRows.log_likelihood adds
    the log-softmax for the callers that need it.
    """
    if not captions:
        raise ContractError("teacher_forced: no captions given")
    if any(decoder.eos_id in tokens for tokens in captions):
        raise ContractError("teacher_forced: content tokens contain eos")
    if len(init_state) != len(decoder.layer_dims):
        raise ContractError(
            f"teacher_forced: state has {len(init_state)} layers, decoder expects "
            f"{len(decoder.layer_dims)}")
    n_init = init_state[0][0].data.shape[0]
    if n_init != ctx.n_scenes:
        raise DimensionError(
            f"teacher_forced: {n_init} initial rows for {ctx.n_scenes} scenes")
    if scene is not None and np.shape(scene) != (len(captions),):
        raise DimensionError(
            f"teacher_forced: {np.size(scene)} scene ids for {len(captions)} captions")
    init_rows = state_rows(init_state, np.zeros(len(captions), dtype=np.intp)
                           if scene is None else np.asarray(scene))
    lengths = np.array([len(tokens) + bool(ended) for tokens in captions])
    # step x caption; eos past each caption's content: an ended caption's
    # last emission
    ids = np.full((lengths.max(), len(captions)), decoder.eos_id)
    for i, tokens in enumerate(captions):
        ids[:len(tokens), i] = tokens
    return rollout(decoder, ctx, init_rows, lengths,
                   lambda t, _logits, live: ids[t][live], scene)


@dataclass
class BeamHypothesis:
    tokens: tuple
    score: float
    ended: bool
    emissions: tuple = field(default=(), repr=False)


def beam_search(decoder, ctx, init_state, t_max, width=5):
    """Length-unnormalized log-prob beam search over the S scenes of ctx,
    from init_state's S rows (row s starts scene s).

    The alive beams of all scenes are the rows of one decode step per
    timestep, scene-major, with a row->scene index.  Each scene's candidates
    rank by score, then lexicographically on the token sequence, so width 1
    reproduces greedy decoding exactly; the first `width` go on.  Completed
    hypotheses (eos) retire into their scene's pool.  Returns each scene's
    pool, best first.
    """
    if width < 1:
        raise ContractError("beam_search: width must be >= 1")
    n_scenes = ctx.n_scenes
    if init_state[0][0].data.shape[0] != n_scenes:
        raise DimensionError(
            f"beam_search: {init_state[0][0].data.shape[0]} initial rows for "
            f"{n_scenes} scenes")
    vocab_size = decoder.vocab_size
    eos_id = decoder.eos_id
    # only candidates that reach their row's width-th best score are ranked:
    # any other one has `width` better ones in its own row already
    kth = max(vocab_size - width, 0)
    pools = [[] for _ in range(n_scenes)]
    with no_grad():
        scene = np.arange(n_scenes)
        # rank of each row's emitted prefix, ordered by (scene, prefix): the
        # prefixes of one scene are distinct and of equal length, so ranking
        # ties by (prefix rank, token) orders extended sequences
        # lexicographically
        rank = np.arange(n_scenes)
        seqs = np.zeros((n_scenes, 0), dtype=np.intp)
        scores = np.zeros(n_scenes)
        tokens = np.full(n_scenes, decoder.bos_id)
        state = init_state
        for _ in range(t_max):
            logits, state = decode_step(decoder, ctx, state, tokens, scene)
            cand = scores[:, None] + log_softmax(logits).data
            floor = np.partition(cand, kth, axis=1)[:, kth, None]
            r, t = np.nonzero(cand >= floor)
            c = cand[r, t]
            order = np.lexsort((rank[r] * vocab_size + t, -c, scene[r]))
            # keep the first `width` of each scene's block of the ranking
            ranked_scene = scene[r[order]]
            pos = np.arange(order.size) - np.searchsorted(ranked_scene, ranked_scene)
            best = order[pos < width]
            r, t, c = r[best], t[best], c[best]
            for i in np.flatnonzero(t == eos_id).tolist():
                emitted = tuple(seqs[r[i]].tolist())
                pools[scene[r[i]]].append(BeamHypothesis(
                    emitted, float(c[i]), True, emitted + (eos_id,)))
            keep = t != eos_id
            r, tokens, scores = r[keep], t[keep], c[keep]
            if not r.size:
                break
            seqs = np.column_stack((seqs[r], tokens))
            scene = scene[r]
            parent_rank = rank[r]
            rank = np.empty(r.size, dtype=np.intp)
            rank[np.lexsort((tokens, parent_rank))] = np.arange(r.size)
            state = [(Tensor(h.data[r]), Tensor(cell.data[r])) for h, cell in state]
        else:
            for s, seq, score in zip(scene.tolist(), seqs.tolist(), scores.tolist()):
                pools[s].append(BeamHypothesis(tuple(seq), score, False, tuple(seq)))
    for pool in pools:
        pool.sort(key=lambda h: (-h.score, h.emissions))
    return pools
