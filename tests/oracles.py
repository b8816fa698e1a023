"""Brute-force implementations used as independent test oracles.

The metric oracles are written from the definitions with different machinery
(Counter, dict vectors, recursive LCS) than the package implementations.
The LSTM oracle writes out the gate equations for one row of one step at a
time, against which the packed, row-batched LSTM kernel is checked.
The beam-search oracle is the one-beam-at-a-time loop that sorts every
candidate tuple, against which the row-batched search is checked.  The
teacher-forcing oracles run a scene's captions one at a time, each as a
batch of one row (encoder, pooling chain, decoder replay and the
per-caption losses), against which the row-batched passes are checked.
The one-scene oracles run each scene of a split alone (its state-net
target, and its greedy rollout with the teacher trace of that caption),
against which the cross-scene passes are checked.  The self-critical
oracle backpropagates the advantage-weighted log-likelihood directly,
against which the policy-gradient estimator at lam = 0 is checked.
param_hash digests a named parameter set, so a test can show that a frozen
model did not change.
"""

import hashlib
import math
from collections import Counter

import numpy as np

from hsg.autodiff import (Tensor, accumulate, backward, log_softmax, mul, neg,
                          no_grad, record, scene_attention, sum_terms, vec_max,
                          _binary_prep, _tracing, _unbroadcast)
from hsg.student import BeamHypothesis, DecodedRows, decode_step
from hsg.training import joint_mle_loss, state_loss_trace


def count_ngrams(seq, n):
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def bleu4_oracle(cand, refs, smooth=False):
    cand = list(cand)
    if len(cand) == 0:
        return 0.0
    precisions = []
    for n in (1, 2, 3, 4):
        cgrams = count_ngrams(cand, n)
        clipped = 0
        for gram, cnt in cgrams.items():
            best = max(count_ngrams(r, n).get(gram, 0) for r in refs)
            clipped += min(cnt, best)
        guess = len(cand) - n + 1
        if guess <= 0 or clipped == 0:
            if not smooth:
                return 0.0
            precisions.append(1e-9)
        else:
            precisions.append(clipped / guess)
    geo = math.exp(sum(math.log(p) for p in precisions) / 4.0)
    c = len(cand)
    # closest reference length, ties to the shorter
    r = sorted(len(ref) for ref in refs)
    r = min(r, key=lambda length: abs(length - c))
    bp = math.exp(1.0 - r / c) if c < r else 1.0
    return bp * geo


def cider_oracle(cand, refs, m, df_map):
    def tfidf_vec(counts):
        vec = {}
        for gram, cnt in counts.items():
            vec[gram] = cnt * math.log(m / max(1.0, df_map.get(gram, 0)))
        return vec

    def cosine(u, v):
        nu = math.sqrt(sum(x * x for x in u.values()))
        nv = math.sqrt(sum(x * x for x in v.values()))
        if nu > 0 and nv > 0:
            return sum(u[g] * v.get(g, 0.0) for g in u) / (nu * nv)
        return None

    total = 0.0
    for n in (1, 2, 3, 4):
        cg = count_ngrams(cand, n)
        per_ref = 0.0
        for ref in refs:
            rg = count_ngrams(ref, n)
            sim = cosine(tfidf_vec(cg), tfidf_vec(rg))
            if sim is None:
                # all idf weights vanished: fall back to raw counts
                sim = cosine(dict(cg), dict(rg))
                if sim is None:
                    sim = 0.0
            per_ref += sim
        total += 10.0 * per_ref / len(refs)
    return total / 4.0


def _lcs(a, b, i, j, memo):
    if i == 0 or j == 0:
        return 0
    key = (i, j)
    if key not in memo:
        if a[i - 1] == b[j - 1]:
            memo[key] = _lcs(a, b, i - 1, j - 1, memo) + 1
        else:
            memo[key] = max(_lcs(a, b, i - 1, j, memo), _lcs(a, b, i, j - 1, memo))
    return memo[key]


def rouge_l_oracle(cand, refs, beta=1.2):
    cand = list(cand)
    if not cand:
        return 0.0
    best = 0.0
    for ref in refs:
        ref = list(ref)
        if not ref:
            continue
        lcs = _lcs(cand, ref, len(cand), len(ref), {})
        if lcs == 0:
            continue
        p = lcs / len(cand)
        r = lcs / len(ref)
        f = (1 + beta ** 2) * p * r / (r + beta ** 2 * p)
        best = max(best, f)
    return best


WORD_POOL = ("sun", "moon", "star", "cloud", "rain", "wind", "snow", "leaf",
             "stone", "river")


def handcrafted_pairs(n_pairs=50):
    """Deterministic candidate/reference pairs covering overlap regimes."""
    pairs = [
        (["a", "b", "c", "d"], [["a", "b", "c", "d"]]),
        (["a", "b", "c", "d", "e"], [["a", "b", "c", "d", "f"]]),
        (["a", "b", "c"], [["a", "x", "c"]]),
        (["x"], [["a", "b", "c", "d"]]),
        ([], [["a", "b"]]),
        (["a", "a", "a", "a"], [["a", "a"], ["a", "b", "a"]]),
    ]
    state = 1234567
    while len(pairs) < n_pairs:
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
        length = 3 + state % 9
        cand = [WORD_POOL[(state >> (4 * i)) % len(WORD_POOL)] for i in range(length)]
        refs = []
        for r in range(1 + state % 3):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 63)
            rlen = 3 + state % 9
            refs.append([WORD_POOL[(state >> (3 * i + r)) % len(WORD_POOL)]
                         for i in range(rlen)])
        pairs.append((cand, refs))
    return pairs[:n_pairs]


def lstm_layer_oracle(cell, x, batch_sizes, h0, c0):
    """lstm_layer's forward from the gate equations, one sequence's row of
    one step at a time, on plain arrays: x the packed (N, d) inputs, h0 and
    c0 the (batch_sizes[0], H) initial rows.  Returns the (N, H) h rows and
    the final h and c of every sequence."""
    w_ih, w_hh, b = cell.w_ih.data, cell.w_hh.data, cell.b.data
    hd = cell.hidden_dim

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    h, c = [np.array(r) for r in h0], [np.array(r) for r in c0]
    hs, start = [], 0
    for n in batch_sizes:
        for j in range(n):
            z = w_ih @ x[start + j] + w_hh @ h[j] + b
            i, f = sigmoid(z[:hd]), sigmoid(z[hd:2 * hd])
            g, o = np.tanh(z[2 * hd:3 * hd]), sigmoid(z[3 * hd:])
            c[j] = f * c[j] + i * g
            h[j] = o * np.tanh(c[j])
            hs.append(h[j])
        start += n
    return np.array(hs), np.array(h), np.array(c)


def beam_search_oracle(decoder, ctx, init_state, t_max, width, bos_id):
    """Beam search with one decode step per alive beam and a sort of all
    W·V candidate tuples by (-score, emitted); returns the sorted pool."""
    pool = []
    with no_grad():
        alive = [((), 0.0, init_state, bos_id)]
        for _ in range(t_max):
            candidates = []
            for emitted, score, state, prev in alive:
                logits, nstate = decode_step(decoder, ctx, state, np.array([prev]))
                lp = log_softmax(logits).data[0]
                for tok in range(decoder.vocab_size):
                    candidates.append(
                        (emitted + (tok,), score + float(lp[tok]), nstate))
            candidates.sort(key=lambda cand: (-cand[1], cand[0]))
            alive = []
            for emitted, score, state in candidates[:width]:
                if emitted[-1] == decoder.eos_id:
                    pool.append(BeamHypothesis(emitted[:-1], score, True, emitted))
                else:
                    alive.append((emitted, score, state, emitted[-1]))
            if not alive:
                break
        for emitted, score, _state, _prev in alive:
            pool.append(BeamHypothesis(emitted, score, False, emitted))
    pool.sort(key=lambda h: (-h.score, h.emissions))
    return pool


def max_elementwise(a, b):
    """Elementwise max; on ties the gradient is routed to the first input."""
    a, b = _binary_prep(a, b, "max_elementwise")
    take_a = a.data >= b.data
    out = Tensor(np.where(take_a, a.data, b.data))
    if _tracing(a, b):
        def bwd():
            g = out.grad
            accumulate(a, _unbroadcast(np.where(take_a, g, 0.0), a.data.shape))
            accumulate(b, _unbroadcast(np.where(take_a, 0.0, g), b.data.shape))
        record(bwd, out)
    return out


def encode_oracle(encoder, caption_ids, feats):
    """One caption through the encoder, one one-row step per token:
    (h1, c1, h2, c2) finals."""
    keys = encoder.attention.keys(feats)
    scene = np.zeros(1, dtype=np.intp)
    h = encoder.hidden_dim
    h1, c1, h2, c2 = (Tensor(np.zeros((1, h))) for _ in range(4))
    for tok in caption_ids:
        e = encoder.embedding.lookup(np.array([tok]))
        h1, c1 = encoder.word_lstm.step(e, h1, c1)
        gate = vec_max(scene_attention(h1, keys, feats, scene)[0])
        h2, c2 = encoder.caption_lstm.step(mul(gate, e), h2, c2)
    return h1, c1, h2, c2


def encode_pooled_oracle(teacher, caption_id_lists, feats):
    """Per-caption encodes pooled by a chain of elementwise maxima, earlier
    captions winning ties."""
    finals = [encode_oracle(teacher.encoder, teacher.frame(ids), feats)
              for ids in caption_id_lists]

    def pooled(k):
        acc = finals[0][k]
        for f in finals[1:]:
            acc = max_elementwise(acc, f[k])
        return acc

    if teacher.decoder.family == "fc":
        return [(pooled(2), pooled(3))]
    return [(pooled(0), pooled(1)), (pooled(2), pooled(3))]


def forced_oracle(decoder, ctx, init_state, tokens, ended, bos_id):
    """One caption replayed with one one-row decode_step per emission, into
    DecodedRows built by hand: its trace holds the h rows after each step,
    init first."""
    emissions = list(tokens) + ([decoder.eos_id] if ended else [])
    state, trace, logits = init_state, [[h for h, _c in init_state]], []
    for prev in ([bos_id] + emissions)[:len(emissions)]:
        step_logits, state = decode_step(decoder, ctx, state, np.array([prev]))
        logits.append(step_logits)
        trace.append([h for h, _c in state])
    return DecodedRows([emissions], np.array([bool(ended)]), logits, trace,
                       np.array(emissions, dtype=np.intp))


def mle_loss_oracle(decoder, ctx, init_state, captions, bos_id, teacher_traces=None,
                    lam=0.0):
    """Mean over captions of the negative log-likelihood, plus lam times the
    state losses against each caption's one-row teacher trace; also returns
    the per-caption replays."""
    replays, terms = [], []
    for i, ids in enumerate(captions):
        forced = forced_oracle(decoder, ctx, init_state, ids, True, bos_id)
        replays.append(forced)
        ll = neg(forced.log_likelihood())
        if lam > 0:
            losses = state_loss_trace(forced.trace[:len(ids) + 1], teacher_traces[i])
            ll = joint_mle_loss(ll, losses, lam)
        terms.append(ll)
    return sum_terms(terms) * (1.0 / len(captions)), replays


def greedy_oracle(decoder, ctx, init_state, t_max, bos_id):
    """One-row argmax decoding, one decode_step per emission and ties to the
    lowest id: (content ids, ended, the h rows after each step, init first)."""
    state, emitted, prev = init_state, [], bos_id
    trace = [[h for h, _c in init_state]]
    with no_grad():
        for _ in range(t_max):
            logits, state = decode_step(decoder, ctx, state, np.array([prev]))
            prev = int(np.argmax(log_softmax(logits).data[0]))
            trace.append([h for h, _c in state])
            emitted.append(prev)
            if prev == decoder.eos_id:
                return emitted[:-1], True, trace
    return emitted, False, trace


def scst_oracle(tape, rollout, greedy, refs, reward_fn):
    """Self-critical policy gradients written out directly: backpropagate
    -advantage * log-likelihood of the rollout."""
    adv = reward_fn(rollout.tokens, refs) - reward_fn(greedy.tokens, refs)
    backward(tape, neg(rollout.log_likelihood()) * adv)


def state_net_target_oracle(teacher, vocab, rec):
    """One scene's state-net target: the h rows of its pooled gold captions."""
    content = [vocab.encode(cap) for cap in rec.captions]
    with no_grad():
        init = encode_pooled_oracle(teacher, content, Tensor(rec.features[None]))
    return [h.data for h, _c in init]


def greedy_state_loss_oracle(student, teacher, rec, t_max, bos_id):
    """One scene alone: its greedy caption and the mean per-step state loss
    against the teacher's trace of that caption, its sole encoder input."""
    with no_grad():
        ctx = student.decoder.begin(rec.features)
        tokens, _ended, trace = greedy_oracle(
            student.decoder, ctx, student.initial_state(ctx), t_max, bos_id)
        tctx = teacher.decoder.begin(rec.features)
        init = encode_pooled_oracle(teacher, [tokens], tctx.feats)
        target = forced_oracle(teacher.decoder, tctx, init, tokens, False, bos_id)
        losses = state_loss_trace(trace[:len(tokens) + 1], target.trace)
    return tokens, sum(loss.item() for loss in losses) / len(losses)


def param_hash(named_params):
    """sha256 over the parameters in name order: each name, then its bytes."""
    digest = hashlib.sha256()
    for name, p in sorted(named_params.items()):
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    return digest.hexdigest()
