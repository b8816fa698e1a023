"""Loss functions and the two training regimes.

Maximum-likelihood training minimizes L_ll plus a weighted sum of per-step
hidden-state losses against teacher traces computed from the gold captions.
REINFORCE training samples a caption, uses the greedy caption's reward as a
variance-reduction baseline, and optionally adds word-level intermediate
rewards: each emission's coefficient gets the suffix sum of the hidden-state
losses, and the fully differentiable state-loss pathway is added on top.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    Tensor, Tape, ContractError, backward, mul, neg, no_grad, squared_l2,
    stack_rows, sum_terms, tensor_sum,
)
from .metrics import CiderRefs, bleu4, cider, rouge_l
from .student import (
    StateTransformNet, beam_search, greedy_decode, sample_decode,
    teacher_forced,
)

__all__ = [
    "RewardTrace", "state_loss_trace", "joint_mle_loss",
    "hsg_gradients", "pretrain_state_net", "train_student",
    "make_reward_fn", "evaluate_split", "clip_gradients", "sgd_update",
    "zero_gradients", "sgd_step", "collect_gradients", "TrainingDiverged",
]

# The most decode rows, or packed encoder rows (caption positions), one
# cross-scene pass runs at once: a split is cut into chunks of whole scenes
# under it, so a pass's temporaries stay bounded however many scenes the
# split holds.  512 beam-decodes 100 scenes at width 5 in one pass.
MAX_PASS_ROWS = 512


class TrainingDiverged(RuntimeError):
    """Raised when a training loss or gradient norm stops being finite."""


def state_loss_trace(student_trace, teacher_trace):
    """Per-step squared L2 between student and teacher hidden states h.

    Both traces are lists (over t) of per-layer h row batches
    (DecodedRows.trace), one row per caption; a step's loss sums over the
    rows.  The teacher side must be constant tensors; gradients flow only
    into the student rows.  Layer losses are summed.
    """
    if len(student_trace) != len(teacher_trace):
        raise ContractError(
            f"state_loss_trace: trace lengths {len(student_trace)} and "
            f"{len(teacher_trace)} differ")
    losses = []
    for s_rows, t_rows in zip(student_trace, teacher_trace):
        if len(s_rows) != len(t_rows):
            raise ContractError(
                f"state_loss_trace: layer counts {len(s_rows)} and "
                f"{len(t_rows)} differ")
        losses.append(sum_terms([squared_l2(sh, Tensor(th.data))
                                 for sh, th in zip(s_rows, t_rows)]))
    return losses


def joint_mle_loss(ll, state_losses, lam):
    """L_ll + lam * sum of state losses; lam = 0 returns L_ll unchanged."""
    if lam < 0:
        raise ContractError(f"joint_mle_loss: negative weight {lam}")
    if lam == 0 or not state_losses:
        return ll
    return ll + sum_terms(state_losses) * lam


@dataclass
class RewardTrace:
    """Bookkeeping of one policy-gradient step."""
    reward: float
    baseline: float
    advantage: float
    state_losses: list = field(default_factory=list)
    coefficients: list = field(default_factory=list)


def hsg_gradients(tape, rollout, greedy, refs, reward_fn, teacher, lam, features):
    """Policy gradients with hidden-state guidance, the one policy-gradient
    estimator; lam = 0 is self-critical sequence training.

    Every emission is weighted by -advantage, the sampled caption's reward
    less the greedy caption's.  With lam != 0 the sampled caption is fed to
    the frozen teacher autoencoder (as the sole encoder input) and
    teacher-forced through the teacher decoder to produce the target trace;
    emission m's weight then gains lam * suffix_sum(state losses from m-1),
    with the losses held constant inside the score term, and the
    differentiable pathway lam * sum_t L_t is added separately.  With
    lam = 0 no teacher trace is taken.
    """
    r = reward_fn(rollout.tokens, refs)
    b = reward_fn(greedy.tokens, refs)
    adv = r - b
    coeffs = [-adv] * rollout.targets.size
    vals, terms = [], []
    if lam != 0:
        teacher_trace = teacher.trace_for_tokens(rollout.tokens, features)
        losses = state_loss_trace(rollout.trace, teacher_trace)
        vals = [loss.item() for loss in losses]
        suffix = [0.0] * (len(vals) + 1)
        for t in range(len(vals) - 1, -1, -1):
            suffix[t] = vals[t] + suffix[t + 1]
        coeffs = [c + lam * s for c, s in zip(coeffs, suffix)]
        terms.append(sum_terms(losses) * lam)
    backward(tape, sum_terms(
        [tensor_sum(mul(rollout.log_prob_rows(), Tensor(coeffs)))] + terms))
    return RewardTrace(r, b, adv, vals, coeffs)


def make_reward_fn(metric, vocab, doc_freq):
    """Sentence reward over word sequences; candidate ids are decoded first."""
    if metric == "cider":
        def fn(tokens, refs):
            return cider(vocab.decode(tokens), refs, doc_freq)
    elif metric == "bleu4":
        def fn(tokens, refs):
            return bleu4(vocab.decode(tokens), refs, smooth=True)
    elif metric == "rouge_l":
        def fn(tokens, refs):
            return rouge_l(vocab.decode(tokens), refs)
    else:
        raise ContractError(f"unknown reward metric {metric!r}")
    return fn


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm.

    Raises TrainingDiverged when the norm is not finite, so that no step
    applies NaN or infinite gradients.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.dot(p.grad.reshape(-1), p.grad.reshape(-1)))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise TrainingDiverged(f"global gradient norm became {norm}")
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def sgd_update(params, lr):
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


def zero_gradients(params):
    for p in params:
        p.grad = None


def sgd_step(params, lr, max_norm):
    """The one update rule of every training loop: clip the gradients to a
    global norm of max_norm, take an SGD step of size lr, zero them."""
    clip_gradients(params, max_norm)
    sgd_update(params, lr)
    zero_gradients(params)


def collect_gradients(named_params):
    """Snapshot name -> gradient array (zeros when untouched)."""
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for name, p in named_params.items()}


def _state_net_targets(records, teacher, vocab):
    """Per record, the teacher's pooled initial h rows from its gold
    captions; each chunk of scenes runs as one encoder pass, which holds
    every position of its captions at once (_scene_chunks, one row per
    framed caption position)."""
    contents = [[vocab.encode(cap) for cap in rec.captions] for rec in records]
    packed = [sum(len(ids) + 2 for ids in content)  # framed: bos ... eos
              for content in contents]
    targets = [None] * len(records)
    with no_grad():
        for idx in _scene_chunks(records, lambda i: packed[i]):
            scene = np.repeat(np.arange(len(idx)), [len(contents[i]) for i in idx])
            init = teacher.encode_pooled(
                [ids for i in idx for ids in contents[i]],
                Tensor(np.stack([records[i].features for i in idx])), scene)
            for s, i in enumerate(idx):
                targets[i] = [h.data[s:s + 1] for h, _c in init]
    return targets


def pretrain_state_net(records, teacher, vocab, cfg, log=print):
    """Fit the state transformation network to the teacher's initial states.

    The target for a scene is the teacher's pooled initial hidden state from
    its gold captions (the t = 0 state loss); only h is fitted, c stays zero.
    """
    rng = np.random.default_rng([cfg.seed, 431])
    net = StateTransformNet(records[0].features.shape[1],
                            teacher.decoder.layer_dims, rng)
    params = list(net.named_parameters().values())

    targets = _state_net_targets(records, teacher, vocab)
    order = rng.permutation(len(records))
    final_loss = 0.0
    for step in range(cfg.statenet_steps):
        idx = int(order[step % len(records)])
        if step > 0 and step % len(records) == 0:
            order = rng.permutation(len(records))
        rec = records[idx]
        with Tape() as tape:
            hs = net(Tensor(rec.features.mean(axis=0, keepdims=True)))
            loss = sum_terms([squared_l2(h, Tensor(target))
                              for h, target in zip(hs, targets[idx])])
            if not math.isfinite(loss.item()):
                raise TrainingDiverged(f"state net loss became {loss.item()}")
            backward(tape, loss)
        sgd_step(params, cfg.statenet_lr, cfg.grad_clip)
        final_loss = loss.item()

    with no_grad():
        hs = net(Tensor(np.stack([rec.features.mean(axis=0) for rec in records])))
    mean_loss = sum(float(np.sum((h.data - np.concatenate(layer)) ** 2))
                    for h, layer in zip(hs, zip(*targets))) / len(records)
    log(f"state net: final step loss {final_loss:.6f}, mean loss {mean_loss:.6f}")
    return net


class StudentModel:
    """Deployed caption model: decoder plus state transformation network."""

    def __init__(self, decoder, statenet):
        self.decoder = decoder
        self.statenet = statenet

    def named_parameters(self):
        params = dict(self.decoder.named_parameters("decoder"))
        params.update(self.statenet.named_parameters("statenet"))
        return params

    def initial_state(self, ctx):
        return self.statenet.initial_state(ctx.vbar)


def build_student(teacher, statenet):
    """Fresh student initialized with the teacher decoder's parameters.

    The decoder and the state transformation network are deep copies, so
    training the student never mutates the teacher or the pretrained network
    handed in.  The copied decoder is trainable, though the teacher's is
    frozen.
    """
    student = copy.deepcopy(StudentModel(teacher.decoder, statenet))
    for p in student.decoder.named_parameters("decoder").values():
        p.requires_grad = True
    return student


def _scene_chunks(records, rows_per_scene):
    """Lists of record indices that one cross-scene pass each can take: the
    scenes of a list share their feature shape (K objects), and their rows,
    rows_per_scene(i) for record i, add up to at most MAX_PASS_ROWS unless one
    scene alone has more.  Indices ascend within a list."""
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault(rec.features.shape, []).append(i)
    for idx in groups.values():
        chunk, rows = [], 0
        for i in idx:
            n = rows_per_scene(i)
            if chunk and rows + n > MAX_PASS_ROWS:
                yield chunk
                chunk, rows = [], 0
            chunk.append(i)
            rows += n
        yield chunk


def evaluate_split(student, records, vocab, doc_freq, beam_width, t_max,
                   refs=None):
    """Beam-decode a split and average the sentence-level metrics.

    Scenes with the same feature shape (K objects) are beam-decoded together
    as the scenes of one context, at most MAX_PASS_ROWS beam rows at once;
    the metrics add up in record order.  refs holds each record's reference
    set prepared for CIDEr (CiderRefs under doc_freq); without it each set
    is prepared where it is scored.
    """
    if not records:
        raise ContractError("evaluate_split: no records to evaluate")
    best = [None] * len(records)
    with no_grad():
        for idx in _scene_chunks(records, lambda _i: beam_width):
            ctx = student.decoder.begin(np.stack([records[i].features for i in idx]))
            found = beam_search(student.decoder, ctx, student.initial_state(ctx),
                                t_max, width=beam_width)
            for i, pool in zip(idx, found):
                best[i] = pool[0]
    sums = {"bleu4": 0.0, "rouge_l": 0.0, "cider": 0.0}
    for i, (rec, hyp) in enumerate(zip(records, best)):
        words = vocab.decode(hyp.tokens)
        sums["bleu4"] += bleu4(words, rec.captions)
        sums["rouge_l"] += rouge_l(words, rec.captions)
        sums["cider"] += cider(words, rec.captions if refs is None else refs[i],
                               doc_freq)
    return {k: v / len(records) for k, v in sums.items()}


def _row_state_losses(student_rows, teacher_rows):
    """state_loss_trace's per-step loss for each row of one step's h rows."""
    total = 0.0
    for sh, th in zip(student_rows, teacher_rows):
        d = sh.data - th.data
        total = total + np.einsum("ij,ij->i", d, d)
    return total


def _greedy_state_losses(student, teacher, records, t_max):
    """Per record, in record order: the content ids of the greedy caption
    and the mean per-step hidden-state loss against the teacher's trace of
    that caption.

    Each chunk of scenes with the same K (_scene_chunks, one row per scene)
    runs as one greedy rollout whose rows retire at eos and one teacher-forced
    pass over the greedy captions.  Each scene's greedy caption is its sole
    encoder input; the encoder takes the chunk's scenes in runs of at most
    MAX_PASS_ROWS packed rows (_scene_chunks, one row per framed caption
    position).
    """
    out = [None] * len(records)
    with no_grad():
        for idx in _scene_chunks(records, lambda _i: 1):
            features = np.stack([records[i].features for i in idx])
            scene = np.arange(len(idx))
            ctx = student.decoder.begin(features)
            greedy = greedy_decode(student.decoder, ctx, student.initial_state(ctx),
                                   t_max, scene=scene)
            captions = greedy.captions
            content = np.array([len(tokens) for tokens in captions])
            pooled = [teacher.encode_pooled(captions[run[0]:run[-1] + 1],
                                            Tensor(features[run[0]:run[-1] + 1]),
                                            np.arange(len(run)))
                      for run in _scene_chunks([records[i] for i in idx],
                                               lambda s: content[s] + 2)]  # bos ... eos
            init = [tuple(stack_rows([p[layer][j] for p in pooled]) for j in (0, 1))
                    for layer in range(len(pooled[0]))]
            t_ctx = teacher.decoder.begin(features)
            teacher_trace = teacher_forced(teacher.decoder, t_ctx, init, captions,
                                           False, scene).trace
            # both traces keep, at step t, the captions with >= t content ids
            sums, steps = np.zeros(len(idx)), np.zeros(len(idx))
            for t, (s_rows, t_rows) in enumerate(zip(greedy.trace, teacher_trace)):
                rows = np.flatnonzero(content >= t)
                sums[rows] += _row_state_losses(s_rows, t_rows)
                steps[rows] += 1
            for s, i in enumerate(idx):
                out[i] = (captions[s], float(sums[s] / steps[s]))
    return out


def _mean_state_loss(student, teacher, records, t_max):
    """Mean over a split's scenes of _greedy_state_losses, added in record
    order."""
    losses = _greedy_state_losses(student, teacher, records, t_max)
    return sum(loss for _tokens, loss in losses) / len(records)


def train_student(train_records, val_records, teacher, statenet, vocab,
                  doc_freq, cfg, log=print):
    """Train the student under one of the four modes.

    scst modes run cfg.mle_warmup_epochs of plain maximum likelihood before
    the REINFORCE epochs.  Every epoch beam-decodes the validation split and
    appends a history line; the parameters with the best validation CIDEr
    are restored at the end.
    """
    if teacher is None:
        raise ContractError("train_student: a pretrained teacher is required")
    if cfg.mode not in ("mle", "mle_hsg", "scst", "scst_hsg"):
        raise ContractError(f"train_student: unknown mode {cfg.mode!r}")

    student = build_student(teacher, statenet)
    params_named = student.named_parameters()
    params = list(params_named.values())
    rng = np.random.default_rng([cfg.seed, 101])
    reward_fn = make_reward_fn(cfg.reward_metric, vocab, doc_freq)
    lam = cfg.state_loss_weight if cfg.mode.endswith("hsg") else 0.0

    if cfg.mode.startswith("mle"):
        phases = [("mle", cfg.epochs, lam)]
    else:
        phases = [("mle", cfg.mle_warmup_epochs, 0.0), ("rl", cfg.epochs, lam)]

    content_cache = {
        rec.scene_id: [vocab.encode(cap) for cap in rec.captions]
        for rec in train_records}
    # every CIDEr score of the run reads reference sets prepared here, once
    val_refs = [CiderRefs(rec.captions, doc_freq) for rec in val_records]
    reward_refs = {rec.scene_id: rec.captions for rec in train_records}
    if cfg.reward_metric == "cider" and cfg.mode.startswith("scst"):
        reward_refs = {scene_id: CiderRefs(refs, doc_freq)
                       for scene_id, refs in reward_refs.items()}
    trace_cache = {}
    if cfg.mode == "mle_hsg" and lam > 0:
        for rec in train_records:
            trace_cache[rec.scene_id] = teacher.traces(
                content_cache[rec.scene_id], rec.features)

    history = []
    best = (-1.0, None)
    epoch = 0
    for phase, n_epochs, phase_lam in phases:
        for _ in range(n_epochs):
            order = rng.permutation(len(train_records))
            for idx in order:
                rec = train_records[int(idx)]
                if phase == "mle":
                    _mle_step(student, rec, content_cache[rec.scene_id],
                              trace_cache.get(rec.scene_id), phase_lam, params, cfg)
                else:
                    _rl_step(student, teacher, rec, reward_refs[rec.scene_id],
                             reward_fn, phase_lam, params, cfg, rng)
            metrics = evaluate_split(student, val_records, vocab, doc_freq,
                                     cfg.beam_width, cfg.t_max, val_refs)
            msl = _mean_state_loss(student, teacher, val_records, cfg.t_max)
            line = {"epoch": epoch, "split": "val",
                    "bleu4": metrics["bleu4"], "rouge_l": metrics["rouge_l"],
                    "cider": metrics["cider"], "mean_state_loss": msl}
            history.append(line)
            log(f"epoch {epoch} ({phase}): val cider {line['cider']:.4f} "
                f"bleu4 {line['bleu4']:.4f} state_loss {msl:.4f}")
            if line["cider"] > best[0]:
                best = (line["cider"],
                        {n: p.data.copy() for n, p in params_named.items()})
            epoch += 1

    if best[1] is not None:
        for name, data in best[1].items():
            params_named[name].data[...] = data
    return student, history


def _mle_step(student, rec, content_lists, teacher_traces, lam, params, cfg):
    with Tape() as tape:
        ctx = student.decoder.begin(rec.features)
        init = student.initial_state(ctx)
        forced = teacher_forced(student.decoder, ctx, init, content_lists, True)
        loss = neg(forced.log_likelihood())
        if lam > 0:
            loss = joint_mle_loss(
                loss, state_loss_trace(forced.trace, teacher_traces), lam)
        loss = loss * (1.0 / len(content_lists))
        if not math.isfinite(loss.item()):
            raise TrainingDiverged(f"student loss became {loss.item()}")
        backward(tape, loss)
    sgd_step(params, cfg.lr, cfg.grad_clip)


def _rl_step(student, teacher, rec, refs, reward_fn, lam, params, cfg, rng):
    with Tape() as tape:
        ctx = student.decoder.begin(rec.features)
        init = student.initial_state(ctx)
        rollout = sample_decode(student.decoder, ctx, init, cfg.t_max, rng)
        greedy = greedy_decode(student.decoder, ctx, init, cfg.t_max)
        hsg_gradients(tape, rollout, greedy, refs, reward_fn, teacher, lam,
                      features=rec.features)
    sgd_step(params, cfg.rl_lr, cfg.grad_clip)
