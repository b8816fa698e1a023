"""Built-in verification suites.

grad_check_suite drives central finite differences over every registered
operation plus the composite losses.  enum_check exhaustively enumerates all
rollouts of a tiny decoder and compares the probability-weighted policy
gradients against the analytic gradient of the enumerated objective.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, Tape, backward, grad_check, no_grad
from .layers import AttentionHead, Embedding, Linear, LstmCell, lstm_layer
from .metrics import build_doc_freq, cider
from .student import DECODERS, StateTransformNet, greedy_decode, teacher_forced
from .teacher import build_teacher
from .training import (
    collect_gradients, hsg_gradients, joint_mle_loss,
    state_loss_trace, zero_gradients,
)

__all__ = ["grad_check_suite", "enum_check", "enumerate_rollouts"]

GRAD_TOL = 1e-5
ENUM_TOL = 1e-8


def _rand(rng, shape):
    return ad.parameter(rng.uniform(-1.0, 1.0, size=shape))


def _op_cases(seed):
    """Yield (name, f, inputs) triples for one seed: one case per op, on
    (B, d) rows where the op takes rows, with repeated row and scene ids so
    those gradients sum over the rows."""
    rng = np.random.default_rng(seed)
    ids = np.array([1, 3, 1])
    scene = np.array([1, 0, 1])
    scene_of_row = np.array([1, 0, 1, 1])
    a6, b6 = _rand(rng, 6), _rand(rng, 6)
    yield "add", lambda a, b: ad.tensor_sum(ad.mul(ad.add(a, b), a)), (a6, b6)
    yield "mul", lambda a, b: ad.tensor_sum(ad.mul(a, b)), (a6, b6)
    yield "neg", lambda a: ad.tensor_sum(ad.mul(ad.neg(a), a)), (_rand(rng, 5),)
    yield "scalar_mul", lambda a: ad.tensor_sum(a * 1.7 + 0.3), (_rand(rng, 5),)
    yield ("scalar_broadcast",
           lambda a, s: ad.tensor_sum(ad.mul(a, s) + ad.add(a, s)),
           (_rand(rng, 5), _rand(rng, ())))
    yield ("concat", lambda m, v, n: ad.tensor_sum(ad.tanh(ad.concat([m, v, n]))),
           (_rand(rng, (3, 2)), _rand(rng, (3, 4)), _rand(rng, (3, 1))))
    yield "tensor_sum", ad.tensor_sum, (_rand(rng, (3, 3)),)
    # a repeated term must receive its gradient once per occurrence
    yield ("sum_terms", lambda a, b, c: ad.tensor_sum(ad.tanh(ad.sum_terms([a, b, a, c]))),
           (_rand(rng, 4), _rand(rng, 4), _rand(rng, 4)))
    yield "tanh", lambda a: ad.tensor_sum(ad.tanh(a)), (_rand(rng, 6),)
    yield "exp", lambda a: ad.tensor_sum(ad.exp(a)), (_rand(rng, 6),)
    yield ("log_softmax", lambda a: ad.tensor_sum(ad.mul(ad.log_softmax(a), a)),
           (_rand(rng, (3, 5)),))
    yield "vec_max", lambda a: ad.tensor_sum(ad.tanh(ad.vec_max(a))), (_rand(rng, (3, 5)),)
    yield ("max_rows", lambda m: ad.tensor_sum(ad.tanh(ad.max_rows(m, scene_of_row))),
           (_rand(rng, (4, 3)),))
    yield "pick", lambda a: ad.tensor_sum(ad.tanh(ad.pick(a, ids))), (_rand(rng, (3, 4)),)
    yield "row", lambda w: ad.tensor_sum(ad.tanh(ad.row(w, ids))), (_rand(rng, (4, 3)),)
    yield ("stack_rows", lambda a, b: ad.tensor_sum(ad.tanh(ad.stack_rows([a, b, a]))),
           (_rand(rng, (2, 3)), _rand(rng, (1, 3))))
    yield ("scale_rows", lambda s, m: ad.tensor_sum(ad.tanh(ad.scale_rows(s, m))),
           (_rand(rng, 3), _rand(rng, (3, 4))))
    yield ("affine", lambda w, m, b: ad.tensor_sum(ad.tanh(ad.affine(w, m, b))),
           (_rand(rng, (3, 4)), _rand(rng, (5, 4)), _rand(rng, 3)))
    yield ("reshape", lambda a, b: ad.tensor_sum(ad.tanh(ad.mul(ad.reshape(a, (3, 4)), b))),
           (_rand(rng, (2, 6)), _rand(rng, (3, 4))))
    mix_weights = Tensor(rng.uniform(-1, 1, (3, 4)))

    def scene_attention_f(q, keys, values):
        weights, mixed = ad.scene_attention(q, keys, values, scene)
        return ad.tensor_sum(ad.mul(weights, mix_weights)) + ad.tensor_sum(ad.tanh(mixed))

    yield ("scene_attention", scene_attention_f,
           (_rand(rng, (3, 2)), _rand(rng, (2, 4, 2)), _rand(rng, (2, 4, 3))))
    yield "squared_l2", ad.squared_l2, (_rand(rng, 8), _rand(rng, 8))


def _composite_cases(seed):
    rng = np.random.default_rng(seed)

    cell = LstmCell(4, 3, rng)
    x, h, c = _rand(rng, (3, 4)), _rand(rng, (3, 3)), _rand(rng, (3, 3))

    def lstm_f(*_):
        hn, cn = cell.step(x, h, c)
        return ad.tensor_sum(ad.mul(hn, hn) + ad.mul(cn, cn))

    yield "lstm_step", lstm_f, (x, h, c, cell.w_ih, cell.w_hh, cell.b)

    head = AttentionHead(4, 3, rng)
    q = _rand(rng, (3, 3))
    feats = _rand(rng, (2, 3, 4))
    weights = Tensor(rng.uniform(-1, 1, (3, 3)))

    def attention_f(*_):
        alpha, _mixed = ad.scene_attention(q, head.keys(feats), feats,
                                           np.array([1, 0, 1]))
        return ad.tensor_sum(ad.mul(alpha, weights))

    # proj.b is excluded: it shifts all scores equally, so the weights are
    # exactly invariant to it (its gradient here is identically zero)
    yield "attention_weights", attention_f, (q, head.proj.w, feats)

    logits = _rand(rng, (1, 6))
    yield ("softmax_cross_entropy",
           lambda lg: ad.neg(ad.pick(ad.log_softmax(lg), np.array([2]))), (logits,))

    s_trace = [[_rand(rng, (2, 3))] for _ in range(3)]
    t_trace = [[Tensor(rng.uniform(-1, 1, (2, 3)))] for _ in range(3)]

    def state_f(*_):
        losses = state_loss_trace(s_trace, t_trace)
        return joint_mle_loss(ad.tensor_sum(s_trace[0][0]), losses, 0.7)

    yield "state_loss_and_joint", state_f, tuple(h for rows in s_trace for h in rows)

    net = StateTransformNet(4, [3], rng)
    vbar = _rand(rng, (1, 4))

    def transform_f(*_):
        return ad.squared_l2(net(vbar)[0], Tensor(np.ones((1, 3))))

    net_params = tuple(net.named_parameters().values())
    yield "state_transform", transform_f, (vbar, *net_params)

    emb = Embedding(5, 3, rng)
    out = Linear(3, 5, rng)

    def tiny_decode_f(*_):
        hcur = ad.tanh(ad.add(emb.lookup(np.array([1])), emb.lookup(np.array([3]))))
        return ad.neg(ad.pick(ad.log_softmax(out(hcur)), np.array([0])))

    yield "embed_project_nll", tiny_decode_f, (emb.w, out.w, out.b)

    # a generator of its own, so the cases above keep their inputs
    rng = np.random.default_rng([seed, 1604])
    layer_cell = LstmCell(3, 2, rng)
    xs = _rand(rng, (6, 3))  # 3 sequences of lengths 3, 2 and 1, packed
    h_weights = Tensor(rng.uniform(-1, 1, (6, 2)))
    h0, c0 = _rand(rng, (3, 2)), _rand(rng, (3, 2))

    def lstm_layer_f(*_):
        h_all, (h_fin, c_fin) = lstm_layer(layer_cell, xs, [3, 2, 1], (h0, c0))
        return (ad.tensor_sum(ad.mul(h_all, h_weights)) + ad.tensor_sum(ad.mul(h_fin, h_fin))
                + ad.tensor_sum(ad.mul(c_fin, c_fin)))

    yield ("lstm_layer", lstm_layer_f,
           (xs, h0, c0, layer_cell.w_ih, layer_cell.w_hh, layer_cell.b))


def _hsg_pathway_case(seed):
    """Differentiable pathway of the guided policy gradient: lam * sum of
    state losses through a teacher-forced replay of a rollout.  Dims are
    kept minimal so no parameter coordinate has a vanishing gradient, where
    central differences measure only roundoff."""
    world = _TinyWorld("fc", seed, vocab_size=4, t_max=3, hidden=2,
                       feature_dim=2, k=2, embed=2)

    def f(*_):
        terms = []
        # two rollouts with per-step weights keep every parameter's gradient
        # well away from zero, where finite differences are pure noise
        for tokens in ([1, 2], [3, 1, 2]):
            with no_grad():
                t_trace = world.teacher.trace_for_tokens(tokens, world.features)
            ctx = world.decoder.begin(world.features)
            replay = teacher_forced(world.decoder, ctx, world.init(ctx), [tokens], True)
            losses = state_loss_trace(replay.trace, t_trace)
            terms += [term * (1.0 + 0.37 * t) for t, term in enumerate(losses)]
        return ad.sum_terms(terms) * 0.5

    # the output projection only feeds the emission logits, which the state
    # losses never touch; its gradient through this pathway is exactly zero
    inputs = tuple(p for name, p in world.student_params.items()
                   if ".out." not in name)
    return "hsg_state_pathway", f, inputs


def grad_check_suite(seeds=range(10), eps=1e-5, tol=GRAD_TOL):
    """Run every registered op and composite over several seeds.

    Returns a list of {"name", "max_error", "ok"} dicts, one per case.
    """
    results = {}
    for seed in seeds:
        cases = list(_op_cases(seed)) + list(_composite_cases(seed))
        cases.append(_hsg_pathway_case(seed))
        for name, f, inputs in cases:
            err = float(grad_check(f, inputs, eps=eps))
            if name not in results or err > results[name]:
                results[name] = err
    return [{"name": name, "max_error": err, "ok": bool(err <= tol)}
            for name, err in sorted(results.items())]


class _TinyWorld:
    """Shared fixture for the enumeration checks: vocab 4, short horizon."""

    def __init__(self, family, seed, vocab_size=4, t_max=3, hidden=3,
                 feature_dim=4, k=2, embed=5):
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.t_max = t_max
        self.eos = 0
        self.bos = 1
        self.decoder = DECODERS[family](vocab_size, embed, hidden, feature_dim,
                                        self.bos, self.eos, rng)
        self.statenet = StateTransformNet(feature_dim, self.decoder.layer_dims, rng)
        self.features = rng.uniform(-1.0, 1.0, size=(k, feature_dim))

        self.teacher = build_teacher(vocab_size, family, embed, hidden,
                                     feature_dim, seed + 1,
                                     bos_id=self.bos, eos_id=self.eos)
        # A constant encoder output keeps every state loss a function of the
        # caption prefix only, which the suffix-sum credit assignment needs
        # to be an exact unbiased estimator.
        enc = self.teacher.encoder
        for p in (list(enc.word_lstm.named_parameters("w").values())
                  + list(enc.caption_lstm.named_parameters("c").values())
                  + list(enc.attention.named_parameters("a").values())):
            p.data[...] = 0.0
        self.teacher.freeze()

        refs = [["1", "2", "1"], ["1", "3"]]
        self.refs = refs
        self.doc_freq = build_doc_freq([refs])

        self.student_params = dict(self.decoder.named_parameters("decoder"))
        self.student_params.update(self.statenet.named_parameters("statenet"))

    def reward_fn(self, tokens, refs):
        return cider([str(t) for t in tokens], refs, self.doc_freq)

    def make_ctx(self):
        return self.decoder.begin(self.features)

    def init(self, ctx):
        return self.statenet.initial_state(ctx.vbar)


def enumerate_rollouts(vocab_size, eos_id, t_max):
    """All (tokens, ended) leaves of the sampling tree: sequences stop at the
    first eos or after t_max emissions."""
    leaves = []

    def walk(prefix):
        if len(prefix) == t_max:
            leaves.append((list(prefix), False))
            return
        for tok in range(vocab_size):
            if tok == eos_id:
                leaves.append((list(prefix), True))
            else:
                walk(prefix + [tok])

    walk([])
    return leaves


def _expected_estimator_grads(world, leaves, greedy, lam):
    """Probability-weighted sum of per-rollout estimator gradients."""
    acc = {name: np.zeros_like(p.data) for name, p in world.student_params.items()}
    mass = 0.0
    params = list(world.student_params.values())
    for tokens, ended in leaves:
        zero_gradients(params)
        with Tape() as tape:
            ctx = world.make_ctx()
            replay = teacher_forced(world.decoder, ctx, world.init(ctx), [tokens], ended)
            prob = float(np.exp(replay.total_log_prob()))
            hsg_gradients(tape, replay, greedy, world.refs, world.reward_fn,
                          world.teacher, lam, features=world.features)
        grads = collect_gradients(world.student_params)
        for name in acc:
            acc[name] += prob * grads[name]
        mass += prob
    zero_gradients(params)
    return acc, mass


def _enumerated_objective_grads(world, leaves, greedy, lam):
    """Analytic gradient of sum_c p(c) * (lam * sum_t L_t(c) - advantage(c))."""
    params = list(world.student_params.values())
    zero_gradients(params)
    r_base = world.reward_fn(greedy.tokens, world.refs)
    with Tape() as tape:
        terms = []
        for tokens, ended in leaves:
            ctx = world.make_ctx()
            replay = teacher_forced(world.decoder, ctx, world.init(ctx), [tokens], ended)
            prob = ad.exp(replay.log_likelihood())
            adv = world.reward_fn(tokens, world.refs) - r_base
            if lam == 0:
                obj = Tensor(-adv)
            else:
                t_trace = world.teacher.trace_for_tokens(tokens, world.features)
                losses = state_loss_trace(replay.trace, t_trace)
                obj = ad.sum_terms(losses) * lam + (-adv)
            terms.append(ad.mul(prob, obj))
        backward(tape, ad.sum_terms(terms))
    grads = collect_gradients(world.student_params)
    zero_gradients(params)
    return grads


def enum_check(family="fc", seed=0, lam=0.8, tol=ENUM_TOL):
    """Compare both estimators against the enumerated-objective gradient."""
    world = _TinyWorld(family, seed)
    leaves = enumerate_rollouts(world.vocab_size, world.eos, world.t_max)
    with no_grad():
        ctx = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx, world.init(ctx), world.t_max)

    report = {"family": family, "n_rollouts": len(leaves), "tol": tol}
    for label, lam_value in (("scst", 0.0), ("hsg", lam)):
        est, mass = _expected_estimator_grads(world, leaves, greedy, lam_value)
        oracle = _enumerated_objective_grads(world, leaves, greedy, lam_value)
        diff = max(float(np.max(np.abs(est[name] - oracle[name])))
                   for name in est)
        report[f"max_diff_{label}"] = diff
        report["prob_mass"] = mass
    report["ok"] = bool(abs(report["prob_mass"] - 1.0) < 1e-9
                        and report["max_diff_scst"] <= tol
                        and report["max_diff_hsg"] <= tol)
    return report
