import math

import numpy as np
import pytest

from hsg import autodiff as ad
from hsg.autodiff import (ContractError, DimensionError, Tape, Tensor, backward,
                          neg, no_grad)
from hsg.checks import _TinyWorld, enum_check, enumerate_rollouts
from hsg.config import RunConfig
from hsg.corpus import generate_corpus
from hsg.student import (FcDecoder, StateTransformNet, greedy_decode,
                         sample_decode, teacher_forced)
from hsg.teacher import TeacherAutoencoder, TrainingDiverged, pretrain_teacher
from hsg.training import (build_student, clip_gradients, collect_gradients,
                          hsg_gradients, joint_mle_loss, pretrain_state_net,
                          state_loss_trace, train_student, zero_gradients)

from oracles import param_hash, scst_oracle


def constant_logits_nll(bias, captions):
    """Negative log-likelihood of captions (no eos) under a decoder whose
    logits are the output bias at every step."""
    rng = np.random.default_rng(0)
    decoder = FcDecoder(bias.size, 4, 3, 4, 1, 2, rng)
    decoder.out.w.data[...] = 0.0
    decoder.out.b.data[...] = bias
    ctx = decoder.begin(rng.normal(size=(3, 4)))
    init = StateTransformNet(4, [3], rng).initial_state(ctx.vbar)
    return neg(teacher_forced(decoder, ctx, init, captions, False).log_likelihood())


def test_log_likelihood_perfect_logits_near_zero():
    bias = np.zeros(4)
    bias[3] = 50.0
    assert constant_logits_nll(bias, [[3, 3, 3]]).item() < 1e-10


def test_log_likelihood_uniform_closed_form():
    nll = constant_logits_nll(np.zeros(8), [[3, 7], [5]])
    assert nll.item() == pytest.approx(3 * math.log(8), abs=1e-10)


def rand_trace(rng, steps, layers=1, h=3, param=False):
    make = ad.parameter if param else Tensor
    return [[make(rng.normal(size=h)) for _ in range(layers)]
            for _ in range(steps)]


def test_state_loss_identical_traces_zero():
    rng = np.random.default_rng(0)
    trace = rand_trace(rng, 4)
    copy = [[Tensor(h.data.copy()) for h in rows] for rows in trace]
    losses = state_loss_trace(trace, copy)
    assert all(loss.item() == 0.0 for loss in losses)


def test_state_loss_matches_loop_oracle():
    rng = np.random.default_rng(1)
    student = rand_trace(rng, 3, layers=2)
    teacher = rand_trace(rng, 3, layers=2)
    losses = state_loss_trace(student, teacher)
    for t in range(3):
        expected = 0.0
        for layer in range(2):
            sh = student[t][layer].data
            th = teacher[t][layer].data
            expected += sum((a - b) ** 2 for a, b in zip(sh, th))
        assert losses[t].item() == pytest.approx(expected, rel=1e-12)


def test_state_loss_gradient_only_into_student():
    rng = np.random.default_rng(2)
    student = rand_trace(rng, 2, param=True)
    teacher = rand_trace(rng, 2)
    with Tape() as tape:
        losses = state_loss_trace(student, teacher)
        total = losses[0] + losses[1]
        backward(tape, total)
    grads_before = [student[t][0].grad.copy() for t in range(2)]
    # perturbing the teacher-side values and recomputing leaves the student
    # gradients a function of the new difference only; the teacher tensors
    # themselves never receive gradients
    for rows in teacher:
        for h in rows:
            assert h.grad is None


def test_state_loss_length_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(ContractError):
        state_loss_trace(rand_trace(rng, 2), rand_trace(rng, 3))


def test_joint_mle_loss_reductions():
    rng = np.random.default_rng(5)
    ll = Tensor(1.25)
    losses = [Tensor(abs(rng.normal())) for _ in range(3)]
    assert joint_mle_loss(ll, losses, 0.0) is ll
    zero_losses = [Tensor(0.0) for _ in range(3)]
    assert joint_mle_loss(ll, zero_losses, 1.0).item() == pytest.approx(1.25, abs=0)
    s = sum(loss.item() for loss in losses)
    one = joint_mle_loss(ll, losses, 1.0).item()
    two = joint_mle_loss(ll, losses, 2.0).item()
    assert two - ll.item() == pytest.approx(2.0 * (one - ll.item()), rel=1e-12)
    # monotone in the weight for nonzero state losses
    lams = [0.0, 0.5, 1.0, 2.0]
    vals = [joint_mle_loss(ll, losses, lam).item() for lam in lams]
    assert vals == sorted(vals)
    with pytest.raises(ContractError):
        joint_mle_loss(ll, losses, -0.1)


def world_rollout(world, rng_seed=0, t_max=None):
    rng = np.random.default_rng(rng_seed)
    with Tape() as tape:
        ctx = world.make_ctx()
        rollout = sample_decode(world.decoder, ctx, world.init(ctx),
                                t_max or world.t_max, rng)
    return tape, rollout


def test_scst_zero_advantage_zero_gradients():
    world = _TinyWorld("fc", seed=0)
    with no_grad():
        ctx = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx, world.init(ctx),
                               world.t_max)
    params = list(world.student_params.values())
    zero_gradients(params)
    with Tape() as tape:
        ctx = world.make_ctx()
        replay = teacher_forced(world.decoder, ctx, world.init(ctx),
                                [greedy.tokens], greedy.ended)
        trace = hsg_gradients(tape, replay, greedy, world.refs, world.reward_fn,
                              world.teacher, 0.0, features=world.features)
    assert trace.advantage == 0.0
    grads = collect_gradients(world.student_params)
    assert all(np.all(g == 0.0) for g in grads.values())
    zero_gradients(params)


def test_scst_gradients_scale_linearly_with_reward():
    world = _TinyWorld("fc", seed=1)
    with no_grad():
        ctx = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx, world.init(ctx),
                               world.t_max)
    params = list(world.student_params.values())

    def run(scale):
        zero_gradients(params)
        with Tape() as tape:
            ctx = world.make_ctx()
            rollout = sample_decode(world.decoder, ctx, world.init(ctx),
                                    world.t_max, np.random.default_rng(7))
            hsg_gradients(tape, rollout, greedy, world.refs,
                          lambda t, r: scale * world.reward_fn(t, r),
                          world.teacher, 0.0, features=world.features)
        out = collect_gradients(world.student_params)
        zero_gradients(params)
        return out

    g1, g2 = run(1.0), run(2.0)
    for name in g1:
        assert np.allclose(2.0 * g1[name], g2[name], atol=1e-15)


def test_hsg_lambda_zero_equals_scst_exactly():
    for family in ("fc", "updown"):
        world = _TinyWorld(family, seed=2)
        with no_grad():
            ctx = world.make_ctx()
            greedy = greedy_decode(world.decoder, ctx, world.init(ctx),
                                   world.t_max)
        params = list(world.student_params.values())

        def run(use_hsg):
            zero_gradients(params)
            with Tape() as tape:
                ctx = world.make_ctx()
                rollout = sample_decode(world.decoder, ctx, world.init(ctx),
                                        world.t_max, np.random.default_rng(3))
                if use_hsg:
                    hsg_gradients(tape, rollout, greedy, world.refs,
                                  world.reward_fn, world.teacher, 0.0,
                                  features=world.features)
                else:
                    scst_oracle(tape, rollout, greedy, world.refs,
                                world.reward_fn)
            out = collect_gradients(world.student_params)
            zero_gradients(params)
            return out

        g_scst, g_hsg = run(False), run(True)
        for name in g_scst:
            assert np.array_equal(g_scst[name], g_hsg[name])


def test_hsg_lambda_zero_takes_no_teacher_trace(monkeypatch):
    # scst runs the one estimator at lam = 0; it must not pay for a teacher
    # trace it does not read
    def no_trace(*_args, **_kwargs):
        raise AssertionError("teacher trace taken")

    monkeypatch.setattr(TeacherAutoencoder, "trace_for_tokens", no_trace)
    world = _TinyWorld("fc", seed=5)
    params = list(world.student_params.values())
    with no_grad():
        ctx = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx, world.init(ctx), world.t_max)

    def run(lam):
        zero_gradients(params)
        with Tape() as tape:
            ctx = world.make_ctx()
            rollout = sample_decode(world.decoder, ctx, world.init(ctx),
                                    world.t_max, np.random.default_rng(4))
            hsg_gradients(tape, rollout, greedy, world.refs, world.reward_fn,
                          world.teacher, lam, features=world.features)

    run(0.0)
    with pytest.raises(AssertionError, match="teacher trace taken"):
        run(0.5)
    zero_gradients(params)


def test_hsg_matched_traces_reduce_to_scst():
    # student that IS the teacher decoder, decoding from the teacher's own
    # init: every state loss is exactly zero
    world = _TinyWorld("fc", seed=3)
    teacher = world.teacher
    src = teacher.decoder.named_parameters("decoder")
    dst = world.decoder.named_parameters("decoder")
    for name, p in dst.items():
        p.data[...] = src[name].data

    tokens = [1, 2]
    with no_grad():
        t_init = teacher.encode_pooled([tokens], Tensor(world.features[None]))
        ctx0 = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx0, t_init, world.t_max)
    params = list(world.decoder.named_parameters("decoder").values())

    def run(lam):
        zero_gradients(params)
        with Tape() as tape:
            ctx = world.make_ctx()
            replay = teacher_forced(world.decoder, ctx, t_init, [tokens], True)
            trace = hsg_gradients(tape, replay, greedy, world.refs,
                                  world.reward_fn, teacher, lam,
                                  features=world.features)
        grads = {n: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                 for n, p in world.decoder.named_parameters("decoder").items()}
        zero_gradients(params)
        return trace, grads

    hsg_trace, hsg_grads = run(0.9)
    scst_trace, scst_grads = run(0.0)
    assert all(abs(v) < 1e-20 for v in hsg_trace.state_losses)
    assert hsg_trace.coefficients == pytest.approx(
        [-hsg_trace.advantage] * len(hsg_trace.coefficients), abs=1e-18)
    for name in hsg_grads:
        assert np.allclose(hsg_grads[name], scst_grads[name], atol=1e-12)


def test_hsg_architecture_mismatch_rejected():
    world = _TinyWorld("updown", seed=4)
    fc_world = _TinyWorld("fc", seed=4)
    tape, rollout = world_rollout(fc_world)
    with no_grad():
        ctx = fc_world.make_ctx()
        greedy = greedy_decode(fc_world.decoder, ctx, fc_world.init(ctx),
                               fc_world.t_max)
    with pytest.raises(ContractError):
        hsg_gradients(tape, rollout, greedy, fc_world.refs, fc_world.reward_fn,
                      world.teacher, 0.5, features=fc_world.features)


def test_hsg_state_width_mismatch_rejected():
    world = _TinyWorld("fc", seed=4, hidden=4)
    fc_world = _TinyWorld("fc", seed=4)
    tape, rollout = world_rollout(fc_world)
    with no_grad():
        ctx = fc_world.make_ctx()
        greedy = greedy_decode(fc_world.decoder, ctx, fc_world.init(ctx),
                               fc_world.t_max)
    with pytest.raises(DimensionError):
        hsg_gradients(tape, rollout, greedy, fc_world.refs, fc_world.reward_fn,
                      world.teacher, 0.5, features=fc_world.features)


def test_suffix_sums_non_increasing():
    world = _TinyWorld("fc", seed=5)
    with no_grad():
        ctx = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx, world.init(ctx),
                               world.t_max)
    params = list(world.student_params.values())
    with Tape() as tape:
        ctx = world.make_ctx()
        rollout = sample_decode(world.decoder, ctx, world.init(ctx),
                                world.t_max, np.random.default_rng(11))
        trace = hsg_gradients(tape, rollout, greedy, world.refs,
                              world.reward_fn, world.teacher, 1.0,
                              features=world.features)
    zero_gradients(params)
    suffix = [c + trace.advantage for c in trace.coefficients]
    for a, b in zip(suffix, suffix[1:]):
        assert a >= b - 1e-15


def test_estimators_unbiased_small_horizon():
    # vocab 3, horizon 2: exhaustive expectation matches the analytic
    # gradient of the enumerated objective
    for family in ("fc", "updown"):
        report = enum_check(family=family, seed=6, lam=0.7)
        assert report["ok"], report
        assert report["max_diff_scst"] <= 1e-8
        assert report["max_diff_hsg"] <= 1e-8


def test_enumeration_covers_probability_space():
    world = _TinyWorld("fc", seed=7)
    leaves = enumerate_rollouts(world.vocab_size, world.eos, world.t_max)
    total = 0.0
    with no_grad():
        for tokens, ended in leaves:
            ctx = world.make_ctx()
            r = teacher_forced(world.decoder, ctx, world.init(ctx), [tokens],
                               ended)
            total += math.exp(r.total_log_prob())
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.fixture(scope="module")
def tiny_pipeline():
    train, val, test, vocab, df = generate_corpus(23, 4, 2, 2,
                                                  captions_per_scene=2)
    cfg = RunConfig(teacher_epochs=8, seed=1, lr=0.3, hidden_dim=16,
                    embed_dim=8, statenet_steps=200, statenet_lr=0.05)
    teacher, _ = pretrain_teacher(train, vocab, cfg, log=lambda *a: None)
    statenet = pretrain_state_net(train, teacher, vocab, cfg, log=lambda *a: None)
    return train, val, test, vocab, df, cfg, teacher, statenet


def test_pretrain_state_net_overfits_single_scene():
    train, _, _, vocab, _ = generate_corpus(29, 1, 1, 1, captions_per_scene=1)
    cfg = RunConfig(teacher_epochs=2, seed=0, lr=0.2, hidden_dim=12,
                    embed_dim=6, statenet_steps=2000, statenet_lr=0.05)
    teacher, _ = pretrain_teacher(train, vocab, cfg, log=lambda *a: None)
    net = pretrain_state_net(train, teacher, vocab, cfg, log=lambda *a: None)
    with no_grad():
        target = teacher.encode_pooled(
            [vocab.encode(c) for c in train[0].captions],
            Tensor(train[0].features[None]))
        got = net(Tensor(train[0].features.mean(axis=0, keepdims=True)))
    loss = sum(float(np.sum((h.data - t.data) ** 2))
               for h, (t, _c) in zip(got, target))
    assert loss < 1e-4


def test_pretrain_state_net_deterministic(tiny_pipeline):
    train, _, _, vocab, _, cfg, teacher, _ = tiny_pipeline
    n1 = pretrain_state_net(train, teacher, vocab, cfg, log=lambda *a: None)
    n2 = pretrain_state_net(train, teacher, vocab, cfg, log=lambda *a: None)
    for (a, b) in zip(n1.named_parameters().values(), n2.named_parameters().values()):
        assert np.array_equal(a.data, b.data)


def test_train_student_memorizes_single_scene():
    train, _, _, vocab, df = generate_corpus(31, 1, 1, 1, captions_per_scene=1)
    cfg = RunConfig(teacher_epochs=30, seed=0, lr=0.3, hidden_dim=24,
                    embed_dim=12, statenet_steps=500, statenet_lr=0.05,
                    mode="mle", epochs=40, beam_width=2, t_max=12)
    teacher, _ = pretrain_teacher(train, vocab, cfg, log=lambda *a: None)
    statenet = pretrain_state_net(train, teacher, vocab, cfg, log=lambda *a: None)
    student, history = train_student(train, train, teacher, statenet, vocab,
                                     df, cfg, log=lambda *a: None)
    # teacher-forced accuracy on the memorized caption
    correct = total = 0
    with no_grad():
        for rec in train:
            ctx = student.decoder.begin(rec.features)
            init = student.initial_state(ctx)
            for cap in rec.captions:
                ids = vocab.encode(cap)
                forced = teacher_forced(student.decoder, ctx, init, [ids], True)
                for lg, t in zip(forced.logits, ids + [vocab.EOS]):
                    correct += int(np.argmax(lg.data[0])) == t
                    total += 1
    assert correct / total >= 0.99


def test_train_student_constant_reward_keeps_parameters(tiny_pipeline):
    train, val, _, vocab, df, cfg, teacher, statenet = tiny_pipeline
    run_cfg = RunConfig(**{**cfg.to_dict(), "mode": "scst", "epochs": 1,
                           "mle_warmup_epochs": 0, "reward_metric": "cider",
                           "beam_width": 1, "t_max": 10})
    student, _ = train_student(train, val, teacher, statenet, vocab, df,
                               run_cfg, log=lambda *a: None)
    import hsg.training as training_mod
    original = training_mod.make_reward_fn

    def constant_reward(metric, vocab_, doc_freq):
        return lambda tokens, refs: 1.0

    training_mod.make_reward_fn = constant_reward
    try:
        student2, _ = train_student(train, val, teacher, statenet, vocab, df,
                                    run_cfg, log=lambda *a: None)
        fresh = build_student(teacher, statenet)
        for name, p in student2.named_parameters().items():
            if name.startswith("decoder."):
                assert np.array_equal(p.data, fresh.named_parameters()[name].data)
    finally:
        training_mod.make_reward_fn = original


def test_train_student_deterministic_history(tiny_pipeline):
    train, val, _, vocab, df, cfg, teacher, statenet = tiny_pipeline
    run_cfg = RunConfig(**{**cfg.to_dict(), "mode": "scst_hsg", "epochs": 1,
                           "mle_warmup_epochs": 1, "state_loss_weight": 0.5,
                           "beam_width": 2, "t_max": 10, "rl_lr": 0.01})
    s1, h1 = train_student(train, val, teacher, statenet, vocab, df, run_cfg,
                           log=lambda *a: None)
    s2, h2 = train_student(train, val, teacher, statenet, vocab, df, run_cfg,
                           log=lambda *a: None)
    assert h1 == h2
    for a, b in zip(s1.named_parameters().values(), s2.named_parameters().values()):
        assert np.array_equal(a.data, b.data)


def test_teacher_untouched_by_student_training(tiny_pipeline):
    train, val, _, vocab, df, cfg, teacher, statenet = tiny_pipeline
    digest_before = param_hash(teacher.named_parameters())
    run_cfg = RunConfig(**{**cfg.to_dict(), "mode": "mle_hsg", "epochs": 1,
                           "state_loss_weight": 1.0, "beam_width": 1,
                           "t_max": 10})
    train_student(train, val, teacher, statenet, vocab, df, run_cfg,
                  log=lambda *a: None)
    assert param_hash(teacher.named_parameters()) == digest_before
    # the student is a trainable copy of the frozen decoder and the state net
    student = build_student(teacher, statenet)
    sources = {**teacher.decoder.named_parameters("decoder"),
               **statenet.named_parameters("statenet")}
    owned = [*sources.values(), *teacher.named_parameters().values()]
    for name, p in student.named_parameters().items():
        assert p.requires_grad
        assert not any(np.shares_memory(p.data, q.data) for q in owned)
        assert np.array_equal(p.data, sources[name].data)


def test_train_student_requires_teacher(tiny_pipeline):
    train, val, _, vocab, df, cfg, _, statenet = tiny_pipeline
    with pytest.raises(ContractError):
        train_student(train, val, None, statenet, vocab, df, cfg,
                      log=lambda *a: None)


def test_clip_gradients_rejects_non_finite_norm():
    p = ad.parameter(np.zeros(3))
    for bad in (np.nan, np.inf):
        p.grad = np.array([1.0, bad, 2.0])
        with pytest.raises(TrainingDiverged, match="gradient norm"):
            clip_gradients([p], 5.0)
    p.grad = np.array([3.0, 4.0, 0.0])
    assert clip_gradients([p], 1.0) == 5.0
    assert np.allclose(p.grad, [0.6, 0.8, 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("path", ["teacher", "state_net", "mle", "rl"])
def test_training_path_diverges_on_non_finite_gradients(path, tiny_pipeline,
                                                        monkeypatch):
    train, val, _, vocab, df, cfg, teacher, statenet = tiny_pipeline
    # every backward rule emits NaN while forward values and losses stay finite
    real = ad.accumulate
    monkeypatch.setattr(ad, "accumulate", lambda t, g: real(t, np.asarray(g) * np.nan))
    with pytest.raises(TrainingDiverged, match="gradient norm"):
        if path == "teacher":
            pretrain_teacher(train, vocab, cfg, log=lambda *a: None)
        elif path == "state_net":
            pretrain_state_net(train, teacher, vocab, cfg, log=lambda *a: None)
        else:
            # scst with no warm-up makes the first step an RL step
            mode = {"mle": "mle", "rl": "scst"}[path]
            run_cfg = RunConfig(**{**cfg.to_dict(), "mode": mode, "epochs": 1,
                                   "mle_warmup_epochs": 0})
            train_student(train, val, teacher, statenet, vocab, df, run_cfg,
                          log=lambda *a: None)
