import numpy as np
import pytest

import hsg.teacher
from hsg import autodiff as ad
from hsg.autodiff import ContractError, DimensionError, Tensor, grad_check, no_grad
from hsg.corpus import generate_corpus
from hsg.config import RunConfig
from hsg.teacher import build_teacher, pool_captions, pretrain_teacher
from hsg.student import teacher_forced

from oracles import param_hash


def tiny_teacher(family="fc", vocab=7, embed=4, hidden=3, feat=4, seed=0):
    return build_teacher(vocab, family, embed, hidden, feat, seed,
                         eos_id=2, bos_id=1)


def feats(k=3, d=4, seed=1):
    return np.random.default_rng(seed).normal(size=(k, d))


def record_gates(monkeypatch):
    """Collect the encoder's gates: the outputs of its one vec_max per pass,
    which gates every token position at once."""
    gates = []
    real_vec_max = hsg.teacher.vec_max

    def spy(weights):
        gate = real_vec_max(weights)
        gates.extend(gate.data.tolist())
        return gate

    monkeypatch.setattr(hsg.teacher, "vec_max", spy)
    return gates


def test_single_object_gate_is_one(monkeypatch):
    teacher = tiny_teacher()
    gates = record_gates(monkeypatch)
    with no_grad():
        teacher.encoder.encode([[1, 4, 5, 2]], Tensor(feats(k=1)[None]))
    assert gates == [1.0] * 4


def test_gate_in_unit_interval(monkeypatch):
    teacher = tiny_teacher(seed=5)
    gates = record_gates(monkeypatch)
    with no_grad():
        teacher.encoder.encode([[1, 4, 5, 6, 2]], Tensor(feats(k=4, seed=2)[None]))
    assert len(gates) == 5
    assert all(0.0 < g <= 1.0 for g in gates)


def test_zero_caption_lstm_weights_zero_final():
    teacher = tiny_teacher(seed=3)
    cell = teacher.encoder.caption_lstm
    for p in (cell.w_ih, cell.w_hh, cell.b):
        p.data[...] = 0.0
    with no_grad():
        final = teacher.encoder.encode([[1, 4, 5, 2]], Tensor(feats()[None]))
    (h2, c2) = final[1]
    assert np.all(h2.data == 0.0) and np.all(c2.data == 0.0)


def test_empty_caption_rejected():
    teacher = tiny_teacher()
    with pytest.raises(ContractError):
        teacher.encoder.encode([[1, 4, 2], []], Tensor(feats()[None]))
    with pytest.raises(ContractError):
        teacher.encoder.encode([], Tensor(feats()[None]))


def test_encoder_gradient_check():
    teacher = tiny_teacher(vocab=5, embed=3, hidden=2, feat=3, seed=7)
    v = ad.parameter(np.random.default_rng(8).normal(size=(1, 2, 3)))

    def f(*_):
        (h1, _c1), (h2, _c2) = teacher.encoder.encode([[1, 3, 2], [1, 4, 3, 3, 2]], v)
        return ad.tensor_sum(h2) + ad.tensor_sum(ad.mul(h1, h1))

    params = [v] + [p for name, p in teacher.encoder.named_parameters("e").items()
                    if not name.endswith("attention.proj.b")] \
        + [teacher.decoder.embedding.w]
    assert grad_check(f, params) <= 1e-5


def _random_finals(rng, n, h=3):
    return [(Tensor(rng.normal(size=(n, h))), Tensor(rng.normal(size=(n, h))))
            for _ in range(2)]


def _select(final, rows):
    return [(Tensor(h.data[rows]), Tensor(c.data[rows])) for h, c in final]


def test_pool_single_caption_is_identity():
    rng = np.random.default_rng(0)
    f = _random_finals(rng, 1)
    [(h, c)] = pool_captions(f, 1)
    assert np.array_equal(h.data, f[1][0].data)
    assert np.array_equal(c.data, f[1][1].data)


def test_pool_idempotent_and_dominates():
    rng = np.random.default_rng(1)
    finals = _random_finals(rng, 5)
    [(h, c)] = pool_captions(finals, 1)
    [(h2, c2)] = pool_captions(_select(finals, [0, 1, 2, 3, 4] * 2), 1)
    assert np.array_equal(h.data, h2.data) and np.array_equal(c.data, c2.data)
    for i in range(5):
        assert np.all(h.data >= finals[1][0].data[i])
        assert np.all(c.data >= finals[1][1].data[i])


def test_pool_updown_uses_both_layers():
    rng = np.random.default_rng(2)
    finals = _random_finals(rng, 3)
    [(h1, _), (h2, _)] = pool_captions(finals, 2)
    assert np.array_equal(h1.data, np.max(finals[0][0].data, axis=0, keepdims=True))
    assert np.array_equal(h2.data, np.max(finals[1][0].data, axis=0, keepdims=True))


def test_pool_one_layer_is_top_layer_of_two():
    # a decoder with n layers starts from the encoder's top n layers
    finals = _random_finals(np.random.default_rng(3), 4)
    [(h, c)] = pool_captions(finals, 1)
    [_, (h2, c2)] = pool_captions(finals, 2)
    assert np.array_equal(h.data, h2.data) and np.array_equal(c.data, c2.data)


def test_pool_commutative():
    rng = np.random.default_rng(7)
    finals = _random_finals(rng, 4)
    [(h, c)] = pool_captions(finals, 1)
    for perm in ([3, 1, 0, 2], [2, 3, 1, 0]):
        [(hp, cp)] = pool_captions(_select(finals, perm), 1)
        assert np.array_equal(h.data, hp.data)
        assert np.array_equal(c.data, cp.data)


def test_pool_empty_rejected():
    with pytest.raises(DimensionError):
        pool_captions(_random_finals(np.random.default_rng(0), 0), 1)


@pytest.mark.parametrize("scene, empty", [([0, 1, 1], 2), ([0, 2, 2], 1)])
def test_encode_pooled_names_a_scene_without_captions(scene, empty):
    # unchecked, a captionless last scene would come back one row short
    # and a captionless middle one would fail inside max_rows
    teacher = tiny_teacher()
    stack = Tensor(np.stack([feats(seed=s) for s in range(3)]))
    with no_grad(), pytest.raises(ContractError,
                                  match=f"encode_pooled: scene {empty} has no captions"):
        teacher.encode_pooled([[4], [5, 6], [3]], stack, np.array(scene))


def test_encode_pooled_wants_one_scene_id_per_caption():
    teacher = tiny_teacher()
    stack = Tensor(np.stack([feats(seed=s) for s in range(2)]))
    for scene in ([0, 1], [0, 1, 1, 0]):
        with no_grad(), pytest.raises(DimensionError, match="scene ids for 3 captions"):
            teacher.encode_pooled([[4], [5, 6], [3]], stack, np.array(scene))


def test_teacher_forward_empty_caption_trace_is_init():
    teacher = tiny_teacher(seed=9)
    v = feats()
    with no_grad():
        init = teacher.encode_pooled([[4, 5]], Tensor(v[None]))
        forced = teacher_forced(teacher.decoder, teacher.decoder.begin(v), init,
                                [[]], True)
    assert len(forced.trace) == 1
    # the pass spreads the scene's row to its caption: a copy of init's h
    for h, (ih, _ic) in zip(forced.trace[0], init):
        assert np.array_equal(h.data, ih.data)
    assert len(forced.logits) == 1  # the eos emission


def test_teacher_forward_deterministic_and_loglik_consistent():
    teacher = tiny_teacher(seed=11)
    v = feats(seed=3)
    caption = [4, 5, 6]
    with no_grad():
        init = teacher.encode_pooled([caption], Tensor(v[None]))
        a, b = (teacher_forced(teacher.decoder, teacher.decoder.begin(v), init,
                               [caption], True)
                for _ in range(2))
    for la, lb in zip(a.logits, b.logits):
        assert np.array_equal(la.data, lb.data)
    assert len(a.trace) == len(caption) + 1
    # log-likelihood equals the sum of per-step log softmax at the gold ids
    targets = caption + [teacher.decoder.eos_id]
    total = 0.0
    for lg, t in zip(a.logits, targets):
        z = lg.data[0] - lg.data.max()
        total += z[t] - np.log(np.exp(z).sum())
    assert abs(total - a.total_log_prob()) <= 1e-12


def test_teacher_forward_rejects_wrong_layer_count():
    teacher = tiny_teacher(seed=13)
    with pytest.raises(ContractError):
        teacher_forced(teacher.decoder, teacher.decoder.begin(feats()), [], [[4]],
                       True)


def test_pretrain_overfits_single_scene():
    train, _, _, vocab, _ = generate_corpus(17, 1, 1, 1, captions_per_scene=1)
    cfg = RunConfig(teacher_epochs=60, seed=0, lr=0.3, hidden_dim=24,
                    embed_dim=12)
    teacher, history = pretrain_teacher(train, vocab, cfg, log=lambda *a: None)
    assert history[-1]["token_accuracy"] >= 0.99
    assert all(h["loss"] > 0.0 for h in history)


def test_pretrained_teacher_is_frozen():
    train, _, _, vocab, _ = generate_corpus(19, 2, 1, 1, captions_per_scene=1)
    cfg = RunConfig(teacher_epochs=1, seed=0, hidden_dim=8, embed_dim=6)
    teacher, _ = pretrain_teacher(train, vocab, cfg, log=lambda *a: None)
    assert all(not p.requires_grad for p in teacher.named_parameters().values())
    digest = param_hash(teacher.named_parameters())
    assert param_hash(teacher.named_parameters()) == digest


def test_architecture_identity_with_student_decoder():
    # the teacher decoder run with a student's parameters, init and inputs
    # produces a bit-identical state trace
    from hsg.training import build_student
    teacher = tiny_teacher(seed=21)
    teacher.freeze()
    student = build_student(teacher, statenet=None)
    v = feats(seed=5)
    caption = [4, 5, 6]
    with no_grad():
        init = teacher.encode_pooled([caption], Tensor(v[None]))
        t_run = teacher_forced(teacher.decoder, teacher.decoder.begin(v),
                               init, [caption], True)
        s_run = teacher_forced(student.decoder, student.decoder.begin(v),
                               init, [caption], True)
    # the student decodes with the teacher's reserved ids
    assert (student.decoder.bos_id, student.decoder.eos_id) == (1, 2)
    assert len(t_run.trace) == len(s_run.trace)
    for ts, ss in zip(t_run.trace, s_run.trace):
        for th, sh in zip(ts, ss):
            assert np.array_equal(th.data, sh.data)
