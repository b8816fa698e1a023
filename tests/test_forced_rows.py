"""Row-batched teacher forcing against the one-caption-at-a-time oracles.

A scene's captions run as one row batch in the teacher's encoder and
decoder and in the student's MLE step.  Every value and gradient must match
the per-caption code in oracles.py within 1e-12, for both decoder families,
1, 2 and 5 captions of unequal lengths, and captions that repeat a token id
at the same step.
"""

import json

import numpy as np
import pytest

import hsg.autodiff
import hsg.student
import hsg.training
from hsg import cli
from hsg.autodiff import Tape, Tensor, backward, neg, no_grad
from hsg.corpus import Vocabulary
from hsg.metrics import build_doc_freq
from hsg.student import StateTransformNet, teacher_forced
from hsg.teacher import build_teacher
from hsg.training import build_student, joint_mle_loss, state_loss_trace

from oracles import (encode_oracle, encode_pooled_oracle, forced_oracle,
                     mle_loss_oracle)

TOL = 1e-12
BOS, EOS = 1, 2
VOCAB = 9


def captions_for(n_captions, seed):
    """n captions of 1 to 12 content words; the first two share their first
    word and, where both are long enough, their fourth."""
    rng = np.random.default_rng(seed)
    lengths = [12, 1, 7, 4, 12][:n_captions] if n_captions == 5 else \
        rng.integers(1, 13, size=n_captions).tolist()
    caps = [rng.integers(3, VOCAB, size=n).tolist() for n in lengths]
    if n_captions > 1:
        caps[1][0] = caps[0][0]
        if min(len(caps[0]), len(caps[1])) > 3:
            caps[1][3] = caps[0][3]
    return caps


def world(family, seed):
    teacher = build_teacher(VOCAB, family, 5, 4, 3, seed, eos_id=EOS, bos_id=BOS)
    feats = np.random.default_rng(seed + 50).normal(size=(3, 3))
    return teacher, feats


def take_grads(params):
    out = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
           for n, p in params.items()}
    for p in params.values():
        p.zero_grad()
    return out


def assert_close(a, b, what):
    assert a.shape == b.shape, what
    assert np.max(np.abs(a - b), initial=0.0) <= TOL, what


def assert_same_grads(got, want):
    for name in want:
        assert_close(got[name], want[name], name)


def assert_same_replay(forced, replays):
    """Every caption's row of logits, log-probabilities and trace matches
    its one-caption replay.  Step t runs the captions with more than t
    emissions in caption order, so caption i's row at step t is the count of
    earlier captions still running; trace[t] holds the captions with at
    least t content ids, so there caption i's row counts the earlier ones."""
    counts = [lg.data.shape[0] for lg in forced.logits]
    offsets = np.cumsum([0] + counts)
    lp = forced.log_prob_rows().data
    lengths = np.array([len(e) for e in forced.emissions])
    content = lengths - forced.ended
    assert counts == [int(np.count_nonzero(lengths > t)) for t in range(len(counts))]
    assert len(forced.trace) == content.max() + 1
    for i, want in enumerate(replays):
        n = len(want.logits)
        assert forced.emissions[i] == want.emissions[0]
        assert forced.ended[i] == want.ended[0]
        assert lengths[i] == n
        p = np.array([np.count_nonzero(lengths[:i] > t) for t in range(n)], dtype=np.intp)
        for t in range(n):
            assert_close(forced.logits[t].data[p[t]], want.logits[t].data[0],
                         f"logits of caption {i}")
        assert abs(lp[offsets[:n] + p].sum() - want.total_log_prob()) <= TOL
        assert len(want.trace) == n + 1
        rows = [np.count_nonzero(content[:i] >= t) for t in range(content[i] + 1)]
        for q, h_got, h_want in zip(rows, forced.trace, want.trace):
            for h, wh in zip(h_got, h_want):
                assert_close(h.data[q], wh.data[0], f"h of caption {i}")


@pytest.mark.parametrize("family", ["fc", "updown"])
@pytest.mark.parametrize("n_captions", [1, 2, 5])
def test_teacher_rows_match_per_caption_oracle(family, n_captions):
    teacher, feats = world(family, seed=n_captions)
    caps = captions_for(n_captions, seed=n_captions)
    params = teacher.named_parameters()
    with Tape() as tape:
        ctx = teacher.decoder.begin(feats)
        init = teacher.encode_pooled(caps, ctx.feats)
        forced = teacher_forced(teacher.decoder, ctx, init, caps, True)
        loss = neg(forced.log_likelihood()) * (1.0 / len(caps))
        backward(tape, loss)
    got = take_grads(params)
    with Tape() as tape:
        ctx = teacher.decoder.begin(feats)
        init_o = encode_pooled_oracle(teacher, caps, ctx.feats)
        loss_o, replays = mle_loss_oracle(teacher.decoder, ctx, init_o, caps, BOS)
        backward(tape, loss_o)
    want = take_grads(params)

    assert abs(loss.item() - loss_o.item()) <= TOL
    for (h, c), (wh, wc) in zip(init, init_o):
        assert_close(h.data, wh.data, "pooled h")
        assert_close(c.data, wc.data, "pooled c")
    assert_same_replay(forced, replays)
    assert_same_grads(got, want)
    # every emission is scored once, in the order of the stacked logits
    assert forced.targets.size == sum(len(c) + 1 for c in caps)


@pytest.mark.parametrize("family", ["fc", "updown"])
@pytest.mark.parametrize("n_captions", [1, 2, 5])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_mle_rows_match_per_caption_oracle(family, n_captions, lam):
    teacher, feats = world(family, seed=10 + n_captions)
    teacher.freeze()
    caps = captions_for(n_captions, seed=20 + n_captions)
    rng = np.random.default_rng(3)
    student = build_student(
        teacher, StateTransformNet(3, teacher.decoder.layer_dims, rng))
    params = student.named_parameters()
    with no_grad():
        ctx = teacher.decoder.begin(feats)
        init_t = encode_pooled_oracle(teacher, caps, ctx.feats)
        traces_o = [forced_oracle(teacher.decoder, ctx, init_t, ids, False, BOS).trace
                    for ids in caps]
    traces = teacher.traces(caps, feats)

    with Tape() as tape:
        ctx = student.decoder.begin(feats)
        forced = teacher_forced(student.decoder, ctx, student.initial_state(ctx),
                                caps, True)
        loss = neg(forced.log_likelihood())
        if lam > 0:
            loss = joint_mle_loss(loss, state_loss_trace(forced.trace, traces),
                                  lam)
        loss = loss * (1.0 / len(caps))
        backward(tape, loss)
    got = take_grads(params)
    with Tape() as tape:
        ctx = student.decoder.begin(feats)
        loss_o, replays = mle_loss_oracle(
            student.decoder, ctx, student.initial_state(ctx), caps, BOS,
            teacher_traces=traces_o, lam=lam)
        backward(tape, loss_o)
    want = take_grads(params)

    assert abs(loss.item() - loss_o.item()) <= TOL
    assert_same_replay(forced, replays)
    assert_same_grads(got, want)


@pytest.mark.parametrize("family", ["fc", "updown"])
def test_teacher_traces_match_per_caption_oracle(family):
    teacher, feats = world(family, seed=31)
    caps = captions_for(5, seed=31)
    with no_grad():
        ctx = teacher.decoder.begin(feats)
        init_o = encode_pooled_oracle(teacher, caps, ctx.feats)
        want = [forced_oracle(teacher.decoder, ctx, init_o, ids, False,
                              BOS).trace for ids in caps]
        single = forced_oracle(teacher.decoder, ctx,
                               encode_pooled_oracle(teacher, [caps[2]], ctx.feats),
                               caps[2], False, BOS).trace
    rows = teacher.traces(caps, feats)
    assert len(rows) == 1 + max(len(c) for c in caps)
    for t, h_rows in enumerate(rows):
        # the captions with at least t content words, in caption order
        alive = [i for i in range(5) if len(caps[i]) >= t]
        for layer, h in enumerate(h_rows):
            want_h = np.concatenate([want[i][t][layer].data for i in alive])
            assert_close(h.data, want_h, "h")
    trace = teacher.trace_for_tokens(caps[2], feats)
    assert len(trace) == len(single)
    for h_got, h_want in zip(trace, single):
        for h, wh in zip(h_got, h_want):
            assert h.data.shape == wh.data.shape
            assert_close(h.data, wh.data, "trace h")


@pytest.mark.parametrize("family", ["fc", "updown"])
@pytest.mark.parametrize("cap", [None, 12])
def test_cross_scene_traces_match_each_scene_alone(monkeypatch, family, cap):
    # one traces call over four scenes, captions interleaved across scenes
    # and one of them empty, gives each scene's one-scene traces; a cap of
    # 12 packed encoder rows splits the encoder into runs of whole scenes
    teacher, _feats = world(family, seed=61)
    stack = np.random.default_rng(61).normal(size=(4, 3, 3))
    per_scene = [[[]], [[5], []], captions_for(2, seed=62), captions_for(5, seed=63)]
    pairs = [(s, ids) for s, caps in enumerate(per_scene) for ids in caps]
    pairs = [pairs[i] for i in np.random.default_rng(64).permutation(len(pairs))]
    scene = np.array([s for s, _ids in pairs])
    caps = [ids for _s, ids in pairs]
    alone = [teacher.traces([ids for s2, ids in pairs if s2 == s], stack[s])
             for s in range(4)]
    encodes = []
    real_encode = teacher.encoder.encode

    def encode_spy(captions, feats, scene=None):
        encodes.append(feats.data.shape[0])
        return real_encode(captions, feats, scene)

    monkeypatch.setattr(teacher.encoder, "encode", encode_spy)
    if cap is not None:
        monkeypatch.setattr(hsg.training, "MAX_PASS_ROWS", cap)
    rows = teacher.traces(caps, stack, scene)
    # capped: the first two scenes (7 rows) share a run, the others run alone
    assert encodes == ([4] if cap is None else [2, 1, 1])
    assert len(rows) == 1 + max(len(ids) for ids in caps)
    for t, h_rows in enumerate(rows):
        alive = [i for i, ids in enumerate(caps) if len(ids) >= t]
        assert all(h.data.shape[0] == len(alive) for h in h_rows)
        for r, i in enumerate(alive):
            # caption i's row alone: its scene's earlier captions still alive
            r_alone = sum(1 for j in alive[:r] if scene[j] == scene[i])
            for h, h_alone in zip(h_rows, alone[scene[i]][t]):
                assert_close(h.data[r], h_alone.data[r_alone], f"step {t} caption {i}")


def test_encoder_finals_come_back_in_caption_order():
    # captions leave the row batch as they end, shortest first; the finals
    # return in caption order, so the max over rows gives ties to the
    # earliest caption, as the chain of elementwise maxima did
    teacher, feats = world("updown", seed=41)
    caps = [[1, 4, 2], [1, 6, 7, 8, 2], [1, 4, 2], [1, 5, 5, 2]]
    with no_grad():
        final = teacher.encoder.encode(caps, Tensor(feats[None]))
        assert len(final) == 2
        assert all(t.data.shape == (len(caps), teacher.encoder.hidden_dim)
                   for layer in final for t in layer)
        for i, ids in enumerate(caps):
            for got, want in zip([t for layer in final for t in layer],
                                 encode_oracle(teacher.encoder, ids, Tensor(feats[None]))):
                assert_close(got.data[i:i + 1], want.data, f"final of caption {i}")


def test_teacher_traces_compute_no_log_softmax(monkeypatch):
    teacher, feats = world("fc", seed=51)
    calls = []
    real = hsg.autodiff.log_softmax

    def spy(a):
        calls.append(a.data.shape)
        return real(a)

    for module in (hsg.autodiff, hsg.student):
        monkeypatch.setattr(module, "log_softmax", spy)
    trace = teacher.trace_for_tokens([4, 5, 6], feats)
    assert len(trace) == 4 and calls == []
    # the spy sees the one log-softmax a likelihood needs
    with no_grad():
        ctx = teacher.decoder.begin(feats)
        init = teacher.encode_pooled([[4, 5, 6]], ctx.feats)
        teacher_forced(teacher.decoder, ctx, init, [[4, 5, 6], [7]],
                       True).log_likelihood()
    assert calls == [(6, VOCAB)]


def write_corpus(directory):
    """A hand-written corpus whose scenes hold captions of 1 to 7 words."""
    scenes = {
        "train": [
            [["a", "red", "cube"], ["cube"], ["a", "big", "red", "cube", "left", "of", "ball"]],
            [["a", "ball"], ["a", "blue", "ball", "near", "a", "cube"]],
            [["ball"], ["a", "big", "ball"], ["a", "ball", "left", "of", "a", "red", "cube"]],
            [["a", "big", "blue", "cube"], ["blue", "cube"]],
        ],
        "val": [[["a", "red", "ball"], ["ball", "near", "cube"]]],
        "test": [[["a", "cube"], ["a", "big", "cube", "near", "a", "ball"]]],
    }
    directory.mkdir()
    scene_id = 0
    for split, caption_sets in scenes.items():
        lines = []
        for caps in caption_sets:
            feats = [[round(0.1 * (scene_id + k + j) % 1.0, 2) for j in range(4)]
                     for k in range(3)]
            lines.append(json.dumps({"scene_id": scene_id, "K": 3,
                                     "features": feats, "captions": caps}))
            scene_id += 1
        (directory / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
    vocab = Vocabulary.from_captions(c for caps in scenes["train"] for c in caps)
    (directory / "vocab.json").write_text(vocab.to_json() + "\n")
    (directory / "docfreq.json").write_text(build_doc_freq(scenes["val"]).to_json() + "\n")
    return sum(len(c) + 1 for caps in scenes["train"] for c in caps)


@pytest.mark.parametrize("family", ["fc", "updown"])
def test_cli_trains_on_captions_of_unequal_lengths(tmp_path, capsys, family):
    emitted = write_corpus(tmp_path / "corpus")
    cfg = {"corpus_dir": str(tmp_path / "corpus"), "output_dir": str(tmp_path / "out"),
           "family": family, "mode": "scst_hsg", "seed": 2, "hidden_dim": 8,
           "embed_dim": 6, "teacher_epochs": 3, "mle_warmup_epochs": 1,
           "epochs": 1, "statenet_steps": 20, "beam_width": 2, "t_max": 8,
           "lr": 0.2, "state_loss_weight": 0.5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["train-teacher", "--config", str(path)]) == 0
    teacher = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # token accuracy counts every emission of every caption once
    correct = teacher["final_token_accuracy"] * emitted
    assert abs(correct - round(correct)) < 1e-9
    for mode in ("mle_hsg", "scst_hsg"):
        assert cli.main(["train-student", "--config", str(path),
                         "--set", f"mode={mode}",
                         "--set", f"teacher_checkpoint={teacher['teacher_checkpoint']}"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert np.isfinite(result["best_val_cider"])
