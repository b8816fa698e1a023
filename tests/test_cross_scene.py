"""Cross-scene forward passes against the one-scene oracles.

The state net's targets and the validation state loss run each chunk of
scenes with the same K as one pass.  Per scene they must give what the scene
gives alone (oracles.py) within 1e-12, for both decoder families, on a JSONL
split with mixed K, 1, 2 and 5 captions of 1 to 12 words, duplicate captions
(pooling ties), and greedy captions that end at step 0, end later or run to
t_max.  A smaller row cap must not change any scene's result.
"""

import numpy as np
import pytest

import hsg.training
from hsg.autodiff import no_grad
from hsg.corpus import CorpusRecord, Vocabulary, load_records, save_records
from hsg.metrics import CiderRefs, build_doc_freq
from hsg.student import (StateTransformNet, decode_step, greedy_decode,
                         teacher_forced)
from hsg.teacher import build_teacher
from hsg.training import (_greedy_state_losses, _mean_state_loss,
                          _state_net_targets, build_student, evaluate_split)

from oracles import (greedy_oracle, greedy_state_loss_oracle,
                     state_net_target_oracle)

TOL = 1e-12
FEATURE_DIM = 3
T_MAX = 6
WORDS = ("red", "blue", "cube", "ball", "left", "of", "near", "a", "big")


def mixed_split(tmp_path, n_scenes=9, seed=0):
    """A JSONL split whose scenes have K = 2 or 3 objects (interleaved) and
    1, 2 or 5 captions of 1 to 12 words; some scenes repeat a caption, so
    their pooled states tie."""
    rng = np.random.default_rng(seed)
    records = []
    for s in range(n_scenes):
        k = (2, 3, 3)[s % 3]
        n_caps = (1, 2, 5)[s % 3]
        lengths = rng.integers(1, 13, size=n_caps)
        lengths[0] = {0: 1, 2: 12}.get(s % 4, lengths[0])
        caps = [[WORDS[w] for w in rng.integers(0, len(WORDS), n)] for n in lengths]
        if n_caps > 1 and s % 2:
            caps[-1] = list(caps[0])
        records.append(CorpusRecord(s, rng.normal(size=(k, FEATURE_DIM)), caps))
    path = tmp_path / "split.jsonl"
    save_records(path, records)
    loaded = load_records(path)
    vocab = Vocabulary.from_captions(c for rec in loaded for c in rec.captions)
    return loaded, vocab


def world(family, vocab, seed):
    teacher = build_teacher(len(vocab), family, 5, 4, FEATURE_DIM, seed,
                            eos_id=vocab.EOS, bos_id=vocab.BOS)
    teacher.freeze()
    net = StateTransformNet(FEATURE_DIM, teacher.decoder.layer_dims,
                            np.random.default_rng(seed + 1))
    return teacher, build_student(teacher, net)


def end_some_at_step_zero(student, records, vocab):
    """Shift the eos bias so that about half the scenes emit eos first."""
    margins = []
    with no_grad():
        for rec in records:
            ctx = student.decoder.begin(rec.features)
            logits, _ = decode_step(student.decoder, ctx, student.initial_state(ctx),
                                    np.array([vocab.BOS]))
            lg = logits.data[0]
            margins.append(lg[vocab.EOS] - np.delete(lg, vocab.EOS).max())
    m = np.sort(margins)
    mid = len(m) // 2
    student.decoder.out.b.data[vocab.EOS] -= 0.5 * (m[mid - 1] + m[mid])


def assert_rows_close(got, want, what):
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want)) <= TOL, what


@pytest.mark.parametrize("family", ["fc", "updown"])
def test_state_net_targets_match_one_scene_oracle(tmp_path, family):
    records, vocab = mixed_split(tmp_path)
    teacher, _student = world(family, vocab, seed=3)
    targets = _state_net_targets(records, teacher, vocab)
    assert len({rec.features.shape for rec in records}) == 2
    assert {len(rec.captions) for rec in records} == {1, 2, 5}
    assert {1, 12} <= {len(c) for rec in records for c in rec.captions}
    for rec, got in zip(records, targets):
        want = state_net_target_oracle(teacher, vocab, rec)
        assert len(got) == len(teacher.decoder.layer_dims)
        for layer, (g, w) in enumerate(zip(got, want)):
            assert_rows_close(g, w, f"scene {rec.scene_id} layer {layer}")


@pytest.mark.parametrize("family", ["fc", "updown"])
def test_greedy_state_losses_match_one_scene_oracle(tmp_path, family):
    records, vocab = mixed_split(tmp_path, n_scenes=30, seed=1)
    teacher, student = world(family, vocab, seed=10)
    end_some_at_step_zero(student, records, vocab)
    got = _greedy_state_losses(student, teacher, records, T_MAX)
    want = [greedy_state_loss_oracle(student, teacher, rec, T_MAX, vocab.BOS)
            for rec in records]
    lengths = [len(tokens) for tokens, _loss in want]
    # scenes end at step 0, retire at different later steps or run to t_max
    assert {0, T_MAX} <= set(lengths) and len(set(lengths) - {0, T_MAX}) >= 2
    for rec, (tokens, loss), (want_tokens, want_loss) in zip(records, got, want):
        assert tokens == want_tokens, f"scene {rec.scene_id}"
        assert abs(loss - want_loss) <= TOL, f"scene {rec.scene_id}"
    mean = _mean_state_loss(student, teacher, records, T_MAX)
    assert abs(mean - sum(loss for _t, loss in want) / len(records)) <= TOL


@pytest.mark.parametrize("family", ["fc", "updown"])
def test_greedy_rows_lay_out_as_a_forced_pass(tmp_path, family):
    # a greedy rollout over S scenes retires rows at eos; its rows have the
    # layout of a teacher-forced pass over the same emissions, and every
    # scene's tokens and log-probabilities are its one-row rollout's
    records, vocab = mixed_split(tmp_path, n_scenes=30, seed=1)
    _teacher, student = world(family, vocab, seed=10)
    end_some_at_step_zero(student, records, vocab)
    group = [rec for rec in records if rec.features.shape[0] == 3]
    feats = np.stack([rec.features for rec in group])
    scene = np.arange(len(group))
    with no_grad():
        ctx = student.decoder.begin(feats)
        init = student.initial_state(ctx)
        rows = greedy_decode(student.decoder, ctx, init, 4, scene)
        forced = teacher_forced(student.decoder, ctx, init, rows.captions, False,
                                scene)
    assert len(set(map(len, rows.emissions))) >= 3
    assert not all(rows.ended) and any(rows.ended)
    for s, rec in enumerate(group):
        with no_grad():
            one = student.decoder.begin(rec.features)
            tokens, ended, _trace = greedy_oracle(
                student.decoder, one, student.initial_state(one), 4, vocab.BOS)
        assert rows.captions[s] == tokens and rows.ended[s] == ended
    # both keep, at step t, the captions with at least t content tokens
    for got, want in zip(rows.trace, forced.trace):
        for h, wh in zip(got, want):
            assert_rows_close(h.data, wh.data, "h")
    lp = rows.log_prob_rows().data
    offsets = np.cumsum([0] + [lg.data.shape[0] for lg in rows.logits])
    lengths = np.array([len(e) for e in rows.emissions])
    for s, rec in enumerate(group):
        with no_grad():
            one = student.decoder.begin(rec.features)
            alone = greedy_decode(student.decoder, one, student.initial_state(one), 4)
        # scene s's row at step t: the earlier scenes still running
        n = lengths[s]
        p = np.array([np.count_nonzero(lengths[:s] > t) for t in range(n)], dtype=np.intp)
        assert abs(lp[offsets[:n] + p].sum() - alone.total_log_prob()) <= TOL


@pytest.mark.parametrize("family", ["fc", "updown"])
def test_row_cap_leaves_every_scene_unchanged(tmp_path, monkeypatch, family):
    records, vocab = mixed_split(tmp_path, n_scenes=30, seed=1)
    teacher, student = world(family, vocab, seed=10)
    end_some_at_step_zero(student, records, vocab)
    df = build_doc_freq([rec.captions for rec in records])
    width = 2
    passes, passes_found, rollouts, encodes = [], [], [], []
    real_beam = hsg.training.beam_search
    real_greedy = hsg.training.greedy_decode
    real_encode = teacher.encoder.encode

    def beam_spy(decoder, ctx, init_state, t_max, width):
        passes.append(ctx.n_scenes * width)
        found = real_beam(decoder, ctx, init_state, t_max, width)
        passes_found.extend((pool[0].tokens, pool[0].score) for pool in found)
        return found

    def greedy_spy(decoder, ctx, init_state, t_max, scene=None):
        rollouts.append(ctx.n_scenes)
        return real_greedy(decoder, ctx, init_state, t_max, scene=scene)

    def encode_spy(captions, feats, scene=None):
        # packed encoder rows, and whether the pass holds one scene only
        encodes.append((sum(len(c) for c in captions), feats.data.shape[0] == 1))
        return real_encode(captions, feats, scene)

    monkeypatch.setattr(hsg.training, "beam_search", beam_spy)
    monkeypatch.setattr(hsg.training, "greedy_decode", greedy_spy)
    monkeypatch.setattr(teacher.encoder, "encode", encode_spy)

    def run():
        for spied in (passes, passes_found, rollouts, encodes):
            spied.clear()
        out = (_state_net_targets(records, teacher, vocab),
               _greedy_state_losses(student, teacher, records, T_MAX),
               evaluate_split(student, records, vocab, df, width, T_MAX),
               list(passes_found))
        return out, (list(passes), list(rollouts), list(encodes))

    (targets, losses, metrics, found), (wide, wide_rollouts, wide_encodes) = run()
    monkeypatch.setattr(hsg.training, "MAX_PASS_ROWS", 5)
    (c_targets, c_losses, c_metrics, c_found), (narrow, narrow_rollouts, narrow_encodes) = run()
    # uncapped: one pass per K group; capped: at most 5 beam rows per pass,
    # one greedy row per scene, and 5 packed encoder rows per pass unless
    # one scene alone has more
    assert len(wide) == 2 and max(narrow) <= 5 < max(wide)
    assert len(wide_rollouts) == 2 and max(narrow_rollouts) == 5
    assert max(n for n, _one in wide_encodes) > 5
    assert all(n <= 5 or one for n, one in narrow_encodes)
    # a chunk's matrix products have fewer rows, which may move the last bit
    for got, want in zip(c_targets, targets):
        for g, w in zip(got, want):
            assert_rows_close(g, w, "state-net target")
    assert [t for t, _loss in c_losses] == [t for t, _loss in losses]
    assert np.allclose([v for _t, v in c_losses], [v for _t, v in losses],
                       rtol=0, atol=TOL)
    assert [t for t, _score in c_found] == [t for t, _score in found]
    assert np.allclose([v for _t, v in c_found], [v for _t, v in found],
                       rtol=0, atol=TOL)
    assert c_metrics == metrics


def test_prepared_val_references_give_the_same_metrics(tmp_path):
    records, vocab = mixed_split(tmp_path, n_scenes=6, seed=4)
    _teacher, student = world("fc", vocab, seed=9)
    df = build_doc_freq([rec.captions for rec in records])
    refs = [CiderRefs(rec.captions, df) for rec in records]
    assert (evaluate_split(student, records, vocab, df, 3, T_MAX, refs)
            == evaluate_split(student, records, vocab, df, 3, T_MAX))

