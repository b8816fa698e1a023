import numpy as np
import pytest

from hsg import autodiff as ad
from hsg.autodiff import (ContractError, Tape, Tensor, backward, grad_check,
                          no_grad)
from hsg.student import (DECODERS, StateTransformNet, beam_search,
                         decode_step, greedy_decode, sample_decode,
                         sample_categorical, teacher_forced)

from oracles import beam_search_oracle

EOS = 0
BOS = 1


def make_world(family="fc", vocab=5, embed=4, hidden=3, feat=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    decoder = DECODERS[family](vocab, embed, hidden, feat, BOS, EOS, rng)
    net = StateTransformNet(feat, decoder.layer_dims, rng)
    features = rng.normal(size=(k, feat))
    return decoder, net, features


def fresh(decoder, net, features):
    ctx = decoder.begin(features)
    return ctx, net.initial_state(ctx.vbar)


def test_state_transform_zero_weights_zero_state():
    _, net, _ = make_world()
    for p in net.named_parameters().values():
        p.data[...] = 0.0
    out = net(Tensor(np.ones((1, 4))))
    assert all(np.all(h.data == 0.0) for h in out)


def test_state_transform_deterministic_and_differentiable():
    _, net, _ = make_world(seed=3)
    vbar = ad.parameter(np.random.default_rng(4).normal(size=(1, 4)))
    a = net(vbar)[0].data.copy()
    b = net(vbar)[0].data.copy()
    assert np.array_equal(a, b)

    def f(*_):
        return ad.squared_l2(net(vbar)[0], Tensor(np.ones((1, 3))))

    assert grad_check(f, [vbar] + list(net.named_parameters().values())) <= 1e-5


def test_state_transform_dim_mismatch():
    _, net, _ = make_world()
    with pytest.raises(ad.DimensionError):
        net(Tensor(np.ones((1, 7))))


def test_decode_step_probabilities_sum_to_one():
    for family in ("fc", "updown"):
        decoder, net, features = make_world(family, seed=5)
        ctx, state = fresh(decoder, net, features)
        with no_grad():
            logits, _ = decode_step(decoder, ctx, state, np.array([BOS]))
        probs = np.exp(ad.log_softmax(logits).data)
        assert abs(probs.sum() - 1.0) <= 1e-12


def test_updown_single_object_attended_feature(monkeypatch):
    import hsg.student
    decoder, net, features = make_world("updown", k=1, seed=6)
    ctx = decoder.begin(features)
    state = net.initial_state(ctx.vbar)
    alpha_probe = {}

    def spy(h, keys, feats, scene):
        out = ad.scene_attention(h, keys, feats, scene)
        alpha_probe["alpha"] = out[0].data.copy()
        return out

    monkeypatch.setattr(hsg.student, "scene_attention", spy)
    with no_grad():
        decode_step(decoder, ctx, state, np.array([BOS]))
    assert np.allclose(alpha_probe["alpha"], [[1.0]], atol=0)


def test_decode_step_rejects_bad_token():
    decoder, net, features = make_world()
    ctx, state = fresh(decoder, net, features)
    with pytest.raises(ContractError):
        decode_step(decoder, ctx, state, np.array([99]))


def test_decode_step_rejects_vector_state():
    # states are (B, H) rows; a single caption is a batch of one row
    decoder, net, features = make_world()
    ctx, state = fresh(decoder, net, features)
    vector = [(Tensor(h.data.reshape(-1)), Tensor(c.data.reshape(-1))) for h, c in state]
    for prev in (BOS, np.array([BOS])):
        with pytest.raises(ad.DimensionError):
            decode_step(decoder, ctx, vector, prev)


def test_greedy_eos_bias_gives_empty_caption():
    decoder, net, features = make_world(seed=7)
    decoder.out.b.data[...] = 0.0
    decoder.out.b.data[EOS] = 50.0
    ctx, state = fresh(decoder, net, features)
    rollout = greedy_decode(decoder, ctx, state, t_max=6)
    assert rollout.tokens == []
    assert rollout.ended
    assert len(rollout.trace) == 1


def test_greedy_deterministic_and_locally_optimal():
    decoder, net, features = make_world(seed=8)
    ctx, state = fresh(decoder, net, features)
    r1 = greedy_decode(decoder, ctx, state, t_max=6)
    r2 = greedy_decode(decoder, ctx, state, t_max=6)
    assert r1.tokens == r2.tokens
    # every emitted token's log-prob is at least that of any substitution
    with no_grad():
        state = net.initial_state(ctx.vbar)
        prev = BOS
        emissions = list(r1.tokens) + ([EOS] if r1.ended else [])
        for step, tok in enumerate(emissions):
            logits, state = decode_step(decoder, ctx, state, np.array([prev]))
            lp = ad.log_softmax(logits).data[0]
            assert lp[tok] >= lp.max() - 1e-15
            prev = tok


def test_sampler_matches_distribution():
    rng = np.random.default_rng(9)
    probs = np.array([0.2, 0.5, 0.3])
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[sample_categorical(probs, rng)] += 1
    freqs = counts / n
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freqs - probs) <= 3 * sigma)


def test_sample_degenerate_distribution_is_deterministic():
    decoder, net, features = make_world(seed=10)
    decoder.out.b.data[...] = -50.0
    decoder.out.b.data[3] = 50.0  # one-hot softmax at token 3
    ctx = decoder.begin(features)
    rng = np.random.default_rng(0)
    with Tape():
        rollout = sample_decode(decoder, ctx, net.initial_state(ctx.vbar),
                                t_max=4, rng=rng)
    assert rollout.tokens == [3, 3, 3, 3]


def test_sampling_deterministic_given_seed():
    decoder, net, features = make_world(seed=15)
    ctx = decoder.begin(features)
    outs = []
    for _ in range(2):
        with Tape():
            r = sample_decode(decoder, ctx, net.initial_state(ctx.vbar),
                              t_max=6, rng=np.random.default_rng(42))
        outs.append((tuple(r.tokens), r.ended, r.total_log_prob()))
    assert outs[0] == outs[1]


def test_sampled_log_probs_match_replay():
    for family in ("fc", "updown"):
        decoder, net, features = make_world(family, seed=11)
        ctx = decoder.begin(features)
        rng = np.random.default_rng(1)
        with Tape():
            rollout = sample_decode(decoder, ctx, net.initial_state(ctx.vbar),
                                    t_max=6, rng=rng)
        with no_grad():
            ctx2 = decoder.begin(features)
            replay = teacher_forced(decoder, ctx2, net.initial_state(ctx2.vbar),
                                    [rollout.tokens], rollout.ended)
        assert abs(rollout.total_log_prob() - replay.total_log_prob()) <= 1e-12
        assert len(rollout.trace) == len(rollout.tokens) + 1


def test_rollout_trace_matches_teacher_forced_states():
    decoder, net, features = make_world(seed=12)
    ctx = decoder.begin(features)
    rng = np.random.default_rng(2)
    with Tape():
        rollout = sample_decode(decoder, ctx, net.initial_state(ctx.vbar),
                                t_max=5, rng=rng)
    with no_grad():
        ctx2 = decoder.begin(features)
        trace = teacher_forced(decoder, ctx2, net.initial_state(ctx2.vbar),
                               [rollout.tokens], False).trace
    assert len(rollout.trace) == len(trace)
    for h_roll, h_tf in zip(rollout.trace, trace):
        for h1, h2 in zip(h_roll, h_tf):
            assert np.array_equal(h1.data, h2.data)


def test_teacher_forced_rejects_eos_in_content():
    decoder, net, features = make_world(seed=21)
    ctx, state = fresh(decoder, net, features)
    with pytest.raises(ContractError, match="eos"):
        teacher_forced(decoder, ctx, state, [[3, 2], [3, EOS, 2]], False)


def test_beam_width_one_equals_greedy():
    for family in ("fc", "updown"):
        for seed in range(5):
            decoder, net, features = make_world(family, seed=seed)
            ctx, state = fresh(decoder, net, features)
            greedy = greedy_decode(decoder, ctx, state, t_max=5)
            state2 = net.initial_state(ctx.vbar)
            ((best, *_),) = beam_search(decoder, ctx, state2, t_max=5, width=1)
            assert list(best.tokens) == greedy.tokens
            assert best.score == pytest.approx(greedy.total_log_prob(), abs=1e-12)


def brute_force_best(decoder, ctx, init, t_max):
    from hsg.checks import enumerate_rollouts
    best = None
    with no_grad():
        for tokens, ended in enumerate_rollouts(decoder.vocab_size, EOS, t_max):
            r = teacher_forced(decoder, ctx, init, [tokens], ended)
            key = (-r.total_log_prob(), tuple(tokens) + ((EOS,) if ended else ()))
            if best is None or key < best[0]:
                best = (key, tokens)
    return best[1]


def test_beam_exhaustive_matches_enumeration():
    decoder, net, features = make_world(vocab=4, seed=13)
    ctx, state = fresh(decoder, net, features)
    expected = brute_force_best(decoder, ctx, net.initial_state(ctx.vbar), 3)
    ((best, *_),) = beam_search(decoder, ctx, state, t_max=3, width=64)
    assert list(best.tokens) == expected


def test_beam_pool_scores_non_increasing_and_width_monotone():
    decoder, net, features = make_world(seed=14)
    ctx, state = fresh(decoder, net, features)
    (pool,) = beam_search(decoder, ctx, state, t_max=4, width=3)
    scores = [h.score for h in pool]
    assert scores == sorted(scores, reverse=True)
    prev_best = None
    for width in (1, 2, 3, 5):
        state_w = net.initial_state(ctx.vbar)
        ((best, *_),) = beam_search(decoder, ctx, state_w, t_max=4, width=width)
        if prev_best is not None:
            assert best.score >= prev_best - 1e-15
        prev_best = best.score


def test_beam_width_contract():
    decoder, net, features = make_world()
    ctx, state = fresh(decoder, net, features)
    with pytest.raises(ContractError):
        beam_search(decoder, ctx, state, t_max=3, width=0)


def all_ties(decoder):
    """Zero output layer: every log-prob is exactly -log V, so only the
    lexicographic tie-break orders the candidates."""
    decoder.out.w.data[...] = 0.0
    decoder.out.b.data[...] = 0.0
    return decoder


def test_beam_rows_match_scalar_oracle():
    # S scenes decode as the rows of one search; each scene's pool must be
    # the one-scene, one-beam oracle's, in the same order
    retire_steps = set()
    for family in ("fc", "updown"):
        for seed, world in ((16, "plain"), (17, "plain"), (18, "ties"), (19, "bias"),
                            (23, "eos")):
            decoder, net, features = make_world(family, vocab=6, seed=seed)
            if world == "ties":
                all_ties(decoder)
            if world == "bias":
                # every row has the same log-probs, so prefixes that permute
                # the same tokens tie exactly while others do not
                decoder.out.w.data[...] = 0.0
            if world == "eos":
                # an eos logit that swings with the state retires all of a
                # scene's beams at a step that differs from scene to scene
                decoder.out.w.data[EOS] *= 6.0
            for n_scenes in (1, 3, 7):
                scenes = np.random.default_rng(seed + n_scenes).normal(
                    size=(n_scenes,) + features.shape)
                for width in (1, 2, 5, 64):
                    for t_max in (1, 6):
                        ctx = decoder.begin(scenes)
                        pools = beam_search(decoder, ctx, net.initial_state(ctx.vbar),
                                            t_max, width=width)
                        assert len(pools) == n_scenes
                        steps = set()
                        for pool, scene in zip(pools, scenes):
                            one = decoder.begin(scene)
                            expected = beam_search_oracle(
                                decoder, one, net.initial_state(one.vbar), t_max,
                                width, BOS)
                            assert [h.emissions for h in pool] == [
                                h.emissions for h in expected]
                            assert [(h.tokens, h.ended) for h in pool] == [
                                (h.tokens, h.ended) for h in expected]
                            for got, want in zip(pool, expected):
                                assert abs(got.score - want.score) <= 1e-12
                            if all(h.ended for h in pool):
                                steps.add(max(len(h.emissions) for h in pool))
                        if len(steps) > 1:
                            retire_steps.add(family)
    # the eos world covers searches whose scenes retire at different steps
    assert retire_steps == {"fc", "updown"}


def test_scene_index_contracts():
    # a context of S scenes needs S initial rows and a scene id per row
    decoder, net, features = make_world("updown")
    ctx = decoder.begin(np.stack([features, features]))
    with pytest.raises(ad.DimensionError):
        beam_search(decoder, ctx, net.initial_state(Tensor(ctx.vbar.data[:1])),
                    3, width=2)
    state = net.initial_state(ctx.vbar)
    with pytest.raises(ContractError):
        decode_step(decoder, ctx, state, np.array([BOS, BOS]))
    with pytest.raises(ContractError):
        decode_step(decoder, ctx, state, np.array([BOS, BOS]), np.array([0, 2]))
    with pytest.raises(ad.DimensionError):
        decode_step(decoder, ctx, state, np.array([BOS, BOS]), np.array([0]))
    # teacher_forced takes one initial row per scene and a scene id per caption
    with pytest.raises(ad.DimensionError):
        teacher_forced(decoder, ctx, net.initial_state(Tensor(ctx.vbar.data[:1])),
                       [[3], [3]], False, np.array([0, 1]))
    with pytest.raises(ad.DimensionError):
        teacher_forced(decoder, ctx, state, [[3], [3]], False, np.array([0, 1, 1]))


def test_decode_step_rows_match_single_rows():
    for family in ("fc", "updown"):
        decoder, net, features = make_world(family, seed=19)
        ctx, state = fresh(decoder, net, features)
        tokens = np.array([BOS, 3, 2, 3])
        rows = [(Tensor(np.concatenate([h.data * (1 + 0.1 * b) for b in range(4)])),
                 Tensor(np.concatenate([c.data - 0.2 * b for b in range(4)])))
                for h, c in state]
        with no_grad():
            logits, new_rows = decode_step(decoder, ctx, rows, tokens)
            for b in range(4):
                single = [(Tensor(h.data[b:b + 1]), Tensor(c.data[b:b + 1]))
                          for h, c in rows]
                want, want_state = decode_step(decoder, ctx, single, tokens[b:b + 1])
                assert np.allclose(logits.data[b], want.data[0], rtol=0, atol=1e-12)
                for (h, c), (wh, wc) in zip(new_rows, want_state):
                    assert np.allclose(h.data[b], wh.data[0], rtol=0, atol=1e-12)
                    assert np.allclose(c.data[b], wc.data[0], rtol=0, atol=1e-12)
        with pytest.raises(ContractError):
            decode_step(decoder, ctx, rows, np.array([BOS, 3, 2, 99]))
        with pytest.raises(ad.DimensionError):
            decode_step(decoder, ctx, rows, tokens[:3])


def test_decode_step_rows_gradients_match_single_rows():
    # a row batch on a recording tape gets the gradients of its rows run one
    # by one: repeated token ids and the shared context sum over the rows
    for family in ("fc", "updown"):
        decoder, net, features = make_world(family, seed=20)
        _ctx, state = fresh(decoder, net, features)
        tokens = np.array([BOS, 3, 3, 2])
        weights = np.random.default_rng(1).normal(size=(4, decoder.vocab_size))
        data = [(np.concatenate([h.data * (1 + 0.1 * b) for b in range(4)]),
                 np.concatenate([c.data - 0.2 * b for b in range(4)])) for h, c in state]
        params = decoder.named_parameters()

        def grads(batches):
            for p in params.values():
                p.zero_grad()
            leaves = []
            with Tape() as tape:
                ctx = decoder.begin(features)
                terms = []
                for b, tok in batches:
                    rows = [(ad.parameter(h[b]), ad.parameter(c[b])) for h, c in data]
                    leaves.append(rows)
                    logits, new = decode_step(decoder, ctx, rows, tok)
                    terms.append(ad.tensor_sum(ad.mul(logits, Tensor(weights[b])))
                                 + ad.tensor_sum(ad.mul(new[-1][0], new[-1][1])))
                backward(tape, ad.sum_terms(terms))
            out = {n: p.grad.copy() for n, p in params.items()}
            out["states"] = np.concatenate([np.ravel(t.grad) for rows in leaves
                                            for h, c in rows for t in (h, c)])
            return out

        batched = grads([(slice(None), tokens)])
        single = grads([(slice(b, b + 1), tokens[b:b + 1]) for b in range(4)])
        single["states"] = np.concatenate(
            [single["states"].reshape(4, len(data), 2, -1)[:, l, k].ravel()
             for l in range(len(data)) for k in range(2)])
        for name, g in batched.items():
            assert np.allclose(g, single[name], rtol=0, atol=1e-12), (family, name)
