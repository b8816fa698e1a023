"""The benchmark's tracer patches hsg functions by the names their callers
look them up under, and its workloads build RunConfigs by field name; a
rename or removal in src/hsg must fail here, not only in a benchmark run."""

import os
import sys

import hsg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import tracing  # noqa: E402


def test_trace_targets_resolve_on_src_hsg():
    src = os.path.dirname(os.path.abspath(hsg.__file__))
    targets = tracing.wrap_targets()
    assert targets
    for owner, attr, span, _hook in targets:
        module = sys.modules[getattr(owner, "__module__", owner.__name__)]
        assert os.path.dirname(os.path.abspath(module.__file__)) == src, span
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_blas_thread_count_follows_the_environment():
    # conftest.py sets OPENBLAS_NUM_THREADS before numpy loads; the count
    # OpenBLAS reports is read as the benchmark's {"env"} line reads it
    import pytest
    from perfbench.run import blas_environment

    threads = blas_environment()["blas_threads"]
    if threads is None:
        pytest.skip("this BLAS does not report its thread count")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_benchmark_configs_build():
    from hsg.config import RunConfig
    from perfbench.workloads import ArmFcScstHsg, EvalUpdownBeam

    arm = ArmFcScstHsg()
    arm.pre_cfg.validate()
    arm.student_cfg.validate()
    RunConfig(**EvalUpdownBeam().config).validate()


def test_lstm_step_counts_decoder_steps_only(monkeypatch):
    # the tracer's layers.lstm_step.calls counts decoder LSTM steps: each
    # LstmCell.step looks lstm_step up in hsg.layers, and the caption
    # encoder runs its LSTMs as lstm_layer passes without it
    import numpy as np
    import hsg.layers
    from hsg.autodiff import Tensor
    from hsg.student import decode_step
    from hsg.teacher import build_teacher

    calls = []
    real_step = hsg.layers.lstm_step

    def counting_step(*args):
        calls.append(1)
        return real_step(*args)

    monkeypatch.setattr(hsg.layers, "lstm_step", counting_step)
    feats = np.random.default_rng(0).normal(size=(3, 4))
    for family, per_step in (("fc", 1), ("updown", 2)):
        teacher = build_teacher(7, family, 4, 3, 4, 0, bos_id=1, eos_id=2)
        decoder = teacher.decoder
        ctx = decoder.begin(feats)
        state = [(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
                 for _ in decoder.layer_dims]
        del calls[:]
        decode_step(decoder, ctx, state, np.array([1, 3]))
        assert len(calls) == per_step, family
        del calls[:]
        teacher.encoder.encode([[1, 3, 4, 2], [1, 5, 2]], ctx.feats)
        assert not calls, family


def test_trace_for_tokens_counts_guided_rl_steps(monkeypatch):
    # the tracer's teacher.trace_for_tokens.calls counts guided RL steps:
    # one hsg_gradients call takes one teacher trace at lam > 0 and none at
    # lam = 0 (scst)
    import numpy as np
    from hsg.autodiff import Tape, no_grad
    from hsg.checks import _TinyWorld
    from hsg.student import greedy_decode, sample_decode
    from hsg.teacher import TeacherAutoencoder
    from hsg.training import hsg_gradients, zero_gradients

    calls = []
    real_trace = TeacherAutoencoder.trace_for_tokens

    def counting_trace(self, *args, **kwargs):
        calls.append(1)
        return real_trace(self, *args, **kwargs)

    monkeypatch.setattr(TeacherAutoencoder, "trace_for_tokens", counting_trace)
    world = _TinyWorld("fc", seed=6)
    params = list(world.student_params.values())
    with no_grad():
        ctx = world.make_ctx()
        greedy = greedy_decode(world.decoder, ctx, world.init(ctx), world.t_max)
    for lam, want in ((0.8, 1), (0.0, 0)):
        del calls[:]
        zero_gradients(params)
        with Tape() as tape:
            ctx = world.make_ctx()
            rollout = sample_decode(world.decoder, ctx, world.init(ctx),
                                    world.t_max, np.random.default_rng(0))
            hsg_gradients(tape, rollout, greedy, world.refs, world.reward_fn,
                          world.teacher, lam, features=world.features)
        assert len(calls) == want, lam
    zero_gradients(params)
