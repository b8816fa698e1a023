"""The benchmark's workloads: set-up, one fixed job, and its correctness gate.

Each workload is one set of generated inputs (the corpus seed is the
workload seed) and a fixed job that the runner repeats until the run's time
is spent.  Jobs call only public functions of ``hsg.corpus``,
``hsg.teacher``, ``hsg.training``, ``hsg.cli`` and ``hsg.checkpoint`` (and
build the ``hsg.config.RunConfig`` they take), always through the module
attribute, so a traced run sees the calls.

A job returns its outputs as a flat dict of floats (or lists of floats).
``check_outputs`` compares them with the reference values stored for the
seed in ``reference.json``, or, for a seed without reference values, checks
that they are finite and in range.
"""

import contextlib
import io
import json
import math
import os
import shutil
import time
from collections import defaultdict

import numpy as np

import hsg.checkpoint
import hsg.cli
import hsg.corpus
import hsg.teacher
import hsg.training
from hsg.config import RunConfig

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# A change that only reorders floating-point sums moves these outputs far
# less than this; a change in what is computed moves them by far more.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# (low, high) for outputs checked on seeds without reference values
UNIT = (0.0, 1.0)
NONNEG = (0.0, math.inf)
RANGES = {
    "teacher_loss": NONNEG, "teacher_token_accuracy": UNIT,
    "statenet_param_l2": (1e-12, math.inf),
    "student_param_l2": (1e-12, math.inf),
    "setup_student_param_l2": (1e-12, math.inf),
    "val_bleu4": UNIT, "val_rouge_l": UNIT, "val_cider": (0.0, 10.0),
    "val_mean_state_loss": NONNEG,
    "setup_teacher_token_accuracy": UNIT, "setup_best_val_cider": (0.0, 10.0),
    "bleu4": UNIT, "rouge_l": UNIT, "cider": (0.0, 10.0),
}


class CommandFailed(RuntimeError):
    """An in-process ``hsg`` command exited nonzero or printed a JSON error."""


class PhaseClock:
    """Phase CPU times read from the ``log=`` callbacks the loops take."""

    def __init__(self):
        self.samples = defaultdict(list)
        self._mark = time.process_time()

    def mark(self):
        self._mark = time.process_time()

    def lap(self, phase):
        now = time.process_time()
        self.samples[phase].append(now - self._mark)
        self._mark = now

    def logger(self, classify):
        return lambda message: self.lap(classify(message))

    def add(self, phase, value):
        self.samples[phase].append(value)


def param_l2(named_params):
    """L2 norm over all parameters: a rounding-stable summary of a model."""
    return math.sqrt(sum(float(np.dot(p.data.reshape(-1), p.data.reshape(-1)))
                         for p in named_params.values()))


def run_cli(argv):
    """Run one ``hsg`` command in this process; return its last JSON line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hsg.cli.main(argv)
    lines = buf.getvalue().strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        last = {}
    if code != 0 or not isinstance(last, dict) or "error" in last:
        raise CommandFailed(f"hsg {argv[0]} exited {code}: {lines[-1:]}")
    return last


class ArmFcScstHsg:
    """One reduced criterion-7 arm: teacher, state net and an scst_hsg student."""

    name = "arm_fc_scst_hsg"
    default_seed = 97
    why = ("fc H=64, C=5: teacher, state net, MLE warm-up and scst_hsg RL epochs "
           "with val beam search; per-op overhead, sampling, teacher traces, CIDEr")
    phases = (("teacher_epoch_s", "s"), ("mle_epoch_s", "s"), ("rl_epoch_s", "s"))

    def __init__(self, smoke=False):
        self.n_train, self.n_val = (6, 3) if smoke else (35, 10)
        base = dict(family="fc", hidden_dim=16 if smoke else 64, embed_dim=64,
                    lr=0.2, teacher_epochs=1, statenet_steps=20 if smoke else 175,
                    statenet_lr=0.05, grad_clip=5.0, rl_lr=0.002, t_max=16,
                    beam_width=5, reward_metric="cider")
        self.pre_cfg = RunConfig(seed=0, **base)
        self.student_cfg = RunConfig(seed=0, mode="scst_hsg", epochs=2,
                                     mle_warmup_epochs=1, state_loss_weight=0.3,
                                     **base)
        self.setup_ops = 0
        self.job_ops = (self.n_train * base["teacher_epochs"]
                        + base["statenet_steps"]
                        + self.n_train * (self.student_cfg.mle_warmup_epochs
                                          + self.student_cfg.epochs))

    def setup(self, seed, workdir):
        train, val, _test, vocab, doc_freq = hsg.corpus.generate_corpus(
            seed, self.n_train, self.n_val, 1)
        return (train, val, vocab, doc_freq), {}

    def job(self, state, clock):
        train, val, vocab, doc_freq = state
        clock.mark()
        teacher, thist = hsg.teacher.pretrain_teacher(
            train, vocab, self.pre_cfg,
            log=clock.logger(lambda _m: "teacher_epoch_s"))
        statenet = hsg.training.pretrain_state_net(
            train, teacher, vocab, self.pre_cfg, log=lambda _m: None)
        clock.mark()
        student, history = hsg.training.train_student(
            train, val, teacher, statenet, vocab, doc_freq, self.student_cfg,
            log=clock.logger(
                lambda m: "mle_epoch_s" if "(mle)" in m else "rl_epoch_s"))
        return {
            "teacher_loss": [h["loss"] for h in thist],
            "teacher_token_accuracy": [h["token_accuracy"] for h in thist],
            "statenet_param_l2": param_l2(statenet.named_parameters()),
            "val_cider": [h["cider"] for h in history],
            "val_bleu4": [h["bleu4"] for h in history],
            "val_rouge_l": [h["rouge_l"] for h in history],
            "val_mean_state_loss": [h["mean_state_loss"] for h in history],
            "student_param_l2": param_l2(student.named_parameters()),
        }


class EvalUpdownBeam:
    """In-process ``hsg evaluate`` of a short-trained updown student.

    The student is always trained on the corpus of TRAIN_CORPUS_SEED, so the
    model, and with it the set-up, is the same for every workload seed; the
    seed draws the test scenes.
    """

    name = "eval_updown_beam"
    default_seed = 7
    why = ("forward-only updown beam search (width 5) with all three metrics, "
           "JSONL corpus and checkpoint loading, through hsg.cli")
    phases = (("eval_scenes_per_s", "scenes/s"),)
    TRAIN_CORPUS_SEED = 7

    def __init__(self, smoke=False):
        self.n_test = 5 if smoke else 100
        self.n_train = 6 if smoke else 30
        self.config = {
            "n_val": 3 if smoke else 10, "family": "updown", "mode": "mle",
            "hidden_dim": 16 if smoke else 64, "embed_dim": 32,
            "teacher_epochs": 1, "epochs": 1,
            "statenet_steps": 20 if smoke else 200, "lr": 0.2,
            "beam_width": 5, "t_max": 16,
        }
        self.setup_ops = 4  # two gen-corpus, train-teacher, train-student
        self.job_ops = self.n_test + 1  # scenes plus the evaluate command

    def _config(self, workdir, name, **values):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(dict(self.config, output_dir=os.path.join(workdir, "out"),
                           corpus_dir=os.path.join(workdir, name), **values), fh)
        # the seed flag wins over an HSG_SEED in the environment
        return ["--config", path, "--set", "seed=0"]

    def setup(self, seed, workdir):
        train = self._config(workdir, "train", corpus_seed=self.TRAIN_CORPUS_SEED,
                             n_train=self.n_train, n_test=1)
        test = self._config(workdir, "test", corpus_seed=seed, n_train=1,
                            n_test=self.n_test)
        run_cli(["gen-corpus"] + train)
        teacher = run_cli(["train-teacher"] + train)
        student = run_cli(["train-student"] + train + [
            "--set", "teacher_checkpoint=" + teacher["teacher_checkpoint"]])
        run_cli(["gen-corpus"] + test)
        # the test scenes are scored with the vocabulary the student knows
        shutil.copyfile(os.path.join(workdir, "train", "vocab.json"),
                        os.path.join(workdir, "test", "vocab.json"))
        checkpoint = student["student_checkpoint"]
        params = hsg.checkpoint.load_checkpoint(checkpoint)["params"]
        return (test, checkpoint), {
            "setup_teacher_token_accuracy": teacher["final_token_accuracy"],
            "setup_best_val_cider": student["best_val_cider"],
            "setup_student_param_l2": math.sqrt(
                sum(float(np.sum(a * a)) for a in params.values())),
        }

    def job(self, state, clock):
        common, checkpoint = state
        start = time.process_time()
        result = run_cli(["evaluate"] + common + [
            "--checkpoint", checkpoint, "--split", "test"])
        clock.add("eval_scenes_per_s",
                  result["n"] / (time.process_time() - start))
        if result["n"] != self.n_test or result["split"] != "test":
            raise CommandFailed(f"evaluate scored {result['n']} {result['split']} "
                                f"scenes, expected {self.n_test} test scenes")
        return {"bleu4": result["bleu4"], "rouge_l": result["rouge_l"],
                "cider": result["cider"]}


WORKLOADS = {cls.name: cls for cls in (ArmFcScstHsg, EvalUpdownBeam)}


def load_reference(path=REFERENCE_PATH):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_outputs(outputs, reference=None):
    """Mismatch messages for one job's outputs; empty when they pass.

    With reference values every stored key must be present and agree within
    REL_TOL/ABS_TOL; without, every output must be finite and inside its
    RANGES entry.
    """
    problems = []
    if reference is not None:
        for key, want in sorted(reference.items()):
            got = outputs.get(key)
            if isinstance(want, list):
                ok = (isinstance(got, list) and len(got) == len(want)
                      and all(_close(g, w) for g, w in zip(got, want)))
            else:
                ok = isinstance(got, (int, float)) and _close(got, want)
            if not ok:
                problems.append(f"{key}: got {got!r}, reference {want!r}")
        return problems
    for key, value in sorted(outputs.items()):
        low, high = RANGES.get(key, (-math.inf, math.inf))
        for v in value if isinstance(value, list) else [value]:
            if not (math.isfinite(v) and low <= v <= high):
                problems.append(f"{key}: {v!r} outside [{low}, {high}]")
    return problems
