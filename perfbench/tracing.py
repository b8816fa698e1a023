"""In-memory span tracer that wraps hsg functions from outside the package.

A traced run replaces selected module attributes (the names callers import
a function by) with wrappers that record one span per call: name, start,
end and parent span.  Spans live in flat arrays while the run goes on and
are written to disk once, when it ends.  Nothing under ``src/hsg`` is
edited; ``Tracer.installed`` restores every original attribute on exit.

The layer metrics below are computed from those spans.  Self time is a
span's duration minus the time covered by its child spans; calls are
single-threaded and strictly nested, so the children of a span never
overlap each other.
"""

import contextlib
import time
import uuid
from array import array

import numpy as np

SETUP, JOB = "bench.setup", "bench.job"

UPDATE_SPANS = ("training.clip_gradients", "training.sgd_update",
                "training.zero_gradients")


def _tape_nodes(args, _result):
    return len(args[0])


def _clipped(args, result):
    # clip_gradients(params, max_norm) scales only when norm > max_norm > 0
    return float(result > args[1] > 0)


def wrap_targets():
    """(owner, attribute, span name, counter hook) for every traced call.

    A function is patched under each name its callers look it up by: a
    module-level import (``from .student import teacher_forced``) binds a
    separate name in the importing module.
    """
    import hsg.cli
    import hsg.corpus
    import hsg.layers
    import hsg.student
    import hsg.teacher
    import hsg.training

    teacher_cls = hsg.teacher.TeacherAutoencoder
    return [
        (hsg.teacher, "backward", "autodiff.backward", _tape_nodes),
        (hsg.training, "backward", "autodiff.backward", _tape_nodes),
        (hsg.layers, "lstm_step", "layers.lstm_step", None),
        (hsg.student, "decode_step", "student.decode_step", None),
        (hsg.teacher, "teacher_forced", "student.teacher_forced", None),
        (hsg.training, "teacher_forced", "student.teacher_forced", None),
        (hsg.training, "sample_decode", "student.sample_decode", None),
        (hsg.training, "greedy_decode", "student.greedy_decode", None),
        (hsg.training, "beam_search", "student.beam_search", None),
        (teacher_cls, "trace_for_tokens", "teacher.trace_for_tokens", None),
        (teacher_cls, "encode_pooled", "teacher.encode_pooled", None),
        (hsg.training, "cider", "metrics.cider", None),
        (hsg.training, "bleu4", "metrics.bleu4", None),
        (hsg.training, "rouge_l", "metrics.rouge_l", None),
        # pretrain_teacher imports these from hsg.training at call time
        (hsg.training, "clip_gradients", "training.clip_gradients", _clipped),
        (hsg.training, "sgd_update", "training.sgd_update", None),
        (hsg.training, "zero_gradients", "training.zero_gradients", None),
        (hsg.training, "evaluate_split", "training.evaluate_split", None),
        (hsg.cli, "evaluate_split", "training.evaluate_split", None),
        (hsg.training, "pretrain_state_net", "training.pretrain_state_net", None),
        (hsg.cli, "pretrain_state_net", "training.pretrain_state_net", None),
        (hsg.corpus, "generate_corpus", "corpus.generate_corpus", None),
        (hsg.cli, "generate_corpus", "corpus.generate_corpus", None),
        (hsg.cli, "load_records", "corpus.load_records", None),
        (hsg.cli, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (hsg.cli, "save_checkpoint", "checkpoint.save_checkpoint", None),
    ]


# (metric, unit, span, statistic, phase).  Statistics:
#   calls        calls per job
#   self_ms      self time per job, ms
#   self_us      self time per call, us
#   ms_per_call  span time (children included) per call, ms; us_per_call in us
#   s_per_job    span time per job, s
#   counter      mean of the span's counter hook over its calls
LAYER_METRICS = [
    ("autodiff.backward.self_ms", "ms", "autodiff.backward", "self_ms", JOB),
    ("autodiff.backward.calls", "count", "autodiff.backward", "calls", JOB),
    ("autodiff.tape_nodes_per_backward", "nodes", "autodiff.backward", "counter", JOB),
    ("layers.lstm_step.calls", "count", "layers.lstm_step", "calls", JOB),
    ("layers.lstm_step.self_us", "us", "layers.lstm_step", "self_us", JOB),
    ("student.decode_step.calls", "count", "student.decode_step", "calls", JOB),
    ("student.teacher_forced.self_ms", "ms", "student.teacher_forced", "self_ms", JOB),
    ("student.teacher_forced.calls", "count", "student.teacher_forced", "calls", JOB),
    ("student.sample_decode.self_ms", "ms", "student.sample_decode", "self_ms", JOB),
    ("student.greedy_decode.self_ms", "ms", "student.greedy_decode", "self_ms", JOB),
    ("student.beam_search.self_ms", "ms", "student.beam_search", "self_ms", JOB),
    ("student.beam_search.ms_per_scene", "ms", "student.beam_search", "ms_per_call", JOB),
    ("teacher.trace_for_tokens.ms_per_call", "ms", "teacher.trace_for_tokens", "ms_per_call", JOB),
    ("teacher.trace_for_tokens.calls", "count", "teacher.trace_for_tokens", "calls", JOB),
    ("teacher.encode_pooled.self_ms", "ms", "teacher.encode_pooled", "self_ms", JOB),
    ("metrics.cider.us_per_call", "us", "metrics.cider", "us_per_call", JOB),
    ("metrics.cider.calls", "count", "metrics.cider", "calls", JOB),
    ("metrics.bleu4.us_per_call", "us", "metrics.bleu4", "us_per_call", JOB),
    ("metrics.rouge_l.us_per_call", "us", "metrics.rouge_l", "us_per_call", JOB),
    ("training.update.us_per_step", "us", UPDATE_SPANS, "us_per_call", JOB),
    ("training.clip_gradients.clipped_fraction", "ratio", "training.clip_gradients", "counter", JOB),
    ("training.evaluate_split.self_ms", "ms", "training.evaluate_split", "self_ms", JOB),
    ("training.pretrain_state_net.s", "s", "training.pretrain_state_net", "s_per_job", JOB),
    ("corpus.generate_corpus.ms", "ms", "corpus.generate_corpus", "ms_per_call", SETUP),
    ("corpus.load_records.ms", "ms", "corpus.load_records", "ms_per_call", JOB),
    ("checkpoint.load_checkpoint.ms", "ms", "checkpoint.load_checkpoint", "ms_per_call", JOB),
    ("checkpoint.save_checkpoint.ms", "ms", "checkpoint.save_checkpoint", "ms_per_call", SETUP),
]

# filled in by the runner from untraced and traced repetitions of the job
OVERHEAD_METRICS = [
    ("tracing.overhead_s", "s"),
    ("tracing.overhead_pct", "%"),
]


class Tracer:
    """Span recorder; one instance per run, all spans share its run id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run_id = uuid.uuid4().hex
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counter_span = array("i")
        self.counter_value = array("d")
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = self.clock()
        return idx

    def _close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self.name_id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name, hook=None):
        name_id = self.name_id(name)
        open_, close = self._open, self._close
        spans, values = self.counter_span, self.counter_value

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                spans.append(idx)
                values.append(hook(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every (owner, attribute) target with a wrapper, then restore."""
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _name, _hook in targets]
        try:
            for (owner, attr, fn), (_o, _a, name, hook) in zip(originals, targets):
                setattr(owner, attr, self.wrap(fn, name, hook))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def arrays(self):
        """Span columns as numpy arrays: name, parent, start, end."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def write(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=name, parent=parent, start=start, end=end,
            counter_span=np.frombuffer(self.counter_span, dtype=np.int32),
            counter_value=np.frombuffer(self.counter_value, dtype=np.float64))


def self_times(parent, start, end):
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def root_of(parent):
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.arange(len(parent))
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            root[i] = root[p]
    return root


def layer_metrics(tracer, n_jobs):
    """Every LAYER_METRICS value, per job or per call, from the recorded spans.

    Only spans under a ``bench.job`` root count towards JOB metrics and only
    spans under a ``bench.setup`` root towards SETUP metrics.  A layer the
    workload never calls reads 0.
    """
    name, parent, start, end = tracer.arrays()
    dur = end - start
    self_t = self_times(parent, start, end)
    root = root_of(parent)
    root_name = name[root]
    counter_span = np.frombuffer(tracer.counter_span, dtype=np.int32)
    counter_value = np.frombuffer(tracer.counter_value, dtype=np.float64)

    out = {}
    for metric, unit, spans, stat, phase in LAYER_METRICS:
        spans = (spans,) if isinstance(spans, str) else spans
        in_phase = root_name == tracer._name_ids.get(phase, -1)
        ids = [tracer._name_ids[s] for s in spans if s in tracer._name_ids]
        mask = np.isin(name, ids) & in_phase
        # per-call statistics divide by the calls of the first listed span
        first = tracer._name_ids.get(spans[0], -1)
        calls = int(np.count_nonzero((name == first) & in_phase))
        if stat == "calls":
            value = calls / max(n_jobs, 1)
        elif stat == "self_ms":
            value = 1e3 * float(self_t[mask].sum()) / max(n_jobs, 1)
        elif stat == "self_us":
            value = 1e6 * float(self_t[mask].sum()) / calls if calls else 0.0
        elif stat == "ms_per_call":
            value = 1e3 * float(dur[mask].sum()) / calls if calls else 0.0
        elif stat == "us_per_call":
            value = 1e6 * float(dur[mask].sum()) / calls if calls else 0.0
        elif stat == "s_per_job":
            value = float(dur[mask].sum()) / max(n_jobs, 1)
        elif stat == "counter":
            keep = mask[counter_span]
            value = float(counter_value[keep].mean()) if keep.any() else 0.0
        else:
            raise ValueError(f"unknown statistic {stat!r}")
        out[metric] = {"value": value, "unit": unit}
    return out
