"""Tests of the benchmark itself: span arithmetic, names, correctness gate.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import math
import os
import re
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, tracing, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def ticking_clock(step=1.0):
    counter = itertools.count()
    return lambda: step * next(counter)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("a"):              # 0 .. 10
        with tracer.span("b"):          # 1 .. 5
            with tracer.span("c"):      # 2 .. 4
                pass
        with tracer.span("d"):          # 6 .. 7
            pass
    name, parent, start, end = tracer.arrays()
    assert parent.tolist() == [-1, 0, 1, 0]
    assert tracing.self_times(parent, start, end).tolist() == [5.0, 2.0, 2.0, 1.0]
    assert tracing.root_of(parent).tolist() == [0, 0, 0, 0]


def test_installed_wrappers_record_job_spans_and_restore():
    def clip(params, max_norm):
        return params

    def cider(x):
        return x

    ns = types.SimpleNamespace(clip=clip, cider=cider)
    tracer = tracing.Tracer(clock=ticking_clock())
    targets = [(ns, "clip", "training.clip_gradients", tracing._clipped),
               (ns, "cider", "metrics.cider", None)]
    with tracer.installed(targets):
        assert ns.cider is not cider
        with tracer.span(tracing.SETUP):
            ns.cider(1)
        with tracer.span(tracing.JOB):
            ns.clip(7.0, 5.0)
            ns.clip(3.0, 5.0)
            ns.cider(ns.cider(2))
    assert ns.clip is clip and ns.cider is cider

    metrics = tracing.layer_metrics(tracer, n_jobs=1)
    assert metrics["metrics.cider.calls"]["value"] == 2
    assert metrics["metrics.cider.us_per_call"]["value"] == pytest.approx(1e6)
    assert metrics["training.clip_gradients.clipped_fraction"]["value"] == 0.5
    assert metrics["autodiff.backward.calls"]["value"] == 0
    assert metrics["corpus.generate_corpus.ms"]["value"] == 0


def test_metric_and_workload_names_are_valid_and_match_the_code():
    spec = benchmark_json()
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert all(UNIT.match(e["unit"]) for e in spec["end_to_end"] + spec["per_layer"])

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    layer = [(m, u) for m, u, *_ in tracing.LAYER_METRICS] + tracing.OVERHEAD_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    for entry in spec["end_to_end"]:
        assert entry["better"] in ("lower", "higher") and 0 < entry["bound"] <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_correctness_gate_flags_a_perturbed_reference(workload):
    cls = workloads.WORKLOADS[workload]
    reference = workloads.load_reference()[workload][str(cls.default_seed)]
    assert workloads.check_outputs(dict(reference), reference) == []

    for key, value in reference.items():
        def perturbed(rel):
            if isinstance(value, list):
                return [value[0] * (1 + rel)] + value[1:]
            return value * (1 + rel)

        rounding = dict(reference, **{key: perturbed(1e-12)})
        assert workloads.check_outputs(rounding, reference) == [], key
        changed = dict(reference, **{key: perturbed(1e-3)})
        if perturbed(1e-3) != perturbed(0.0):
            assert workloads.check_outputs(changed, reference), key
        missing = {k: v for k, v in reference.items() if k != key}
        assert workloads.check_outputs(missing, reference), key


def test_range_checks_flag_non_finite_and_out_of_range_outputs():
    assert workloads.check_outputs({"teacher_loss": [1.0, 0.5], "cider": 2.0}) == []
    assert workloads.check_outputs({"teacher_loss": [1.0, math.nan]})
    assert workloads.check_outputs({"bleu4": 1.5})
    assert workloads.check_outputs({"val_mean_state_loss": [-0.1]})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = benchmark_json()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
