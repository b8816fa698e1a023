"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload arm_fc_scst_hsg --seed 97 --seconds 50 --trace 0

Each workload runs in this one process against ``src/hsg`` of the checkout
that holds this file.  Set-up is repeated SETUP_REPS times; the fixed job is
then repeated until ``--seconds`` is spent.  With ``--trace 0`` the last
line of standard output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, whose
first job runs untraced to give the tracing overhead.  ``--workload all``
runs every workload in its own process and prints each one's metrics.
Exit code 2 means the benchmark could not run at all.
"""

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("arm_fc_scst_hsg", "eval_updown_beam")
SETUP_REPS = 3


def git_sha(root):
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_environment():
    """OpenBLAS version and the thread count it reports, with how it was read."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        info["blas"] = "unknown"
    info["blas_threads"] = None
    info["blas_threads_read_by"] = "not readable"
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                info["blas_threads_read_by"] = (
                    f"{prefix}_get_num_threads{suffix}() in "
                    f"{os.path.basename(path)}")
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["blas_runtime"] = config().decode()
                return info
    return info


def environment():
    info = {"git_sha": git_sha(ROOT), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    info.update(blas_environment())
    return info


def median(values):
    return statistics.median(values) if values else float("nan")


def cpu_seconds(usage):
    return usage.ru_utime + usage.ru_stime


def measure_startup():
    """Median CPU and wall seconds of a fresh Python process importing hsg."""
    code = f"import sys; sys.path[:0] = [{SRC!r}]; import hsg.cli"
    cpu, wall = [], []
    for _ in range(SETUP_REPS):
        before = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        wall.append(time.perf_counter() - start)
        cpu.append(cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
                   - before)
    return median(cpu), median(wall)


def measure(workload, seed, seconds, trace, workdir, reference):
    """Set up, repeat the job for `seconds`, check outputs; return the result.

    Times are CPU seconds of this process (BLAS runs on one thread unless
    OPENBLAS_NUM_THREADS says otherwise), scaled by the calibration kernel
    timed between every two pieces of work; the raw CPU and wall times are
    reported beside them.  The time budget itself is wall time.
    """
    from perfbench import calibrate, tracing
    from perfbench.workloads import PhaseClock, check_outputs

    tracer = tracing.Tracer() if trace else None
    targets = tracing.wrap_targets() if trace else None

    def traced(phase):
        if tracer is None or phase is None:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        stack.enter_context(tracer.installed(targets))
        stack.enter_context(tracer.span(phase))
        return stack

    attempted = failed = 0
    problems = []
    setup_cpu, setup_wall, setup_outputs = [], [], []
    setup_dir = os.path.join(workdir, "setup")
    cals = [calibrate.measure()]
    for _ in range(SETUP_REPS):
        # every set-up writes the same paths, so its files must come out equal
        shutil.rmtree(setup_dir, ignore_errors=True)
        os.makedirs(setup_dir)
        with traced(tracing.SETUP):
            cpu, wall = time.process_time(), time.perf_counter()
            state, out = workload.setup(seed, setup_dir)
            setup_cpu.append(time.process_time() - cpu)
            setup_wall.append(time.perf_counter() - wall)
        setup_outputs.append(out)
        attempted += workload.setup_ops
        cals.append(calibrate.measure())
    for i, out in enumerate(setup_outputs[1:], start=1):
        if out != setup_outputs[0]:
            failed += 1
            problems.append(f"set-up {i} outputs differ from set-up 0: {out}")

    clock = PhaseClock()
    # (cpu, wall) seconds of each completed job
    untraced_jobs, traced_jobs, first_outputs = [], [], None
    min_jobs = 2 if trace else 1
    jobs = 0
    begin = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced jobs, untraced first
        tracing_on = trace and len(untraced_jobs) > len(traced_jobs)
        attempted += workload.job_ops
        try:
            with traced(tracing.JOB if tracing_on else None):
                cpu, wall = time.process_time(), time.perf_counter()
                out = workload.job(state, PhaseClock() if tracing_on else clock)
                times = (time.process_time() - cpu, time.perf_counter() - wall)
        except Exception:  # a failed job is counted, the run goes on
            failed += workload.job_ops
            problems.append(traceback.format_exc())
            out = None
        cals.append(calibrate.measure())
        if out is not None:
            (traced_jobs if tracing_on else untraced_jobs).append(times)
            out = {**setup_outputs[-1], **out}
            if first_outputs is None:
                first_outputs = out
                mismatches = check_outputs(out, reference)
            else:
                mismatches = ([] if out == first_outputs
                              else ["outputs differ from the run's first job"])
            failed += len(mismatches)
            problems.extend(mismatches)
        # run at least min_jobs jobs, then stop before one that would overrun
        jobs += 1
        done = [w for _c, w in untraced_jobs + traced_jobs]
        estimate = median(done) if done else 0.0
        if jobs >= min_jobs and time.perf_counter() - begin + estimate > seconds:
            break
    if not untraced_jobs or (trace and not traced_jobs):
        raise RuntimeError("no job completed:\n" + "\n".join(problems))

    failed = min(failed, attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    run_cpu = median([c for c, _w in untraced_jobs])
    # CPU seconds at the reference machine's speed
    scale = calibrate.REFERENCE_S / statistics.mean(cals)
    extra = {"calibration_s": {"value": statistics.mean(cals), "unit": "s"},
             "run_cpu_s": {"value": run_cpu, "unit": "s"}}
    if trace:
        metrics = tracing.layer_metrics(tracer, len(traced_jobs))
        overhead = median([c for c, _w in traced_jobs]) - run_cpu
        metrics["tracing.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["tracing.overhead_pct"] = {
            "value": 100.0 * overhead / run_cpu, "unit": "%"}
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK, "traces", f"{workload.name}.npz"))
    else:
        start_cpu, start_wall = measure_startup()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_cpu = start_cpu + median(setup_cpu)
        metrics = {
            "setup_s": {"value": scale * setup_cpu, "unit": "s"},
            "run_s": {"value": scale * run_cpu, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        extra["setup_cpu_s"] = {"value": setup_cpu, "unit": "s"}
        extra["setup_wall_s"] = {"value": start_wall + median(setup_wall),
                                 "unit": "s"}
    result["metrics"] = metrics
    extra["run_wall_s"] = {"value": median([w for _c, w in untraced_jobs]),
                           "unit": "s"}
    for name, unit in workload.phases:
        value = median(clock.samples[name])
        # a rate goes up when the machine is slow, a time goes down
        value = value / scale if unit.endswith("/s") else value * scale
        extra[name] = {"value": value, "unit": unit}
    extra["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    extra["jobs"] = {"value": len(untraced_jobs) + len(traced_jobs),
                     "unit": "count"}
    return result, extra, problems, first_outputs


def run_all(args):
    """Every workload in its own process, each on its default seed."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload (corpus) seed; default: the workload's own")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="time spent repeating the job")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for a quick end-to-end check")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the seed's reference")
    args = parser.parse_args(argv)
    if args.smoke and args.record_reference:
        parser.error("--record-reference stores full-size outputs only")

    if not os.path.isfile(os.path.join(SRC, "hsg", "__init__.py")):
        print(f"error: no hsg sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # one BLAS thread: as fast as two here, and it keeps CPU time meaningful
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [SRC, ROOT]
    import hsg
    from perfbench import workloads
    if not os.path.abspath(hsg.__file__).startswith(SRC + os.sep):
        print(f"error: imported hsg from {hsg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    seed = workload.default_seed if args.seed is None else args.seed
    refs = workloads.load_reference()
    # smoke runs and recording runs are checked by ranges only
    reference = None if args.smoke or args.record_reference else (
        refs.get(workload.name, {}).get(str(seed)))

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        result, extra, problems, outputs = measure(
            workload, seed, args.seconds, bool(args.trace), workdir, reference)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_reference and result["correct"]:
        refs.setdefault(workload.name, {})[str(seed)] = outputs
        with open(workloads.REFERENCE_PATH, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)
    print(f"workload {workload.name} seed {seed} "
          f"({'reference values' if reference else 'range checks'}), "
          f"{extra['jobs']['value']} jobs, trace {args.trace}")
    for name, m in list(result["metrics"].items()) + list(extra.items()):
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"outputs": outputs}, sort_keys=True))
    print(json.dumps({"env": environment()}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
