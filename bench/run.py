#!/usr/bin/env python3
"""Benchmark for garble: one workload per process, one client, closed loop.

    python3 bench/run.py --workload {sweep_grid,attack_line,attack_air} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; garble is imported from its ``src/``.
Inputs come from the seed. Every op's outputs are checked between timed
ops. Untraced, a fixed reference kernel (``reference.py``) is timed before
and after each op, and the end-to-end times are reported in its units. The
report goes to standard output, its last line one JSON object; the full
result (and, traced, the spans) go to ``bench/out/``. The exit code is 1
when an output check fails. See README.md in this directory.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one compute thread, fixed before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
# Every run times at least FIXED_OPS ops, so that p90 has ten samples above
# it. The digest and the exact counts cover exactly the first FIXED_OPS ops.
FIXED_OPS = 100
MAX_MEASURE_S = 120.0  # a run ends well inside three minutes even on slow code
SETUP_PROBES = 2       # extra set-ups in fresh processes; setup_s is the median


def import_garble():
    """Import garble from this checkout's sources and nowhere else."""
    init = SRC / "garble" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no garble sources at {init}")
    sys.path.insert(0, str(SRC))
    import garble
    if Path(garble.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported garble from {garble.__file__}, not {init}")


def failing_layer(exc: BaseException) -> str:
    """The garble module of the innermost frame that raised, else 'bench'."""
    layer = "bench"
    garble_dir = str(SRC / "garble")
    for frame, _lineno in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if path.startswith(garble_dir):
            layer = Path(path).stem
    return layer


def environment(seed: int) -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "cpu_control": "none: the benchmark neither pins CPUs nor locks their "
                       "frequency; compare parent and change in one session, "
                       "alternating which runs first",
    }


def probe_setup(args) -> float:
    """One set-up in a fresh process: import to the end of the warm-up op."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def timed_op(workload, i, tracer, reference):
    """Prepare op ``i`` untimed, then time its run, traced when a tracer is
    given. When a reference kernel is given, it is timed right before and
    right after the op, and the two kernel times are returned with the op's."""
    op = workload.prepare(i)
    before = reference.time_ms() if reference else None
    with tracer.op(i) if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        result = workload.run(op)
        t1 = time.perf_counter()
    refs = (before, reference.time_ms()) if reference else None
    return op, result, (t1 - t0) * 1e3, refs


def attempt(workload, i, tracer, reference):
    """timed_op, with an exception returned instead of raised: an op that
    raises is counted as failed, and the run goes on."""
    try:
        return timed_op(workload, i, tracer, reference)
    except Exception as exc:
        return exc


def measure(workload, args, tracer, reference):
    """The closed loop. Returns the tallies the report is built from.

    Untraced, an op's cost is its time over the mean of the two reference
    kernel times around it. Traced, every op runs twice on the same input,
    once with the wrappers and once without, alternating which goes first;
    the pair gives the tracing overhead and must produce the same output bytes.
    """
    from workloads import CheckFailed

    exact_ops = min(FIXED_OPS, args.ops) if args.ops else FIXED_OPS
    t = {"op_ms": [], "traced_ms": [], "op_cost": [], "ref_ms": [], "attempted": 0,
         "failed": 0, "errors": {}, "candidates": 0, "op_s": 0.0, "exact_candidates": [],
         "exact_ops": exact_ops, "digest": hashlib.sha256(), "check_failure": None,
         "first_error": None}
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if args.ops:
            if i >= args.ops:
                break
        elif (i >= exact_ops and elapsed >= args.seconds) or elapsed >= MAX_MEASURE_S:
            break
        t["attempted"] += 1
        if tracer is None:
            runs = [attempt(workload, i, None, reference)]
        else:
            order = (tracer, None) if i % 2 == 0 else (None, tracer)
            runs = [attempt(workload, i, tr, None) for tr in order]
            if i % 2:
                runs.reverse()
        raised = [r for r in runs if isinstance(r, Exception)]
        if raised:
            t["failed"] += 1
            layer = failing_layer(raised[0])
            t["errors"][layer] = t["errors"].get(layer, 0) + 1
            if t["first_error"] is None:
                t["first_error"] = "".join(traceback.format_exception(raised[0]))
            if i < exact_ops:
                t["digest"].update(b"failed:%s;" % type(raised[0]).__name__.encode())
                t["exact_candidates"].append(0)
            i += 1
            continue
        (op, result, ms, refs), plain = runs[0], runs[-1]
        try:
            output, candidates = workload.check(op, result)
            if tracer is not None and workload.check(plain[0], plain[1])[0] != output:
                raise CheckFailed("tracing changed the output bytes")
        except Exception as exc:  # any exception while checking is a failed check
            t["check_failure"] = f"op {i}: {type(exc).__name__}: {exc}"
            break
        if tracer is None:
            t["op_ms"].append(ms)
            t["ref_ms"].extend(refs)
            t["op_cost"].append(ms / statistics.fmean(refs))
        else:
            t["traced_ms"].append(ms)
            t["op_ms"].append(plain[2])
        t["candidates"] += candidates
        t["op_s"] += ms / 1e3
        if i < exact_ops:
            t["digest"].update(output)
            t["exact_candidates"].append(candidates)
        i += 1
    t["measure_s"] = time.perf_counter() - start
    return t


def end_to_end(t, setup_samples, rss_kb) -> dict:
    cost = t["op_cost"] or [0.0]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_cost.p50": (float(np.percentile(cost, 50)), "ref"),
        "op_cost.p90": (float(np.percentile(cost, 90)), "ref"),
        "candidates_per_ref": (t["candidates"] / sum(cost) if sum(cost) else 0.0, "1/ref"),
        "candidates_per_op": (statistics.fmean(t["exact_candidates"])
                              if t["exact_candidates"] else 0.0, "count"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def wall_clock(t) -> dict:
    """The same timings in wall-clock units, for the report only: they
    carry the host's load, so no bound applies to them."""
    op_ms = t["op_ms"] or [0.0]
    return {
        "op_ms.p50": (float(np.percentile(op_ms, 50)), "ms"),
        "op_ms.p90": (float(np.percentile(op_ms, 90)), "ms"),
        "candidates_per_s": (t["candidates"] / t["op_s"] if t["op_s"] else 0.0, "1/s"),
        "ref_ms.p50": (statistics.median(t["ref_ms"]) if t["ref_ms"] else 0.0, "ms"),
    }


def report_lines(workload, args, env, t, metrics, setup_samples, n_samples) -> list[str]:
    lines = [f"garble benchmark: workload={workload.name} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             "env " + json.dumps(env, sort_keys=True)]
    attempted, failed = t["attempted"], t["failed"]
    lines.append(f"ops attempted={attempted} failed={failed} "
                 f"failed_frac={failed / attempted!r} measured_s={t['measure_s']:.3f}")
    if t["errors"]:
        lines.append("errors by layer " + json.dumps(t["errors"], sort_keys=True))
        lines.append("first error:\n" + t["first_error"].rstrip())
    if args.trace:
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:34s} {value!r} {unit}")
        lines.append(f"(times: median over {n_samples} traced ops of per-op self time; "
                     f"counts: mean over the traced ops among the first {t['exact_ops']})")
    else:
        aliases = workload.aliases
        lines.append("end to end (op costs in units of the reference kernel timed "
                     "around each op):")
        for name, (value, unit) in metrics.items():
            label = f"{name} ({aliases[name]})" if name in aliases else name
            if name == "setup_s":
                extra = f"median of {len(setup_samples)} set-ups: " + \
                    ", ".join(f"{s:.3f}" for s in setup_samples)
            elif name.startswith("op_cost"):
                extra = f"n={n_samples}"
            elif name == "candidates_per_op":
                extra = f"mean over the first {len(t['exact_candidates'])} ops"
            else:
                extra = ""
            lines.append(f"{label:48s} {value!r} {unit}  {extra}".rstrip())
        lines.append("wall clock (carries the host's load; no bound applies):")
        for name, (value, unit) in wall_clock(t).items():
            label = f"{name} ({aliases[name]})" if name in aliases else name
            extra = f"n={len(t['ref_ms'])}" if name.startswith("ref_ms") else \
                f"n={n_samples}" if name.startswith("op_ms") else ""
            lines.append(f"{label:48s} {value!r} {unit}  {extra}".rstrip())
    lines.append(f"digest sha256={t['digest'].hexdigest()} "
                 f"over the outputs of the first {t['exact_ops']} ops")
    if t["check_failure"]:
        lines.append(f"CHECK FAILED {t['check_failure']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_grid", "attack_line", "attack_air"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many ops instead of measuring "
                             "for --seconds (smoke tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)

    import_garble()
    import tracer as tracing
    import workloads
    from reference import Reference

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.run(workload.warmup_input())
    reference = Reference()
    reference.time_ms()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    t = measure(workload, args, tracer, reference)
    samples = t["traced_ms"] if args.trace else t["op_ms"]
    setup_samples = [setup_s]
    if args.trace:
        metrics = tracing.per_layer(tracer, t["exact_ops"], t["traced_ms"], t["op_ms"])
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_samples += [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(t, setup_samples, rss_kb)

    env = environment(args.seed)
    lines = report_lines(workload, args, env, t, metrics, setup_samples, len(samples))
    print("\n".join(lines))

    correct = t["check_failure"] is None
    result = {"correct": correct, "attempted": t["attempted"], "failed": t["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "env": env, "digest": t["digest"].hexdigest(),
                   "digest_ops": t["exact_ops"], "report": lines,
                   "op_ms": t["op_ms"], "op_cost": t["op_cost"], "ref_ms": t["ref_ms"],
                   "traced_op_ms": t["traced_ms"]}, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl", _T0)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
