"""alignsim benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload ff3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run; ``--workload all``
runs every workload both ways.  Each metric is printed by name with its
unit, and the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout this file sits in.
Measurement happens in ``worker.py`` child processes, one single-threaded
process per measurement, with BLAS pinned to one thread.  ``setup_s`` is
the median over several fresh processes.  The exit code is 0 whenever the
benchmark itself ran, whatever the ops' verdicts; it is 2, with no result
line, when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_STARTS = 5          # fresh processes whose set-up time is sampled
CHILD_TIMEOUT_S = 100     # on top of the measured seconds

END_TO_END = (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple(
    [(f"{layer}.{m}", unit) for layer in LAYERS
     for m, unit in (("calls_per_op", "count"), ("self_ms_per_op", "ms"),
                     ("self_share", "fraction"))]
    + [("linalg.svd_calls_per_op", "count"),
       ("linalg.svd_elems_per_op", "count"),
       ("channel.separated_uniform.self_ms_per_op", "ms"),
       ("decomposition.builds_per_solve", "ratio"),
       ("trace.overhead_frac", "fraction")])

SINGLE_THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ, **SINGLE_THREAD_ENV, PYTHONHASHSEED="0")
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _child(phase, workload, seed, seconds=0, trace=0):
    cmd = [sys.executable, str(WORKER), phase, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=seconds + CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{phase} of {workload} exited with "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{phase} of {workload} printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """One measurement of a workload: its result dict and metric units."""
    if trace:
        out = _child("measure", workload, seed, seconds, 1)
        return out, PER_LAYER
    starts = [_child("setup", workload, seed)
              for _ in range(SETUP_STARTS - 1)]
    out = _child("measure", workload, seed, seconds, 0)
    starts.append(out)
    out["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in starts)
    out["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in starts)
    out["setup_starts"] = len(starts)
    return out, END_TO_END


def report(workload, trace, out, units):
    mode = "traced" if trace else "untraced"
    ops, failed = out["attempted"], out["failed"]
    print(f"# {workload} ({mode}): {ops} ops in {out['passes']} passes, "
          f"failed {failed} (failed_frac {failed / ops:.6g}), "
          f"wrong answers {out['wrong']}, "
          f"traced/untraced verdicts equal: {out['verdicts_equal']}")
    for name, unit in units:
        note = ""
        if name == "ops_per_s":
            note = f"  (raw {out['raw_ops_per_s']:.6g})"
        elif name.startswith("op_ms"):
            ops_per_pass = out["attempted"] // out["passes"]
            note = (f"  (over {ops_per_pass} ops, each averaged over"
                    f" {out['passes']} passes)")
        elif name == "setup_s":
            note = (f"  (median of {out['setup_starts']} starts,"
                    f" raw {out['raw_setup_s']:.6g})")
        print(f"{workload:<17} {name:<42} {out['metrics'][name]:>14.6g} "
              f"{unit}{note}")
    if trace:
        print(f"# {out['spans']} spans written to {out['spans_file']}")


def result_line(results):
    """The closing JSON object; metric names are prefixed by workload
    only when several workloads ran."""
    prefix = len(results) > 1
    metrics = {}
    for workload, out, units in results:
        for name, unit in units:
            key = f"{workload}:{name}" if prefix else name
            metrics[key] = {"value": out["metrics"][name], "unit": unit}
    attempted = sum(out["attempted"] for _, out, _ in results)
    failed = sum(out["failed"] for _, out, _ in results)
    correct = all(out["wrong"] == 0 and out["verdicts_equal"]
                  for _, out, _ in results)
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description="alignsim benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "alignsim" / "__init__.py").is_file():
        sys.stderr.write(f"error: no alignsim sources under {ROOT / 'src'}\n")
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    results = []
    try:
        for workload, trace in plan:
            out, units = run_workload(workload, args.seed, args.seconds,
                                      trace)
            report(workload, trace, out, units)
            results.append((workload, out, units))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
