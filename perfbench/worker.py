"""One benchmark process: set up a workload, then optionally measure it.

    python3 perfbench/worker.py setup   --workload W --seed S
    python3 perfbench/worker.py measure --workload W --seed S --seconds T --trace 0|1

``run.py`` starts this in a fresh process with ``src`` on PYTHONPATH and
BLAS pinned to one thread; it prints one JSON line.  Set-up is everything
from the first statement of this file to the end of the warm-up ops:
importing alignsim, generating the op list and library inputs, and
running one op of each class.

``measure`` times ops one at a time and checks each result after its
timer stops.  An op fails when a check it reports is false, when its
total DoF differs from the closed form, when a decomposition residual
exceeds 1e-9*max|h|, or when it raises; failed ops are logged to stderr
and the run goes on.  An op returns a wrong answer when it fails only the
benchmark's own closed-form or residual check while the library
reported success.

Times are reported in probe-normalized seconds.  The machine's speed
drifts by up to 2x, for up to minutes, when it is shared, which no run
length averages away, so a fixed reference computation (``probe``: the
numpy calls of a numeric-rank test on a 13x10 matrix plus a little pure
Python, the same mix of interpreter and LAPACK work the ops do) is timed
after every 0.2 s of op time.  Each op's time is divided by the slowness
around it, the mean of the probe times before and after it over
``PROBE_NOMINAL_S``; the values are thus seconds on a machine where the
probe takes 10 ms.  Raw times are reported beside them.  The probe does
not touch alignsim, so a change to the library moves the normalized times
as it moves the raw ones.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import alignsim  # noqa: E402
import alignsim.decomposition  # noqa: E402
import alignsim.harness  # noqa: E402
import alignsim.shared  # noqa: E402
from tracing import LAYERS, Tracer, profile  # noqa: E402
from workloads import WORKLOADS, Decomposition, build_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESIDUAL_REL_TOL = 1e-9
PROBE_ROUNDS = 200
PROBE_NOMINAL_S = 0.010
PROBE_EVERY_S = 0.2       # of op time between probes
_PROBE_MATRIX = np.random.default_rng(0).uniform(0.5, 2.0, size=(13, 7))
DEMOS = {"pair": alignsim.shared.pair_demo_patterns,
         "dense": alignsim.shared.dense_demo_patterns}


def _check_library_location():
    src = (ROOT / "src").resolve()
    if src not in Path(alignsim.__file__).resolve().parents:
        raise SystemExit(f"error: alignsim imported from {alignsim.__file__},"
                         f" not from {src}")


def probe():
    """Seconds a fixed reference computation takes right now."""
    a = _PROBE_MATRIX
    start = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        m = np.hstack([a, a[:, :3] * (1.0 + i)])
        np.all(np.isfinite(m))
        norms = np.linalg.norm(m, axis=0)
        s = np.linalg.svd(m / np.where(norms > 0, norms, 1.0),
                          compute_uv=False)
        int(np.sum(s > 1e-8 * s[0]))
        tuple(sorted(set(range(i % 7, 20))))
    return time.perf_counter() - start


def materialize(spec):
    """A zero-argument call performing the op through the public API.

    Entry points are looked up on their module at call time, so a traced
    run reaches the rebound wrappers.
    """
    if isinstance(spec, Decomposition):
        h = np.asarray(spec.values)
        true_values = h if spec.kind == "indexed" else None
        return lambda: alignsim.decomposition.build_and_decompose(
            h, spec.kind, spec.support, spec.n, spec.seed,
            true_values=true_values)
    if isinstance(spec.network, str):
        patterns, n = DEMOS[spec.network]()
        config = alignsim.shared.demo_network_config(patterns, n)
    else:
        config = alignsim.NetworkConfig(**spec.network)
    scenario = alignsim.Scenario(regime=spec.regime, config=config,
                                 params=dict(spec.params), trials=1,
                                 base_seed=spec.seed)
    return lambda: alignsim.harness.run_trials(scenario)


def check(spec, result):
    """(names of failed checks, wrong answer) for one op's result."""
    if isinstance(spec, Decomposition):
        fam, betas = result
        h = np.asarray(spec.values)
        recon = alignsim.decomposition.reconstruct(betas, fam)
        if np.max(np.abs(recon - h)) > RESIDUAL_REL_TOL * np.max(np.abs(h)):
            return ("residual",), True
        return (), False
    trial = result.results[0]
    failed = tuple(sorted(k for k, ok in trial.checks.items() if not ok))
    if trial.total_dof != spec.expected_dof:
        return failed + ("total_dof",), not failed
    return failed, False


@dataclass
class Phase:
    durations: list = field(default_factory=list)    # raw seconds, per op
    slowness: list = field(default_factory=list)     # around the op, per op
    verdicts: list = field(default_factory=list)     # first pass, per op
    completed: int = 0
    failed: int = 0
    wrong: int = 0
    passes: int = 0

    @property
    def attempted(self):
        return len(self.durations)

    @property
    def times(self):
        """Probe-normalized seconds, per op."""
        return [d / s for d, s in zip(self.durations, self.slowness)]

    @property
    def ops_per_s(self):
        return self.completed / sum(self.times)

    @property
    def raw_ops_per_s(self):
        return self.completed / sum(self.durations)


def _log_failure(workload, index, spec, failures, error):
    what = (f"raised {type(error).__name__}: {error}" if error is not None
            else "checks " + ",".join(failures))
    sys.stderr.write(f"failed op: workload={workload} op={index} "
                     f"class={spec.label!r} seed={spec.seed} {what}\n")
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)


def run_phase(workload, specs, calls, seconds, tracer=None, log=True):
    """Run whole passes over the op list until ``seconds`` have elapsed.

    Stopping only at pass boundaries keeps the failed fraction a
    property of the op list, identical on every run with the same seed.
    """
    phase = Phase()
    start = time.perf_counter()
    before, since_probe = probe(), 0.0
    while phase.passes == 0 or time.perf_counter() - start < seconds:
        for index, (spec, call) in enumerate(zip(specs, calls)):
            if tracer is not None:
                tracer.begin_op(phase.attempted)
            t = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, exc
            elapsed = time.perf_counter() - t
            if tracer is not None:
                tracer.end_op()
            phase.durations.append(elapsed)
            since_probe += elapsed
            if error is None:
                phase.completed += 1
                failures, wrong = check(spec, result)
            else:
                failures, wrong = (f"raised {type(error).__name__}",), False
            phase.failed += bool(failures)
            phase.wrong += wrong
            if phase.passes == 0:
                phase.verdicts.append(failures)
                if failures and log:
                    _log_failure(workload, index, spec, failures, error)
            if since_probe >= PROBE_EVERY_S or index == len(specs) - 1:
                after = probe()
                unscaled = phase.attempted - len(phase.slowness)
                phase.slowness.extend(
                    [(before + after) / 2 / PROBE_NOMINAL_S] * unscaled)
                before, since_probe = after, 0.0
        phase.passes += 1
    return phase


def setup(workload, seed):
    """Import (already done at module load), inputs and warm-up ops."""
    warnings.simplefilter("ignore")   # power families above degree 12 warn
    _check_library_location()
    specs = build_ops(workload, seed)
    calls = [materialize(spec) for spec in specs]
    warm = {}
    for spec, call in zip(specs, calls):
        warm.setdefault(spec.label, call)
    for call in warm.values():
        try:
            call()
        except Exception:  # failures are counted in the timed phase
            pass
    raw_s = time.perf_counter() - _T0
    slowness = statistics.median(probe() for _ in range(3)) / PROBE_NOMINAL_S
    return specs, calls, {"setup_s": raw_s / slowness, "raw_setup_s": raw_s}


def latency_metrics(phase):
    """Throughput, and p50 and p90 over the op list of each op's latency.

    An op's latency is its mean over the run's passes.  Percentiles of
    single executions moved with how noisy the machine was during the
    run: per-execution noise widens the distribution and shifts its
    percentiles, and averaging each op over its repeats takes it out.
    """
    ms = (np.reshape(phase.times, (phase.passes, -1)).mean(axis=0)
          * 1e3).tolist()
    return {"ops_per_s": phase.ops_per_s,
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": statistics.quantiles(ms, n=10,
                                              method="inclusive")[8]}


def layer_metrics(spans, tracer, phase, untraced):
    ops = phase.attempted
    total_ns = sum(phase.times) * 1e9
    weights = [1 / s for s in phase.slowness]
    calls, layer_ns, function_ns, spans_by_name = profile(spans, weights)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
        out[f"{layer}.self_ms_per_op"] = layer_ns[layer] / 1e6 / ops
        out[f"{layer}.self_share"] = layer_ns[layer] / total_ns
    out["linalg.svd_calls_per_op"] = tracer.svd_calls / ops
    out["linalg.svd_elems_per_op"] = tracer.svd_elems / ops
    out["channel.separated_uniform.self_ms_per_op"] = (
        function_ns["channel.separated_uniform"] / 1e6 / ops)
    solves = spans_by_name["decomposition.build_and_decompose"]
    out["decomposition.builds_per_solve"] = (
        spans_by_name["decomposition.build_basis"] / solves if solves else 0.0)
    out["trace.overhead_frac"] = 1.0 - phase.ops_per_s / untraced.ops_per_s
    return out


def write_spans(spans, workload):
    """Write the traced phase's spans as CSV under .bench_out/."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,parent,op,name,start_ns,end_ns\n")
        for index, (name, start, end, parent, op) in enumerate(spans):
            fh.write(f"{index},{parent},{op},{name},{start},{end}\n")
    return path


def measure(workload, specs, calls, seconds, trace):
    if not trace:
        phase = run_phase(workload, specs, calls, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"metrics": {**latency_metrics(phase), "peak_rss_mb": rss_mb},
                "raw_ops_per_s": phase.raw_ops_per_s,
                "attempted": phase.attempted, "failed": phase.failed,
                "wrong": phase.wrong, "passes": phase.passes,
                "verdicts_equal": True}
    untraced = run_phase(workload, specs, calls, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(workload, specs, calls, seconds / 2, tracer,
                           log=False)
    finally:
        tracer.restore()
    spans = tracer.spans
    spans_path = write_spans(spans, workload)
    equal = untraced.verdicts == traced.verdicts
    if not equal:
        sys.stderr.write("error: traced and untraced verdicts differ\n")
    return {"metrics": layer_metrics(spans, tracer, traced, untraced),
            "attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed,
            "wrong": untraced.wrong + traced.wrong,
            "passes": untraced.passes + traced.passes,
            "spans": len(spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "verdicts_equal": equal}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    specs, calls, out = setup(args.workload, args.seed)
    if args.phase == "measure":
        out.update(measure(args.workload, specs, calls, args.seconds,
                           args.trace))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
