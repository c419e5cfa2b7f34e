"""curvealg benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload hh-crosscheck --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory.  Set-up (interpreter start, import, generation of the seeded
inputs) runs in fresh child processes and is timed there; then the parent
repeats whole rounds of the workload's operations until --seconds have
passed.  Every operation checks its answer.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1.  A fuller record goes to perfbench/results/.  The exit code is
1 when a check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120

WORKLOADS = ("hh-crosscheck", "gauge-normalize", "curve-basis")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("quiver.build_ew_s", "s"),
    ("hochschild.basis_s", "s"),
    ("hochschild.assemble_s", "s"),
    ("hochschild.oracle_assemble_s", "s"),
    ("hochschild.cochains", "count"),
    ("hochschild.delta_nnz", "count"),
    ("linalg.rank_s", "s"),
    ("linalg.rank_calls", "count"),
    ("linalg.rank_columns", "count"),
    ("linalg.solve_s", "s"),
    ("linalg.solve_calls", "count"),
    ("ainfinity.complement_data_s", "s"),
    ("ainfinity.gauge_act_s", "s"),
    ("ainfinity.gauge_act_self_s", "s"),
    ("ainfinity.gauge_compose_s", "s"),
    ("ainfinity.gauge_compose_self_s", "s"),
    ("ainfinity.gauge_inverse_s", "s"),
    ("ainfinity.gauge_inverse_self_s", "s"),
    ("ainfinity.normalize_s", "s"),
    ("ainfinity.normalize_self_s", "s"),
    ("poly.normal_form_s", "s"),
    ("poly.normal_form_calls", "count"),
    ("curves.rho_s", "s"),
    ("curves.verify_basis_s", "s"),
    ("curves.columns_per_monomial", "cols/monomial"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one round of tiny inputs (for the benchmark's own tests)")
    p.add_argument("--setup-only", action="store_true",
                   help="print the seeded inputs as JSON and exit (set-up child)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def use_package():
    if not os.path.isfile(os.path.join(SRC, "curvealg", "__init__.py")):
        raise FileNotFoundError("no curvealg package under %s" % SRC)
    sys.path.insert(0, SRC)


def setup_inputs(args):
    """Time SETUP_SAMPLES fresh set-up processes; return their times and
    their inputs, which must be identical."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    samples, outputs = [], set()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError("set-up failed:\n" + proc.stderr)
        outputs.add(proc.stdout)
    if len(outputs) != 1:
        raise RuntimeError("set-up gave different inputs for one seed")
    return samples, json.loads(outputs.pop())


def measure(inputs, seconds, quick, tracer):
    """Repeat whole rounds of the operations until `seconds` have passed
    (one round under --quick).  Returns per-round lists of operation times."""
    from workloads import run_op

    rounds, errors, failed, layers = [], [], 0, []
    start = time.perf_counter()
    while not rounds or (not quick and time.perf_counter() - start < seconds):
        before = tracer.snapshot() if tracer else None
        times = []
        for op in inputs:
            t0 = time.perf_counter()
            try:
                errors.extend(run_op(op))
            except Exception:  # an operation that raises counts as failed
                failed += 1
                traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - t0)
            gc.collect()
        rounds.append(times)
        if tracer:
            after = tracer.snapshot()
            layers.append({k: after[k] - before[k] for k in after})
    return rounds, errors, failed, layers


def per_layer(layers):
    """Per-layer metrics, each at its (low) median over the rounds; counts
    are the same in every round because every round runs the same
    operations."""
    out = {}
    for name, _ in PER_LAYER:
        if name == "curves.columns_per_monomial":
            values = [r["curves.rank_columns"] / r["curves.monomials"]
                      if r["curves.monomials"] else 0.0 for r in layers]
        else:
            values = [r[name] for r in layers]
        out[name] = statistics.median_low(values)
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        use_package()
        if args.setup_only:
            from workloads import make_inputs
            json.dump(make_inputs(args.workload, args.seed, args.quick), sys.stdout)
            return 0
        setup_samples, inputs = setup_inputs(args)
        from curvealg import linalg
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
    except (OSError, RuntimeError, subprocess.SubprocessError, ImportError) as exc:
        sys.stderr.write("benchmark cannot run: %s\n" % exc)
        return 2

    rounds, errors, failed, layers = measure(inputs, args.seconds, args.quick, tracer)
    if tracer:
        tracer.uninstall()

    # Each operation's time is its mean over the rounds.  The machine's speed
    # drifts over seconds to minutes, and the mean over a whole run followed
    # that drift less than the median or the minimum did.
    per_op = [statistics.fmean(times) for times in zip(*rounds)]
    e2e = {"setup_s": statistics.median(setup_samples),
           "wall_s": sum(per_op),
           "op_p50_s": statistics.median(per_op),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    shown = per_layer(layers) if tracer else e2e
    units = dict(PER_LAYER if tracer else END_TO_END)
    backend = type(linalg.ONE)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "backend": "%s.%s" % (backend.__module__, backend.__qualname__),
        "python": platform.python_version(), "cores": os.cpu_count(),
        "attempted": len(rounds) * len(inputs), "failed": failed, "rounds": len(rounds),
        "ops_per_round": len(inputs), "setup_samples_s": setup_samples,
        "op_times_s": rounds, "end_to_end": e2e,
        "per_layer": shown if tracer else None, "check_errors": errors[:20],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-quick" if args.quick else ""))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in errors:
        print("CHECK FAILED: " + msg)
    print("%s seed %d: %d rounds, %d operations, %d failed, backend %s, "
          "Python %s, %s cores" % (args.workload, args.seed, len(rounds),
                                   record["attempted"], failed, record["backend"],
                                   record["python"], record["cores"]))
    for name, value in shown.items():
        print("  %-32s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({"correct": not errors, "attempted": record["attempted"],
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in shown.items()}}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
