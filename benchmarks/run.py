"""Benchmark for cubiclct: four workloads, end-to-end metrics, and a traced run
with per-module metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload table --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``table``, ``audit``, ``dense_fm``, ``cli``.
Each runs in this one process, on one thread, as a closed loop with one
client: the next op starts only after the previous one has been checked.
Ops run in whole passes over the workload's fixed input set until
``--seconds`` have passed and at least 100 ops have run, so that 10 samples
lie beyond the 90th percentile.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates a
plain pass with a traced pass and prints the per-module metrics of one pass
(medians over the traced passes), plus the tracing overhead; the spans of the
last traced pass are written to ``.bench_build/``.  The last line of output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  cubiclct is imported from ``src/`` of the checkout; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import selftest
from tracing import Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, attempt, load_program

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

SETUP_REPS = 9
MIN_SAMPLES = 100
#: No op starts after this many seconds of measuring, so a run ends within
#: 180 s even when ops slow down badly.
LOOP_CAP_S = 110.0
ADVERSARIAL_TIMEOUT_S = 60.0


def metric_units(key: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def setup(workload, seed: int):
    """Import cubiclct and build the inputs, ``SETUP_REPS`` times over.

    Returns the program and inputs of the last round and the median round's
    seconds.  Each round re-imports the package from source.
    """
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        prog = load_program(SRC)
        items = workload.inputs(prog, seed)
        times.append(perf_counter() - t0)
    return prog, items, statistics.median(times)


def quantile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of sorted samples.

    A weighted mean of the order statistics near rank ``p * n``, with Beta
    weights.  On a shared machine single op times wander by 20% and more,
    and this estimate moves far less between runs than the one sample at
    rank ``p * n`` does.
    """
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t) - log_beta) \
            if 0 < t < 1 else 0.0

    # Simpson's rule for the Beta mass of each rank's interval [i/n, (i+1)/n].
    weights = [density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n)
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def run_pass(prog, workload, items, stop_at: float, samples: list, tally: Counter,
             tracer: Tracer | None = None) -> None:
    """One op per input, each timed from its start to its checked verdict."""
    for item in items:
        if perf_counter() >= stop_at:
            return
        if tracer is not None:
            tracer.start_op()
        t0 = perf_counter()
        outcome = attempt(lambda: workload.run(prog, item, tally),
                          workload.limit_s, workload.label(item))
        samples.append((perf_counter() - t0, outcome))
        tally["timeouts"] += outcome == "timeout"


def timed_run(prog, workload, items, seconds: int):
    samples: list = []
    t0 = perf_counter()
    while True:
        run_pass(prog, workload, items, t0 + LOOP_CAP_S, samples, Counter())
        elapsed = perf_counter() - t0
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and len(samples) >= MIN_SAMPLES):
            break
    # An op that failed or ran out of time counts as missing the limit.
    latencies = sorted(dt if outcome == "ok" else max(dt, workload.limit_s)
                       for dt, outcome in samples)
    decided = sum(outcome == "ok" for _, outcome in samples)
    metrics = {
        "verdict_s_p50": quantile(latencies, 0.5),
        "verdict_s_p90": quantile(latencies, 0.9),
        "ops_per_s": decided / elapsed,
        "decided_frac": decided / len(samples),
    }
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    notes = [f"{len(samples)} samples, {beyond} beyond p90; {elapsed:.1f} s measured; "
             f"{sum(o == 'timeout' for _, o in samples)} timed out "
             f"(limit {workload.limit_s:g} s)"]
    return samples, metrics, notes


def adversarial() -> dict:
    """The named adversarial system, alone in a child process."""
    proc = subprocess.run([sys.executable, str(BENCH / "adversarial.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=ADVERSARIAL_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"adversarial run exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def traced_run(prog, workload, items, seconds: int, seed: int):
    pairs, support_pairs = (workload.support_pairs(prog, items)
                            if workload.name == "audit" else (0, 0))
    tracer = Tracer(prog)
    samples: list = []
    plain_s, traced_s, per_pass = [], [], []
    t0 = perf_counter()
    stop_at = t0 + LOOP_CAP_S
    while True:
        start = perf_counter()
        run_pass(prog, workload, items, stop_at, samples, Counter())
        plain_s.append(perf_counter() - start)
        tally: Counter = Counter()
        tracer.install()
        try:
            start = perf_counter()
            run_pass(prog, workload, items, stop_at, samples, tally, tracer)
            traced_s.append(perf_counter() - start)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        per_pass.append(layer_metrics(spans, tally))
        if perf_counter() - t0 >= min(seconds, LOOP_CAP_S):
            break
    write_spans(OUT / f"spans-{workload.name}-seed{seed}.jsonl", spans)
    metrics = {k: statistics.median_low([m[k] for m in per_pass]) for k in per_pass[0]}
    metrics["engine.audit_support_pairs"] = support_pairs
    metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                      / statistics.median(plain_s) - 1)
    notes = [f"{len(traced_s)} traced and {len(plain_s)} plain passes; "
             "metrics are per pass over the input set"]
    if pairs:
        notes.append(f"{support_pairs} of {pairs} (row, leaf) pairs lie in a "
                     "certificate's support")
    adversarial_ok = True
    metrics["linsys.adversarial_s"] = metrics["linsys.adversarial_rss_mb"] = 0
    if workload.name == "dense_fm":
        adv = adversarial()
        metrics["linsys.adversarial_s"] = adv["seconds"]
        metrics["linsys.adversarial_rss_mb"] = adv["rss_mb"]
        adversarial_ok = adv["outcome"] != "failed"
        notes.append(f"adversarial system (seed 1234, draw 153): {adv['outcome']}")
    return samples, metrics, notes, adversarial_ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubiclct" / "__init__.py").is_file():
        print(f"error: no cubiclct sources under {SRC}", file=sys.stderr)
        return 2
    # Compile cubiclct from source on every import, so set-up time does not
    # depend on bytecode caches left in the checkout.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT / "no-pycache")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    prog, items, setup_s = setup(workload, args.seed)
    try:
        selftest.check_faults_caught(prog)
        selftest.check_seed_use(prog, workload, items, args.seed)
    except selftest.SelfTestFailed as exc:
        print(f"error: self-test failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {workload.name}, seed {args.seed}, {len(items)} inputs, "
          f"trace {args.trace}")
    if args.trace:
        samples, metrics, notes, extra_ok = traced_run(prog, workload, items,
                                                       args.seconds, args.seed)
        units = metric_units("per_layer")
    else:
        samples, metrics, notes = timed_run(prog, workload, items, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        extra_ok = True
        units = metric_units("end_to_end")
    failed = sum(outcome == "failed" for _, outcome in samples)
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac {failed / len(samples):.4f} ratio ({failed} of {len(samples)})")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and extra_ok,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
