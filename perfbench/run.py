"""Benchmark of the vasicek-barrier engine.

    python3 perfbench/run.py --workload analytic|mc-single|mc-corridor
                             --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for S seconds (at least one round),
checks every output against the independent oracles, and prints one JSON
line last: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  See README.md in this directory for the definitions.
Exits non-zero, printing no result, if the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import engine

engine.limit_threads()

SETUP_PROBES = 3


def _setup_seconds() -> list:
    """Spawn-to-exit wall time of `setup_probe.py`, SETUP_PROBES times."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(engine.HERE / "setup_probe.py")], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def _end_to_end(rounds, setup) -> dict:
    def rate(r):
        steps = sum(m[1] for m in r.mc)
        return steps / sum(m[0] for m in r.mc) / 1e6

    def time_to_se(r):
        return sum(wall * (se / 1e-3) ** 2 for wall, _, se, option in r.mc if option)

    def latency(field):
        # median per spot, averaged over the spots: the grid mixes knocked-out
        # spots (0.1 ms) with live ones, and a median pooled over all spots
        # falls into a gap between groups of spots and jumps from run to run
        by_spot = {}
        for r in rounds:
            for spot, ms in getattr(r, field):
                by_spot.setdefault(spot, []).append(ms)
        return statistics.fmean(statistics.median(v) for v in by_spot.values())

    med = statistics.median
    values = {
        "setup_s": (med(setup), "s"),
        "prices_per_s": (med(r.prices / r.wall for r in rounds), "1/s"),
        "price_single_ms": (latency("single_ms"), "ms"),
        "price_double_ms": (latency("double_ms"), "ms"),
        "path_steps_per_s": (med(rate(r) for r in rounds), "M/s"),
        "time_to_se_1e-3_s": (med(time_to_se(r) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup = [] if args.trace else _setup_seconds()
    vb = engine.load()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](vb, args.seed)
    engine.OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # warm-up outside the measurement: first calls into each pricer and the CLI parser
    state = vb.MarketState(spot=110.0, rate=work.params.r0)
    vb.price_single_barrier(state, work.single, work.params)
    vb.price_double_barrier(state, work.double, work.params)

    rounds, traced, overhead, identical = [], [], [], 0
    tracer = Tracer(vb)
    start = time.perf_counter()
    index = 0
    while not rounds or time.perf_counter() - start < args.seconds:
        plain = work.run_round(index)
        rounds.append(plain)
        if args.trace:
            with tracer.installed():
                shadow = work.run_round(index)
            traced.append(shadow)
            overhead.append(shadow.wall / plain.wall - 1.0)
            identical += shadow.outputs == plain.outputs
        index += 1

    attempted = sum(r.attempted for r in rounds + traced) + len(traced)
    failed = sum(r.failed for r in rounds + traced) + len(traced) - identical
    if len(traced) != identical:
        print(f"traced outputs differ from untraced in {len(traced) - identical} round(s)",
              file=sys.stderr)
    if args.trace:
        tracer.write(engine.OUT / f"trace-{stem}.json.gz")
        if tracer.missing:
            print(f"helpers missing, their metrics left out: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        metrics = tracer.per_layer(len(traced))
        metrics["trace.overhead_pct"] = {"value": 100.0 * statistics.median(overhead),
                                         "unit": "%"}
    else:
        metrics = _end_to_end(rounds, setup)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"result": result, "rounds": len(rounds), "setup_s": setup,
              "failures": sorted({f for r in rounds + traced for f in r.failures})}
    (engine.OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
