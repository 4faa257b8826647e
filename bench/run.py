"""homfrag benchmark: three workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload population --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

Run from anywhere; the package is imported from src/ next to this directory
(nothing needs to be installed or built).  The last line of standard output
is the result, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The full report (run metadata, gates, output digests, every op)
goes to bench/out/report-<workload>-seed<seed>-trace<t>.json and the spans of
a traced run to bench/out/spans-<workload>-seed<seed>.csv.gz.

--trace 0 repeats whole cycles of ops until --seconds have passed.
--trace 1 runs a fixed number of cycles (proportional to --seconds), each op
once untraced and then once traced, so its counts repeat exactly for a
seed, then the fixed-size layer probes.  --smoke runs every workload at a tiny size, both
ways, and checks that every metric of BENCHMARK.json is reported with its
unit and direction.
"""

import argparse
import json
import math
import os
from pathlib import Path
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from cli_workload import CliWorkload
import cli_workload
from core import TARGET_RSE, rerun, run_cycles, run_paired
import meta
from population import Population
import population
import probes
from reference import Reference
from spans import Tracer
from speed import Calibration
from tagged_line import TaggedLine
import tagged_line

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("population", "tagged_line", "cli")
# Replicas per population op, paths per tagged_line op, scale of the cli
# replica counts.
SIZES = {"population": 25, "tagged_line": 250, "cli": 1.0}
SMOKE_SIZES = {"population": 25, "tagged_line": 200, "cli": 0.1}
# Cycles a traced run replays per second of --seconds, chosen so that a
# traced run takes about --seconds on a 2-core x86 VM.
TRACE_CYCLES_PER_S = {"population": 13.0, "tagged_line": 7.5, "cli": 1.4}
PASSES = 5              # runs of each untraced op; its time is the fastest
SETUP_PROBES = 2        # fresh-process set-ups timed before each pass
THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = [
    ("replicas_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("time_to_accuracy_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
]
PER_LAYER = (
    [("ranked.simulate.calls", "count", "lower"),
     ("ranked.simulate.busy_s", "s", "lower"),
     ("ranked.fragments", "count", "lower"),
     ("ranked.events", "count", "lower"),
     ("ranked.fragments_per_s", "1/s", "higher"),
     ("ranked.barrier.fragments_per_s", "1/s", "higher"),
     ("ranked.frozen_share", "frac", "lower"),
     ("martingales.estimator.busy_s", "s", "lower"),
     ("ldp.window_count.busy_s", "s", "lower"),
     ("population.self_s", "s", "lower"),
     ("partitions.subordinator.paths_per_s", "1/s", "higher"),
     ("partitions.subordinator.jumps", "count", "lower"),
     ("tilting.spine.paths_per_s", "1/s", "higher"),
     ("tilting.spine.jumps", "count", "lower"),
     ("tilting.event_log.events_per_s", "1/s", "higher"),
     ("tilting.thin.events_per_s", "1/s", "higher"),
     ("tilting.spine.ess_ratio", "frac", "higher"),
     ("tilting.thin.kept_share", "frac", "higher")]
    + [(f"measures.sample_masses.per_s.{m}", "1/s", "higher")
       for m in ("uniform_binary", "power_tail_binary", "atomic")]
    + [("measures.sample.per_s", "1/s", "higher"),
       ("streams.uniform.per_s", "1/s", "higher"),
       ("streams.exponential.per_s", "1/s", "higher"),
       ("streams.uniforms.per_s", "1/s", "higher")]
    + [(f"analytics.{what}.{mode}", unit, better)
       for what, unit, better in (("init_s", "s", "lower"),
                                  ("p_bar_s", "s", "lower"),
                                  ("phi_per_s", "1/s", "higher"))
       for mode in ("closed_form", "quadrature", "monte_carlo")]
    + [("partitions.simulate_partition.events_per_s", "1/s", "higher"),
       ("cli.parse_s", "s", "lower"),
       ("cli.run_s", "s", "lower"),
       ("cli.write_s", "s", "lower"),
       ("cli.self_s", "s", "lower"),
       ("cli.rows_out", "count", "lower"),
       ("cli.bytes_out", "bytes", "lower")]
    + [(f"cli.{sub}.p50_ms", "ms", "lower") for sub in cli_workload.SUBCOMMANDS]
    + [("tracing.overhead_frac", "frac", "lower")]
)


def load_homfrag():
    """Import homfrag from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import homfrag
    import homfrag.cli  # noqa: F401  (the cli workload's entry point)
    if not Path(homfrag.__file__).resolve().is_relative_to(src):
        raise ImportError(f"homfrag imported from {homfrag.__file__}, not {src}")
    return homfrag


def make_workload(H, name, seed, work_dir, size):
    ref = Reference(H, seed)
    if name == "population":
        return Population(H, ref, size)
    if name == "tagged_line":
        return TaggedLine(H, ref, size)
    return CliWorkload(H, ref, work_dir, seed, THREADS, size)


def time_setup(name, seed, repeats):
    """Times, in fresh processes, from start to ready for the first op."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", name,
             "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        times.append(elapsed)
    return times


def setup_probe(name, seed):
    H = load_homfrag()
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        make_workload(H, name, seed, work, SIZES[name])
        print("ready", flush=True)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, records, setup_s, scale):
    """End-to-end metrics of an untraced run, times multiplied by `scale`.

    Throughput, time to accuracy and op_p50_ms use each op kind's median
    op time, so that a few ops slowed by the machine in every run do not
    move them.  op_p50_ms is the median of those medians: pooled over all
    ops, with an even number of kinds the median falls in the gap between
    two kinds' times and jumps between their edges from run to run.  The
    90th percentile is pooled; it falls inside the slowest kind's times.
    """
    seconds = [r.seconds * scale for r in records]
    ok = [r for r in records if r.ok]
    median_s, count, replicas = {}, {}, 0.0
    for kind in wl.kinds:
        ops = [r for r in records if r.kind == kind.name]
        median_s[kind.name] = scale * statistics.median(r.seconds for r in ops)
        count[kind.name] = len(ops)
        replicas += statistics.fmean(r.outcome.replicas if r.ok else 0
                                     for r in ops)
    kinds, mean, se = wl.headline(records)
    headline_s = sum(count[k] * median_s[k] for k in kinds)
    return {
        "replicas_per_s": replicas / sum(median_s.values()),
        "op_p50_ms": 1e3 * statistics.median(median_s.values()),
        "op_p90_ms": 1e3 * percentile(seconds, 90),
        "time_to_accuracy_s": headline_s * (se / abs(mean) / TARGET_RSE) ** 2,
        "setup_s": scale * setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_frac": len(ok) / len(records),
    }


def per_layer(H, wl, records, traced, tracer):
    out = {}
    out.update(population.layer_metrics(tracer))
    out["population.self_s"] = (tracer.self_time("op")
                                if wl.name == "population" else 0.0)
    out.update(tagged_line.layer_metrics(tracer))
    out.update(cli_workload.layer_metrics(tracer, records))
    out.update(probes.stream_and_measure_probes(H, wl.ref))
    out.update(probes.analytics_probes(H, wl.ref))
    untraced = sum(r.seconds for r in records)
    out["tracing.overhead_frac"] = sum(r.seconds for r in traced) / untraced - 1.0
    return out


def run_workload(H, name, seed, seconds, trace, sizes, setup_probes):
    """One benchmark run; returns (result line, full report).

    Untraced, the op list of the first pass (seconds / PASSES of whole
    cycles) is run PASSES times, with `setup_probes` fresh-process set-ups
    timed before each pass, so that both are sampled across the whole run,
    and the calibration loop timed before every cycle (see speed.py).
    """
    OUT.mkdir(exist_ok=True)
    report = {"meta": meta.collect(ROOT, name, seed), "seconds": seconds,
              "trace": trace, "size": sizes[name], "threads": THREADS}
    setup_times = []
    t0 = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        wl = make_workload(H, name, seed, work, sizes[name])
        if trace:
            cycles = max(1, round(seconds * TRACE_CYCLES_PER_S[name]))
            tracer = Tracer()
            records, traced = run_paired(wl, seed, cycles, tracer)
        else:
            cal = Calibration()
            for k in range(PASSES):
                setup_times += time_setup(name, seed, setup_probes)
                cal.new_pass()
                if k == 0:
                    records = run_cycles(wl, seed, seconds / PASSES, cal.sample)
                else:
                    rerun(wl, records, cal.sample)
        wall = perf_counter() - t0
        gates = wl.gates(records)
        if trace:
            metrics = per_layer(H, wl, records, traced, tracer)
            spans_path = OUT / f"spans-{name}-seed{seed}.csv.gz"
            tracer.write(spans_path)
            mismatched = [a.index for a, b in zip(records, traced)
                          if a.ok and b.ok and a.outcome.digest != b.outcome.digest]
            report.update(spans=str(spans_path.relative_to(ROOT)),
                          replay_digest_mismatches=mismatched)
            if mismatched:
                print(f"warning: traced replay differs from the untraced op at "
                      f"ops {mismatched[:10]}", file=sys.stderr)
            all_records = records + traced
        else:
            setup_s = statistics.median(setup_times)
            metrics = end_to_end(wl, records, setup_s, cal.scale())
            report.update(
                speed_scale=cal.scale(), loop_s=cal.loop_s(),
                unscaled_metrics=end_to_end(wl, records, setup_s, 1.0))
            all_records = records
    units = dict((n, u) for n, u, _ in (PER_LAYER if trace else END_TO_END))
    bad = [n for n, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics {bad}")
    failed = [r for r in all_records if not r.ok]
    correct = all(g.ok for g in gates)
    report.update(
        wall_s=wall, setup_times_s=setup_times, correct=correct,
        gates=[{"name": g.name, "ok": g.ok, **g.detail} for g in gates],
        digests=first_digests(records),
        failed_ops=[{"index": r.index, "kind": r.kind, "error": r.error,
                     "problem": r.outcome.problem if r.outcome else ""}
                    for r in failed],
        ops=[{"index": r.index, "kind": r.kind, "seed": r.seed,
              "seconds": r.seconds, "ok": r.ok,
              "digest": r.outcome.digest if r.outcome else None}
             for r in records],
        metrics=metrics)
    result = {"correct": correct, "attempted": len(all_records),
              "failed": len(failed),
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    return result, report


def first_digests(records):
    """Digest of the first op of each kind: the same ops on every run of a seed."""
    out = {}
    for r in records:
        if r.kind not in out and r.outcome is not None:
            out[r.kind] = r.outcome.digest
    return out


def smoke():
    """Tiny runs of every workload, untraced and traced; checks the metric set."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    H = load_homfrag()
    problems = []
    for table, key in ((END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        mine = {n: (u, b) for n, u, b in table}
        if listed != mine:
            problems.append(f"{key} in BENCHMARK.json differs from run.py: "
                            f"{sorted(set(listed.items()) ^ set(mine.items()))}")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, report = run_workload(H, name, 1, 0, trace, SMOKE_SIZES, 1)
            want = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics differ: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            errors = [f for f in report["failed_ops"] if f["error"]]
            if errors:
                problems.append(f"{name} trace={trace}: ops raised {errors[:3]}")
            print(f"smoke {name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
    for p in problems:
        print("problem:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.smoke:
            return smoke()
        H = load_homfrag()
    except (ImportError, OSError) as e:
        print(f"cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    result, report = run_workload(H, args.workload, args.seed, args.seconds,
                                  args.trace, SIZES, SETUP_PROBES)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"# report: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
