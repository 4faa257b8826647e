"""cli: homfrag.cli.main called in-process, one fixed invocation per subcommand.

This is the only workload that measures argument parsing and output
rendering, simulate_partition with the per-event relabelling loop of the
partition subcommand, quadrature and monte_carlo phi, and thread fan-out
(--threads on simulate and martingale).  It pairs a write (subordinator
--event-log) with a read of that file (thin).  Its compute kernels are small,
so changes to the output path show here and not in the other workloads.

Every op's output must pass the validator: exit code 0, strict JSON header
and JSONL lines (NaN and Infinity rejected), every CSV cell parses with
float(), and the expected row count.  An op that does not pass counts as
failed; the run goes on.
"""

from contextlib import contextmanager, redirect_stderr
import io
import json
import math
import os
import statistics
import warnings

from core import (Gate, OpKind, Outcome, by_kind, pooled, ratio, sha256,
                  z_gate)

MODELS = {
    "uniform_binary": {"kind": "uniform_binary"},
    "power_tail_binary": {"kind": "truncated", "family": "power_tail_binary",
                          "epsilon": 0.01},
}
PHI_ARGS = ["--q-min", "0", "--q-max", "3", "--points", "7"]
PHI_POINTS = 7
SNAPSHOTS = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
PARTITION_N = 500
MARTINGALE_T = [1.0, 2.0]
LDP_T = [2.0, 4.0]

# (op name, subcommand, model, replicas, fans out over threads, arguments).
# Replica counts are for the full-size run; phi runs once per op.
OPS = [
    ("phi_quadrature", "phi", "power_tail_binary", None, False,
     PHI_ARGS + ["--mode", "quadrature"]),
    ("phi_monte_carlo", "phi", "power_tail_binary", None, False,
     PHI_ARGS + ["--mode", "monte_carlo"]),
    ("partition", "partition", "uniform_binary", 1, False,
     ["--n", str(PARTITION_N), "--t-end", "8"]),
    ("simulate", "simulate", "uniform_binary", 8, True,
     ["--t-end", "6", "--eps-freeze", "1e-3",
      "--snapshots", ",".join(map(str, SNAPSHOTS))]),
    ("event_log", "subordinator", "uniform_binary", 200, False,
     ["--t-end", "4", "--event-log"]),
    ("thin", "thin", "uniform_binary", None, False, ["--p", "1"]),
    ("martingale", "martingale", "uniform_binary", 100, True,
     ["--kind", "additive", "--p", "0.5", "--eps-freeze", "1e-7",
      "--t-grid", ",".join(map(str, MARTINGALE_T))]),
    ("spine", "spine", "uniform_binary", 200, False,
     ["--p", "-0.5", "--t-end", "4"]),
    ("ldp_ratio", "ldp", "uniform_binary", 50, False,
     ["--estimator", "ratio", "--p", "2.0", "--alpha", "-0.2", "--beta", "0.2",
      "--eps-freeze", "1e-8", "--n-boot", "200",
      "--t-grid", ",".join(map(str, LDP_T))]),
]

# Library calls the cli module makes; the traced run wraps them in spans so
# that cli.self_s is what the cli module itself spends.
LIBRARY_CALLS = ("detect_geometric", "presence_summary", "ratio_trace",
                 "mc_mean", "simulate_partition", "simulate_subordinator",
                 "simulate", "simulate_event_log", "simulate_spine",
                 "thin_fiber", "tilted_split_rate", "model_from_json",
                 "model_to_json")


class CliWorkload:
    name = "cli"

    def __init__(self, H, ref, work_dir, seed, threads, scale):
        self.H = H
        self.ref = ref
        self.seed = seed
        self.threads = threads
        self.dir = work_dir
        self.models = {}
        for name, obj in MODELS.items():
            path = os.path.join(work_dir, name + ".json")
            with open(path, "w") as fh:
                json.dump(obj, fh)
            self.models[name] = path
        self.replicas = {}
        self._exact = {}
        self.kinds = [self._kind(spec, scale) for spec in OPS]

    def _kind(self, spec, scale):
        name, sub, model, replicas, fans_out, args = spec
        out = os.path.join(self.dir, name + ".out")
        if replicas is not None:
            replicas = max(1, round(replicas * scale))
        self.replicas[name] = replicas or 1

        def argv(seed):
            # phi is deterministic given its seed: it runs at the workload
            # seed, so its output can be compared with the set-up evaluator.
            head = ["--model", self.models[model], "--out", out,
                    "--seed", str(self.seed if sub == "phi" else seed)]
            if replicas is not None:
                head += ["--replicas", str(replicas)]
            if fans_out:
                head += ["--threads", str(self.threads)]
            tail = args
            if sub == "thin":
                tail = args + ["--input", os.path.join(self.dir, "event_log.out")]
            return head + [sub] + tail

        def run(seed):
            if os.path.exists(out):
                os.remove(out)
            err = io.StringIO()
            with redirect_stderr(err):
                code = self.H.cli.main(argv(seed))
            return lambda: self._outcome(name, out, code, err.getvalue())

        def replay(seed, tr):
            cli = self.H.cli
            with traced_library(cli, tr):
                with tr.span("cli.parse"):
                    cfg = cli.parse_config(argv(seed))
                with warnings.catch_warnings(record=True):
                    warnings.simplefilter("always")
                    with tr.span("cli.run"):
                        text = cli.run(cfg)
                with tr.span("cli.write"):
                    with open(cfg.out, "w", newline="") as fh:
                        fh.write(text)
            header_lines = 2 if text.startswith("# ") else 1
            tr.add("cli.rows_out", text.count("\n") - header_lines)
            tr.add("cli.bytes_out", len(text.encode()))
            return lambda: self._outcome(name, out, 0, "")

        return OpKind(name, run, replay)

    # --- output validation -------------------------------------------------

    def _outcome(self, name, path, code, stderr):
        replicas = self.replicas[name]
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as e:
            return Outcome(None, "", replicas, False, f"no output: {e}")
        problem = ""
        parsed = None
        if code != 0:
            problem = f"exit code {code}"
        elif "Traceback" in stderr:
            problem = "traceback on stderr"
        else:
            try:
                parsed = parse_output(data.decode())
                self._expect(name, *parsed)
            except ValueError as e:
                problem = str(e)
        return Outcome(_gated_part(name, parsed), sha256(data), replicas,
                       not problem, problem)

    def _expect(self, name, header, columns, rows):
        """Row count and shape each op's output must have."""
        expected = {
            "phi_quadrature": PHI_POINTS, "phi_monte_carlo": PHI_POINTS,
            "simulate": self.replicas["simulate"] * len(SNAPSHOTS),
            "martingale": len(MARTINGALE_T), "ldp_ratio": len(LDP_T),
        }.get(name)
        if name == "thin":
            with open(os.path.join(self.dir, "event_log.out")) as fh:
                expected = sum(1 for _ in fh) - 1
        if expected is not None and len(rows) != expected:
            raise ValueError(f"{len(rows)} rows, expected {expected}")
        if name == "partition":
            starts = header["replica_row_start"]
            if len(starts) != self.replicas[name] or starts != sorted(starts) \
                    or (starts and starts[-1] > len(rows)):
                raise ValueError(f"bad replica_row_start {starts[:5]}")
            for row in rows:
                if not is_canonical(row["block_of"], PARTITION_N):
                    raise ValueError("block_of is not a canonical partition")
        if name == "simulate":
            for row in rows:
                live = math.fsum(math.exp(x) for x in row["log_masses"])
                if abs(live + row["frozen_mass"] - 1.0) > 1e-9:
                    raise ValueError(f"mass not conserved at t={row['t']}")
        if name in ("event_log", "spine"):
            key = "replica" if name == "event_log" else 0
            reps = {row[key] for row in rows}
            if not reps <= set(range(self.replicas[name])):
                raise ValueError("replica index out of range")

    # --- gates --------------------------------------------------------------

    def gates(self, records):
        ref = self.ref
        out = []
        for name, ev in (("phi_quadrature", ref.ptail_quad),
                         ("phi_monte_carlo", ref.ptail_mc)):
            valid = [r for r in by_kind(records, name) if r.ok]
            if not valid:
                continue        # the op's failures are counted, not gated
            bad = [r.index for r in valid
                   if not phi_matches(r.outcome.value, ev, self._exact)]
            out.append(Gate(f"{name}_equals_exact_layer", not bad,
                            {"ops": len(valid), "mismatched_ops": bad[:5]}))
        for t in MARTINGALE_T:
            mean, se = self._martingale(records, t)
            out.append(z_gate(f"martingale_additive_t{t:g}_mean", mean, se, 1.0))
        kept, total = self._kept(records)
        f = 1.0 - ref.ub_eval.phi(1.0) / ref.ub.total_rate
        se = math.sqrt(f * (1.0 - f) / total) if total else math.nan
        out.append(z_gate("thin_kept_fraction", ratio(kept, total), se, f))
        return out

    def _martingale(self, records, t):
        runs = [r for r in by_kind(records, "martingale") if r.ok]
        row = MARTINGALE_T.index(t)
        return pooled([(r.outcome.value[row][1], r.outcome.value[row][2],
                        r.outcome.replicas) for r in runs])

    def _kept(self, records):
        """Events kept by thin and events read, over all valid thin ops."""
        counts = [r.outcome.value for r in by_kind(records, "thin") if r.ok]
        return sum(k for k, _ in counts), sum(n for _, n in counts)

    def headline(self, records):
        """The thinning kept fraction, written by subordinator --event-log and
        read by thin: op kinds, and the fraction with its standard error."""
        kept, total = self._kept(records)
        f = ratio(kept, total)
        se = math.sqrt(f * (1.0 - f) / total) if total else math.nan
        return ["event_log", "thin"], f, se


def _gated_part(name, parsed):
    """The part of an op's parsed output that the gates read (kept small:
    a run holds it for every op)."""
    if parsed is None:
        return None
    header, _, rows = parsed
    if name.startswith("phi_"):
        return parsed
    if name == "martingale":
        return rows
    if name == "thin":
        return sum(row["kept"] for row in rows), len(rows)
    return None


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def parse_output(text):
    """(header, columns, rows) of a CSV or JSONL output; raises ValueError."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines = lines[:-1]
    if not lines:
        raise ValueError("empty output")
    if lines[0].startswith("# "):
        header = strict_json(lines[0][2:])
        if len(lines) < 2:
            raise ValueError("CSV output has no column line")
        columns = lines[1].split(",")
        rows = []
        for line in lines[2:]:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"CSV row has {len(cells)} cells, "
                                 f"expected {len(columns)}")
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise ValueError(f"CSV cell does not parse as float: {line[:80]}")
        return header, columns, rows
    header = strict_json(lines[0])
    return header, None, [strict_json(line) for line in lines[1:]]


def is_canonical(labels, n):
    """True for a length-n label list numbered by first appearance."""
    if len(labels) != n:
        return False
    top = -1
    for lab in labels:
        if lab > top + 1:
            return False
        top = max(top, lab)
    return True


def phi_matches(parsed, ev, memo):
    """Every CSV row equals the evaluator's phi, phi' and phi'' exactly.

    memo caches the evaluator's rows by (evaluator, q): every phi op asks
    for the same grid, and quadrature is slow.
    """
    header, _, rows = parsed
    for q, phi, d1, d2 in rows:
        key = (id(ev), q)
        if key not in memo:
            d = ev.phi_derivs(q)
            memo[key] = (ev.phi(q), d.first, d.second)
        if (phi, d1, d2) != memo[key]:
            return False
    return header.get("p_bar") is None or header["p_bar"] == ev.p_bar()


@contextmanager
def traced_library(cli, tr):
    """Wrap the library calls of the cli module in spans, then restore them."""
    saved = {name: getattr(cli, name) for name in LIBRARY_CALLS}
    saved["PhiEvaluator"] = cli.PhiEvaluator
    try:
        for name in LIBRARY_CALLS:
            setattr(cli, name, _traced(saved[name], tr))
        cli.PhiEvaluator = _traced_evaluator(saved["PhiEvaluator"], tr)
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _traced(fn, tr):
    span = fn.__module__.rpartition(".")[2] + "." + fn.__name__

    def call(*args, **kwargs):
        with tr.span(span):
            out = fn(*args, **kwargs)
        if span == "partitions.simulate_partition":
            tr.add("partitions.simulate_partition.events", len(out.events))
        return out

    return call


def _traced_evaluator(base, tr):
    class TracedPhiEvaluator(base):
        def __init__(self, *args, **kwargs):
            with tr.span("analytics.PhiEvaluator"):
                super().__init__(*args, **kwargs)

        def phi(self, q):
            with tr.span("analytics.phi"):
                return super().phi(q)

        def phi_derivs(self, q):
            with tr.span("analytics.phi_derivs"):
                return super().phi_derivs(q)

        def p_bar(self, *args, **kwargs):
            with tr.span("analytics.p_bar"):
                return super().p_bar(*args, **kwargs)

    return TracedPhiEvaluator


def layer_metrics(tr, records):
    """Per-layer cli metrics; op durations come from the untraced records."""
    out = {
        "cli.parse_s": tr.busy("cli.parse"),
        "cli.run_s": tr.busy("cli.run"),
        "cli.write_s": tr.busy("cli.write"),
        "cli.self_s": tr.self_time("cli.run"),
        "cli.rows_out": tr.counts["cli.rows_out"],
        "cli.bytes_out": tr.counts["cli.bytes_out"],
        "partitions.simulate_partition.events_per_s": ratio(
            tr.counts["partitions.simulate_partition.events"],
            tr.busy("partitions.simulate_partition")),
    }
    for sub in SUBCOMMANDS:
        names = {spec[0] for spec in OPS if spec[1] == sub}
        times = [r.seconds for r in records if r.kind in names]
        out[f"cli.{sub}.p50_ms"] = 1e3 * statistics.median(times) if times else 0.0
    return out


SUBCOMMANDS = ("phi", "partition", "simulate", "subordinator", "thin",
               "martingale", "spine", "ldp")

