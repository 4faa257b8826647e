"""Command-line interface.

Every run needs an explicit --seed (there is no wall-clock default) and a
model, given either inline in a JSON config file or via --model.  Replica i
always uses the stream keyed by (seed, i), and replicas are reduced in
index order, so output bytes do not depend on --threads.

Output goes to --out (or stdout) as CSV for tabular estimates and JSON
lines for event/snapshot streams; in both cases the first line is a JSON
header carrying the schema version and run metadata (prefixed with '# '
for CSV).

Exit codes: 0 success, 2 configuration error, 3 fragment budget exceeded,
4 regime warning under --strict.
"""

import argparse
import json
import math
import sys
import warnings

from .analytics import PhiEvaluator, detect_geometric
from .errors import (
    BracketNotFoundError,
    BudgetExceededError,
    ConfigError,
    FragmentationError,
    NotComputableError,
    RegimeWarning,
)
from .ldp import presence_summary, ratio_trace
from .martingales import (
    additive_estimator,
    derivative_estimator,
    mc_mean,
    truncated_estimator,
)
from .measures import model_from_json, model_to_json
from .partitions import PartitionOfN, simulate_partition, simulate_subordinator
# simulate stays a name of this module for callers that wrap its library calls
from .ranked import DEFAULT_MAX_FRAGMENTS, simulate, simulate_replicas  # noqa: F401
from .measures import MassPartition
from .streams import MASK64, Stream, derive_key, replica_key
from .tilting import (
    EventLog,
    simulate_event_log,
    simulate_spine,
    thin_fiber,
    tilted_split_rate,
)

SCHEMA = "homfrag/1"

_COMMANDS = ("phi", "simulate", "partition", "subordinator", "martingale",
             "spine", "thin", "ldp")
_CONFIG_KEYS = {"command", "model", "seed", "replicas", "threads", "out",
                "strict", "params"}


class RunConfig:
    """Fully merged and validated description of one CLI run."""

    def __init__(self, command, model, seed, replicas, threads, out, strict,
                 params):
        self.command = command
        self.model = model
        self.seed = seed
        self.replicas = replicas
        self.threads = threads
        self.out = out
        self.strict = strict
        self.params = params


def _float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v.strip()]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="homfrag",
        description="Simulation and verification of homogeneous fragmentations",
    )
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--model", help="JSON model file")
    parser.add_argument("--seed", type=int, help="master seed (required)")
    parser.add_argument("--replicas", type=int, help="number of replicas")
    parser.add_argument("--threads", type=int, help="worker threads")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 4 when a regime warning fires")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("phi", help="moment function on a grid")
    p.add_argument("--q-min", type=float)
    p.add_argument("--q-max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--mode", choices=["auto", "closed_form", "quadrature",
                                      "monte_carlo"])

    p = sub.add_parser("simulate", help="ranked population snapshots")
    p.add_argument("--t-end", type=float)
    p.add_argument("--eps-freeze", type=float)
    p.add_argument("--snapshots", type=_float_list)
    p.add_argument("--max-fragments", type=int)

    p = sub.add_parser("partition", help="nested partition path on n points")
    p.add_argument("--n", type=int)
    p.add_argument("--t-end", type=float)

    p = sub.add_parser("subordinator", help="tagged-piece log-mass path")
    p.add_argument("--t-end", type=float)
    p.add_argument("--event-log", action="store_true",
                   help="emit the full event stream (JSONL) instead of jumps")

    p = sub.add_parser("martingale", help="Monte Carlo means of martingales")
    p.add_argument("--kind", choices=["additive", "derivative", "truncated"])
    p.add_argument("--p", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--t-grid", type=_float_list)
    p.add_argument("--eps-freeze", type=float)
    p.add_argument("--max-fragments", type=int)

    p = sub.add_parser("spine", help="tilted spine trajectories")
    p.add_argument("--p", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--eps-freeze", type=float)
    p.add_argument("--with-population", action="store_true")

    p = sub.add_parser("thin", help="thin an event-log stream by (picked mass)^p")
    p.add_argument("--p", type=float)
    p.add_argument("--input", help="event-log JSONL file (subordinator --event-log)")

    p = sub.add_parser("ldp", help="window-count estimates in the LDP regime")
    p.add_argument("--p", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--t-grid", type=_float_list)
    p.add_argument("--eps-freeze", type=float)
    p.add_argument("--estimator", choices=["presence", "ratio"])
    p.add_argument("--n-boot", type=int)
    p.add_argument("--max-fragments", type=int)
    return parser


def parse_config(argv):
    """Merge flags over the config file and validate; collects all problems."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    problems = []
    file_cfg = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                problems.append("config file must hold a JSON object")
                file_cfg = {}
        except OSError as e:
            problems.append(f"cannot read config file: {e}")
        except json.JSONDecodeError as e:
            problems.append(f"config file is not valid JSON: {e}")
        for key in sorted(set(file_cfg) - _CONFIG_KEYS):
            problems.append(f"unknown config field {key!r}")

    command = ns.command or file_cfg.get("command")
    if command is None:
        problems.append(f"no command given; choose one of {', '.join(_COMMANDS)}")
    elif command not in _COMMANDS:
        problems.append(f"unknown command {command!r}")

    seed = ns.seed if ns.seed is not None else file_cfg.get("seed")
    if seed is None:
        problems.append("seed is required (--seed or config 'seed'); "
                        "runs are never seeded from the clock")
    elif not isinstance(seed, int) or isinstance(seed, bool):
        problems.append(f"seed must be an integer, got {seed!r}")
    elif not 0 <= seed <= MASK64:
        # streams use the seed's low 64 bits, so a wider seed would alias one
        problems.append(f"seed must be in [0, 2**64), got {seed}")

    replicas = ns.replicas if ns.replicas is not None else file_cfg.get("replicas", 1)
    if not isinstance(replicas, int) or replicas < 1:
        problems.append(f"replicas must be a positive integer, got {replicas!r}")
    threads = ns.threads if ns.threads is not None else file_cfg.get("threads", 1)
    if not isinstance(threads, int) or threads < 1:
        problems.append(f"threads must be a positive integer, got {threads!r}")
    out = ns.out if ns.out is not None else file_cfg.get("out")
    strict = ns.strict or bool(file_cfg.get("strict", False))

    model = None
    model_obj = file_cfg.get("model")
    if ns.model:
        try:
            with open(ns.model) as fh:
                model_obj = json.load(fh)
        except OSError as e:
            problems.append(f"cannot read model file: {e}")
        except json.JSONDecodeError as e:
            problems.append(f"model file is not valid JSON: {e}")
    if model_obj is None:
        problems.append("model is required (--model file or config 'model')")
    else:
        try:
            model = model_from_json(model_obj)
        except FragmentationError as e:
            problems.append(f"invalid model: {e}")

    params = dict(file_cfg.get("params", {}))
    if command in _COMMANDS and command is not None:
        flag_params = {k: v for k, v in vars(ns).items()
                       if k not in {"config", "model", "seed", "replicas",
                                    "threads", "out", "strict", "command"}}
        for k, v in flag_params.items():
            if v is not None and v is not False:
                params[k] = v
        problems.extend(_validate_params(command, params, model))

    if problems:
        raise ConfigError(problems)
    return RunConfig(command, model, seed, replicas, threads, out, strict, params)


def _require(params, names, problems, command):
    for name in names:
        if params.get(name) is None:
            problems.append(f"{command} requires --{name.replace('_', '-')}")


def _check_times(command, params, problems):
    """Finite times >= 0, snapshots in [0, t_end] (NaN fails every check).

    Only partition takes t_end = inf (shatter fully, a finite walk on n
    points); elsewhere an infinite horizon never ends.
    """
    t_end = params.get("t_end")
    if t_end is not None and not (
            0.0 <= t_end < math.inf or (command == "partition" and t_end >= 0.0)):
        problems.append(f"t_end must be finite and >= 0, got {t_end}")
    if any(not 0.0 <= t < math.inf for t in params.get("t_grid") or []):
        problems.append("t_grid times must be finite and >= 0, "
                        f"got {params['t_grid']}")
    snaps = params.get("snapshots")
    if (snaps is not None and t_end is not None and t_end >= 0.0
            and any(not 0.0 <= s <= t_end for s in snaps)):
        problems.append(f"snapshots must lie in [0, t_end = {t_end}], "
                        f"got {snaps}")


def _validate_params(command, params, model):
    problems = []
    _check_times(command, params, problems)
    if command == "phi":
        _require(params, ["q_min", "q_max"], problems, command)
        params.setdefault("points", 50)
        params.setdefault("mode", "auto")
        if params.get("points") is not None and params["points"] < 2:
            problems.append("phi needs at least 2 grid points")
        qmin = params.get("q_min")
        if (qmin is not None and model is not None and qmin <= model.p_lower):
            problems.append(
                f"q_min {qmin} must exceed p_lower = {model.p_lower}"
            )
        if (params.get("q_min") is not None and params.get("q_max") is not None
                and params["q_min"] >= params["q_max"]):
            problems.append("q_min must be smaller than q_max")
    elif command == "simulate":
        _require(params, ["t_end", "eps_freeze"], problems, command)
        if params.get("t_end") is not None:
            params.setdefault("snapshots", [params["t_end"]])
        params.setdefault("max_fragments", DEFAULT_MAX_FRAGMENTS)
        eps = params.get("eps_freeze")
        if eps is not None and not 0.0 < eps < 1.0:
            problems.append(f"eps_freeze must be in (0, 1), got {eps}")
    elif command == "partition":
        _require(params, ["n", "t_end"], problems, command)
        if params.get("n") is not None and params["n"] < 1:
            problems.append(f"n must be >= 1, got {params['n']}")
    elif command == "subordinator":
        _require(params, ["t_end"], problems, command)
        params.setdefault("event_log", False)
    elif command == "martingale":
        _require(params, ["kind", "t_grid", "eps_freeze"], problems, command)
        kind = params.get("kind")
        if kind == "additive" and params.get("p") is None:
            problems.append("additive martingale requires --p")
        if kind == "truncated":
            a = params.get("a")
            if a is None:
                problems.append("truncated martingale requires --a")
            elif a <= 0:
                problems.append(f"barrier level a must be positive, got {a}")
        params.setdefault("max_fragments", DEFAULT_MAX_FRAGMENTS)
    elif command == "spine":
        _require(params, ["p", "t_end"], problems, command)
        params.setdefault("with_population", False)
        if params["with_population"] and params.get("eps_freeze") is None:
            problems.append("spine --with-population requires --eps-freeze")
    elif command == "thin":
        _require(params, ["p", "input"], problems, command)
        if params.get("p") is not None and params["p"] < 0:
            problems.append("thin requires p >= 0 (p < 0 is the inverse direction)")
    elif command == "ldp":
        _require(params, ["p", "alpha", "beta", "t_grid", "eps_freeze"],
                 problems, command)
        params.setdefault("estimator", "presence")
        params.setdefault("n_boot", 500)
        params.setdefault("max_fragments", DEFAULT_MAX_FRAGMENTS)
        a, b = params.get("alpha"), params.get("beta")
        if a is not None and b is not None and a >= b:
            problems.append(f"need alpha < beta, got [{a}, {b}]")
        grid = params.get("t_grid")
        if (params["estimator"] == "ratio" and grid is not None
                and len(set(grid)) < 2):
            problems.append("ldp --estimator ratio needs two or more distinct "
                            "--t-grid times")
    return problems


# --- output rendering -------------------------------------------------------


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # np.float64 is a float, but its repr is not
    return str(v)


def _json_safe(v):
    if isinstance(v, float) and math.isinf(v):
        return "-inf" if v < 0 else "inf"
    return v


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_json_safe)


def render(cfg, header_extra, fmt, columns, rows):
    header = {"schema": SCHEMA, "command": cfg.command, "seed": cfg.seed,
              "replicas": cfg.replicas, "model": model_to_json(cfg.model)}
    header.update(header_extra)
    header = {k: _json_safe(v) for k, v in header.items()}
    lines = []
    if fmt == "csv":
        lines.append("# " + _dumps(header))
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
    else:
        lines.append(_dumps(header))
        lines.extend(_dumps(r) for r in rows)
    return "\n".join(lines) + "\n"


# --- command implementations -------------------------------------------------


def _cmd_phi(cfg):
    pr = cfg.params
    ev = PhiEvaluator(cfg.model, mode=pr["mode"], mc_seed=cfg.seed)
    qs = [pr["q_min"] + i * (pr["q_max"] - pr["q_min"]) / (pr["points"] - 1)
          for i in range(pr["points"])]
    rows = []
    for q in qs:
        d = ev.phi_derivs(q)
        rows.append((q, ev.phi(q), d.first, d.second))
    geo = detect_geometric(cfg.model)
    header = {"mode": pr["mode"], "p_lower": ev.p_lower,
              "geometric_base": geo.base, "geometric_evidence": geo.evidence}
    try:
        header["p_bar"] = ev.p_bar()
        header["p_bar_residual"] = ev.p_bar_residual
    except BracketNotFoundError as e:
        header["p_bar"] = None
        header["p_bar_error"] = str(e)
    return header, "csv", ("q", "phi", "dphi", "d2phi"), rows


def _cmd_simulate(cfg):
    pr = cfg.params

    def lines(snaps):
        return [{"t": s.time, "log_masses": s.log_masses.tolist(),
                 "frozen_mass": s.frozen_mass, "epsilon": s.eps_freeze,
                 "seed": s.seed} for s in snaps]

    rows = [r for lane in simulate_replicas(
                cfg.model, pr["t_end"], pr["snapshots"], pr["eps_freeze"],
                cfg.seed, cfg.replicas, max_fragments=pr["max_fragments"],
                reduce=lines, threads=cfg.threads)
            for r in lane]
    header = {"t_end": pr["t_end"], "eps_freeze": pr["eps_freeze"],
              "snapshots": pr["snapshots"]}
    return header, "jsonl", None, rows


def _cmd_partition(cfg):
    pr = cfg.params
    rows = []
    boundaries = []
    for i in range(cfg.replicas):
        boundaries.append(len(rows))
        path = simulate_partition(cfg.model, pr["n"], pr["t_end"],
                                  replica_key(cfg.seed, i))
        for t, labels in path.refinements():
            rows.append({"t": t,
                         "block_of": PartitionOfN(labels).assignment.tolist()})
    header = {"n": pr["n"], "t_end": pr["t_end"],
              "replica_row_start": boundaries}
    return header, "jsonl", None, rows


def _cmd_subordinator(cfg):
    pr = cfg.params
    if pr["event_log"]:
        rows = []
        for i in range(cfg.replicas):
            log = simulate_event_log(cfg.model, pr["t_end"],
                                     replica_key(cfg.seed, i))
            for t, part, j in zip(log.times, log.partitions, log.picks):
                rows.append({"replica": i, "t": t,
                             "masses": list(part.masses), "pick": j})
        header = {"t_end": pr["t_end"], "rate": cfg.model.total_rate,
                  "stream": "event_log"}
        return header, "jsonl", None, rows
    rows = []
    for i in range(cfg.replicas):
        path = simulate_subordinator(cfg.model, pr["t_end"],
                                     replica_key(cfg.seed, i))
        for t, s in zip(path.jump_times, path.jump_sizes):
            rows.append((i, float(t), float(s)))
    header = {"t_end": pr["t_end"], "rate": cfg.model.total_rate}
    return header, "csv", ("replica", "jump_time", "jump_size"), rows


def _require_two_replicas(cfg):
    if cfg.replicas < 2:
        raise NotComputableError(
            f"{cfg.command} reports standard errors, and a standard error "
            f"needs at least two replicas; got --replicas {cfg.replicas}")


def _cmd_martingale(cfg):
    _require_two_replicas(cfg)
    pr = cfg.params
    ev = PhiEvaluator(cfg.model)
    kind = pr["kind"]
    barrier_slope = None
    if kind == "additive":
        est = additive_estimator(ev, pr["p"])
        expected = 1.0
    elif kind == "derivative":
        est = derivative_estimator(ev)
        expected = 0.0
    else:
        est = truncated_estimator(ev, pr["a"])
        expected = pr["a"]
        barrier_slope = ev.phi_derivs(ev.p_bar()).first
    results = mc_mean(est, cfg.model, pr["t_grid"], cfg.replicas, cfg.seed,
                      pr["eps_freeze"], barrier_slope=barrier_slope,
                      threads=cfg.threads, max_fragments=pr["max_fragments"])
    rows = [(t, r.mean, r.stderr, r.frozen_mass_mean)
            for t, r in zip(pr["t_grid"], results)]
    header = {"kind": kind, "expected_mean": expected,
              "eps_freeze": pr["eps_freeze"]}
    if kind == "additive":
        header["p"] = pr["p"]
    else:
        header["p_bar"] = ev.p_bar()
    if kind == "truncated":
        header["a"] = pr["a"]
    return header, "csv", ("t", "mean", "stderr", "frozen_mass_mean"), rows


def _cmd_spine(cfg):
    pr = cfg.params
    ev = PhiEvaluator(cfg.model)
    rows = []
    weights = []
    n_shed = []
    for i in range(cfg.replicas):
        run = simulate_spine(cfg.model, pr["p"], pr["t_end"],
                             replica_key(cfg.seed, i), ev,
                             with_population=pr["with_population"],
                             eps_freeze=pr.get("eps_freeze"))
        weights.append(run.weight)
        n_shed.append(len(run.unmarked_roots))
        lm = 0.0
        for t, s in zip(run.jump_times, run.jump_sizes):
            lm -= s
            rows.append((i, t, s, lm))
    header = {"p": pr["p"], "t_end": pr["t_end"],
              "tilted_rate": tilted_split_rate(cfg.model, ev, pr["p"]),
              "weight_mean": sum(weights) / len(weights),
              "shed_fragments_mean": sum(n_shed) / len(n_shed)}
    return header, "csv", ("replica", "jump_time", "jump_size",
                           "spine_log_mass"), rows


_EVENT_FIELDS = ("replica", "t", "masses", "pick")
_EVENT_FIELD_SET = frozenset(_EVENT_FIELDS)


def _event_record_problems(n, rec):
    """Why event-log record n (1-based, after the header) cannot be thinned.

    Records come from json.loads, so numbers are exactly int or float and
    type() tells them from booleans.
    """
    if type(rec) is not dict:
        return [f"event-log record {n} is not a JSON object"]
    if not rec.keys() >= _EVENT_FIELD_SET:
        missing = [k for k in _EVENT_FIELDS if k not in rec]
        return [f"event-log record {n} lacks {', '.join(missing)}"]
    replica, masses, pick = rec["replica"], rec["masses"], rec["pick"]
    problems = []
    if type(replica) is not int:
        problems.append(f"event-log record {n}: replica must be an integer, "
                        f"got {replica!r}")
    if (type(masses) is not list or not masses
            or not all(type(m) is float or type(m) is int for m in masses)):
        problems.append(f"event-log record {n}: masses must be a non-empty "
                        f"list of numbers, got {masses!r}")
    elif type(pick) is not int or not 0 <= pick < len(masses):
        problems.append(f"event-log record {n}: pick must index masses, "
                        f"got {pick!r}")
    return problems


def _cmd_thin(cfg):
    pr = cfg.params
    ev = PhiEvaluator(cfg.model)
    try:
        with open(pr["input"]) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as e:
        raise ConfigError([f"cannot read thin input: {e}"])
    if not lines:
        raise ConfigError(["thin input is empty"])
    try:
        in_header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as e:
        raise ConfigError([f"thin input is not valid JSONL: {e}"])
    if not isinstance(in_header, dict) or in_header.get("stream") != "event_log":
        raise ConfigError(["thin input must be a subordinator --event-log stream"])
    t_end = in_header.get("t_end")
    problems = [problem for n, rec in enumerate(records, 1)
                for problem in _event_record_problems(n, rec)]
    if problems:
        raise ConfigError(problems)

    by_replica = {}
    for rec in records:
        by_replica.setdefault(rec["replica"], []).append(rec)

    p = pr["p"]
    rows = []
    kept_total = 0
    for rep in sorted(by_replica):
        recs = by_replica[rep]
        log = EventLog(
            t_end,
            [r["t"] for r in recs],
            [MassPartition(r["masses"]) for r in recs],
            [r["pick"] for r in recs],
        )
        stream = Stream(derive_key(replica_key(cfg.seed, rep), 1))
        thinned = thin_fiber(log, p, stream)
        for rec, kept in zip(recs, thinned.kept):
            out = dict(rec)
            out["kept"] = bool(kept)
            kept_total += bool(kept)
            rows.append(out)
    rate = cfg.model.total_rate
    header = {"p": p, "t_end": t_end, "stream": "event_log_thinned",
              "expected_kept_fraction": (rate - ev.phi(p)) / rate,
              "observed_kept_fraction":
                  kept_total / len(records) if records else None,
              "kept_rate": (rate - ev.phi(p))}
    return header, "jsonl", None, rows


def _cmd_ldp(cfg):
    _require_two_replicas(cfg)
    pr = cfg.params
    ev = PhiEvaluator(cfg.model)
    geo = detect_geometric(cfg.model)
    if geo.base is not None:
        warnings.warn(
            f"model is geometric with base {geo.base}; window asymptotics "
            "hold only along the lattice", RegimeWarning, stacklevel=2,
        )
    pb = ev.p_bar()
    header = {"p": pr["p"], "alpha": pr["alpha"], "beta": pr["beta"],
              "p_bar": pb, "eps_freeze": pr["eps_freeze"],
              "estimator": pr["estimator"], "geometric_base": geo.base}
    if pr["estimator"] == "presence":
        if pr["p"] > pb:
            warnings.warn(
                f"window-count prediction is Gaussian-regime (p <= p_bar = "
                f"{pb:.6g}); got p = {pr['p']}", RegimeWarning, stacklevel=2,
            )
        summaries = presence_summary(
            cfg.model, ev, pr["p"], pr["t_grid"], pr["alpha"], pr["beta"],
            pr["eps_freeze"], cfg.replicas, cfg.seed, threads=cfg.threads,
            max_fragments=pr["max_fragments"])
        d1 = ev.phi_derivs(pr["p"]).first
        rows = []
        for s in summaries:
            scale = math.sqrt(s.t) * math.exp(
                -s.t * ((pr["p"] + 1.0) * d1 - ev.phi(pr["p"])))
            rows.append((s.t, s.x, s.v_mean, s.v_stderr, s.v_predicted,
                         s.v_mean * scale, s.u_mean, s.u_stderr))
        header["limit_constant"] = ev.v_limit_constant(pr["p"], pr["alpha"],
                                                       pr["beta"])
        cols = ("t", "x", "v_mean", "v_stderr", "v_predicted", "v_scaled",
                "u_mean", "u_stderr")
        return header, "csv", cols, rows
    trace = ratio_trace(cfg.model, ev, pr["p"], pr["t_grid"], pr["alpha"],
                        pr["beta"], pr["eps_freeze"], cfg.replicas, cfg.seed,
                        n_boot=pr["n_boot"], threads=cfg.threads,
                        max_fragments=pr["max_fragments"])
    slope, lo, hi = trace.slope_ci()
    header.update({"slope": slope, "slope_lo": lo, "slope_hi": hi})
    rows = [tuple(p) for p in trace.points]
    cols = ("t", "u", "u_stderr", "v", "v_stderr", "ratio", "ratio_lo",
            "ratio_hi")
    return header, "csv", cols, rows


_RUNNERS = {
    "phi": _cmd_phi,
    "simulate": _cmd_simulate,
    "partition": _cmd_partition,
    "subordinator": _cmd_subordinator,
    "martingale": _cmd_martingale,
    "spine": _cmd_spine,
    "thin": _cmd_thin,
    "ldp": _cmd_ldp,
}


def run(cfg):
    """Execute a validated config; returns the full output text."""
    header, fmt, columns, rows = _RUNNERS[cfg.command](cfg)
    return render(cfg, header, fmt, columns, rows)


def main(argv=None):
    try:
        cfg = parse_config(argv)
    except ConfigError as e:
        print("configuration errors:", file=sys.stderr)
        for problem in e.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = run(cfg)
        except BudgetExceededError as e:
            print(f"budget exceeded: {e}", file=sys.stderr)
            return 3
        except ConfigError as e:
            print("configuration errors:", file=sys.stderr)
            for problem in e.problems:
                print(f"  - {problem}", file=sys.stderr)
            return 2
        except FragmentationError as e:
            print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
            return 2

    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    regime = [w for w in caught if issubclass(w.category, RegimeWarning)]
    for w in regime:
        print(f"regime warning: {w.message}", file=sys.stderr)
    if cfg.strict and regime:
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
