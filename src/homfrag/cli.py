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
import functools
import json
import math
import sys
import warnings
from types import SimpleNamespace

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
    TaggedLine,
    simulate_event_log,
    simulate_spine,
    thin_fiber,
    tilted_split_rate,
)

SCHEMA = "homfrag/1"


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


def _phi_grid(pr):
    n = pr["points"]
    return [pr["q_min"] + i * (pr["q_max"] - pr["q_min"]) / (n - 1)
            for i in range(n)]


def _cmd_phi(cfg):
    pr = cfg.params
    ev = PhiEvaluator(cfg.model, mode=pr["mode"], mc_seed=cfg.seed)
    rows = []
    for q in _phi_grid(pr):
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
    rows = []
    for i in range(cfg.replicas):
        key = replica_key(cfg.seed, i)
        if pr["event_log"]:
            log = simulate_event_log(cfg.model, pr["t_end"], key)
            for t, part, j in zip(log.jump_times, log.partitions, log.picks):
                rows.append({"replica": i, "t": t,
                             "masses": list(part.masses), "pick": j})
        else:
            path = simulate_subordinator(cfg.model, pr["t_end"], key)
            for t, s in zip(path.jump_times, path.jump_sizes):
                rows.append((i, float(t), float(s)))
    header = {"t_end": pr["t_end"], "rate": cfg.model.total_rate}
    if pr["event_log"]:
        header["stream"] = "event_log"
        return header, "jsonl", None, rows
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
        n_shed.append(sum(len(part) for part in run.partitions) - len(run))
        lm = 0.0
        for t, s in zip(run.jump_times, run.jump_sizes):
            lm -= s
            rows.append((i, t, s, lm))
    w_sq = sum(w * w for w in weights)
    header = {"p": pr["p"], "t_end": pr["t_end"],
              "tilted_rate": tilted_split_rate(cfg.model, ev, pr["p"]),
              "weight_mean": sum(weights) / len(weights),
              # effective sample size of the importance weights
              "weight_ess": sum(weights) ** 2 / w_sq if w_sq > 0.0 else None,
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
    t = rec["t"]
    problems = []
    if type(replica) is not int:
        problems.append(f"event-log record {n}: replica must be an integer, "
                        f"got {replica!r}")
    if type(t) not in (int, float) or not math.isfinite(t):
        problems.append(f"event-log record {n}: t must be a finite number, "
                        f"got {t!r}")
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
        key = replica_key(cfg.seed, rep)
        log = TaggedLine(
            t_end,
            [r["t"] for r in recs],
            [MassPartition(r["masses"]) for r in recs],
            [r["pick"] for r in recs],
            key,
        )
        stream = Stream(derive_key(key, 1))
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
    empty = [pt.t for pt in trace.points if math.isnan(pt.ratio)]
    if empty:
        raise NotComputableError(
            f"no U/V ratio at t = {empty}: the window stayed empty in every "
            "replica")
    header.update({"slope": slope, "slope_lo": lo, "slope_hi": hi})
    rows = [tuple(p) for p in trace.points]
    cols = ("t", "u", "u_stderr", "v", "v_stderr", "ratio", "ratio_lo",
            "ratio_hi")
    return header, "csv", cols, rows


# --- params and parsing -----------------------------------------------------


def _float_list(v):
    """A comma-separated flag, or a config-file list, as a list of floats."""
    if type(v) is str:
        v = [t for t in v.split(",") if t.strip()]
    return [float(t) for t in v]


# A param's kind: what a config-file value must be, the test of one, and its
# flag's argparse keywords, whose type also converts a config-file value
# ("t_end": 2 gives 2.0, as --t-end 2 does).
FLOAT = ("a number", lambda v: type(v) in (int, float), {"type": float})
INT = ("an integer", lambda v: type(v) is int, {"type": int})
COUNT = ("a positive integer", lambda v: type(v) is int, {"type": int})
TIMES = ("a list of numbers",
         lambda v: type(v) is list and all(type(t) in (int, float) for t in v),
         {"type": _float_list})
SWITCH = ("true or false", lambda v: type(v) is bool, {"action": "store_true"})
TEXT = ("a string", lambda v: type(v) is str, {})
# "out": null in a config file means stdout, as no "out" does
PATH = ("a path string", lambda v: v is None or type(v) is str, {})


def _choice(*names):
    return (f"one of {list(names)}", lambda v: type(v) is str and v in names,
            {"choices": list(names)})


class Required(str):
    """The default of a param that must be given: the problem if it is not."""


REQUIRED = Required("{command} requires --{flag}")


class Param:
    """A CLI param: its kind, default (a Required if it must be given) and
    domain, whose (test, problem) pairs format each failed test's problem."""

    def __init__(self, kind, default=None, *domain, help=None):
        self.want, self.ok, self.flag = kind
        self.default, self.domain, self.help = default, domain, help


# NaN fails every number test below; a NaN or infinite number would reach the
# arithmetic (a NaN tilt makes the spine's waits NaN, and its walk never ends)
_FINITE = (math.isfinite, "{name} must be a finite number, got {v!r}")
_AT_LEAST_1 = (lambda n: n >= 1, "{name} must be >= 1, got {v}")
_POSITIVE = (lambda n: n >= 1, "{name} must be a positive integer, got {v!r}")
_TIME_MESSAGE = "{name} must be finite and >= 0, got {v}"
_NONEMPTY = (bool, "{name} needs one or more times")
_EACH_TIME = (lambda ts: all(0.0 <= t < math.inf for t in ts),
              "{name} times must be finite and >= 0, got {v}")
_EPS = (lambda e: 0.0 < e < 1.0, "{name} must be in (0, 1), got {v}")

_P = Param(FLOAT, REQUIRED, _FINITE)
_T_END = Param(FLOAT, REQUIRED, (lambda t: 0.0 <= t < math.inf, _TIME_MESSAGE))
_EPS_FREEZE = Param(FLOAT, REQUIRED, _EPS)
_BUDGET = Param(INT, DEFAULT_MAX_FRAGMENTS, _AT_LEAST_1)

# the fields of a run: flags before the subcommand, or top-level config keys
_RUN_FIELDS = {
    "seed": Param(
        INT, Required("seed is required (--seed or config 'seed'); runs are "
                      "never seeded from the clock"),
        # streams use the seed's low 64 bits, so a wider seed would alias one
        (lambda s: 0 <= s <= MASK64, "{name} must be in [0, 2**64), got {v}"),
        help="master seed (required)"),
    "replicas": Param(COUNT, 1, _POSITIVE, help="number of replicas"),
    "threads": Param(COUNT, 1, _POSITIVE, help="worker threads"),
    "out": Param(PATH, help="output path (default: stdout)"),
    "strict": Param(SWITCH, False, help="exit 4 when a regime warning fires"),
}

# every subcommand's runner, help line and params (in the order of its --help)
_COMMAND_PARAMS = {
    "phi": (_cmd_phi, "moment function on a grid", {
        "q_min": _P, "q_max": _P,
        "points": Param(INT, 50, (lambda n: n >= 2,
                                  "phi needs at least 2 grid points")),
        "mode": Param(_choice("auto", "closed_form", "quadrature",
                              "monte_carlo"), "auto")}),
    "simulate": (_cmd_simulate, "ranked population snapshots", {
        "t_end": _T_END, "eps_freeze": _EPS_FREEZE,
        "snapshots": Param(TIMES, None, _NONEMPTY), "max_fragments": _BUDGET}),
    "partition": (_cmd_partition, "nested partition path on n points", {
        "n": Param(INT, REQUIRED, _AT_LEAST_1),
        # t_end = inf shatters the n points fully, still a finite walk
        "t_end": Param(FLOAT, REQUIRED, (lambda t: t >= 0.0, _TIME_MESSAGE))}),
    "subordinator": (_cmd_subordinator, "tagged-piece log-mass path", {
        "t_end": _T_END,
        "event_log": Param(SWITCH, False, help="emit the full event stream "
                           "(JSONL) instead of jumps")}),
    "martingale": (_cmd_martingale, "Monte Carlo means of martingales", {
        "kind": Param(_choice("additive", "derivative", "truncated"), REQUIRED),
        "p": Param(FLOAT, None, _FINITE), "a": Param(FLOAT, None, _FINITE),
        "t_grid": Param(TIMES, REQUIRED, _NONEMPTY, _EACH_TIME),
        "eps_freeze": _EPS_FREEZE, "max_fragments": _BUDGET}),
    "spine": (_cmd_spine, "tilted spine trajectories", {
        "p": _P, "t_end": _T_END, "eps_freeze": Param(FLOAT, None, _EPS),
        "with_population": Param(SWITCH, False)}),
    "thin": (_cmd_thin, "thin an event-log stream by (picked mass)^p", {
        "p": Param(FLOAT, REQUIRED, _FINITE, (lambda p: not p < 0, "thin "
                   "requires p >= 0 (p < 0 is the inverse direction)")),
        "input": Param(TEXT, REQUIRED,
                       help="event-log JSONL file (subordinator --event-log)")}),
    "ldp": (_cmd_ldp, "window-count estimates in the LDP regime", {
        "p": _P, "alpha": _P, "beta": _P,
        "t_grid": Param(TIMES, REQUIRED, _NONEMPTY, _EACH_TIME, (
            lambda ts: 0.0 not in ts, "ldp needs t_grid times > 0 "
            "(windows at t = 0 hold no asymptotics)")),
        "eps_freeze": _EPS_FREEZE,
        "estimator": Param(_choice("presence", "ratio"), "presence"),
        "n_boot": Param(INT, 500, _AT_LEAST_1), "max_fragments": _BUDGET}),
}
_COMMANDS = tuple(_COMMAND_PARAMS)


@functools.cache
def _build_parser():
    # a flag that is not given leaves no attribute in the namespace
    parser = argparse.ArgumentParser(
        prog="homfrag",
        description="Simulation and verification of homogeneous fragmentations",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", help="JSON run configuration file")
    parser.add_argument("--model", help="JSON model file")
    sub = parser.add_subparsers(dest="command")
    tables = [(parser, _RUN_FIELDS)] + [
        (sub.add_parser(command, help=text,
                        argument_default=argparse.SUPPRESS), table)
        for command, (_, text, table) in _COMMAND_PARAMS.items()]
    for flags, table in tables:
        for name, param in table.items():
            flags.add_argument("--" + name.replace("_", "-"), help=param.help,
                               **param.flag)
    return parser


def _check(table, from_file, flags, command):
    """Values of every param in table, flags over config-file values, and the
    problems with them; no values if a given name is unknown or a type wrong
    (the domains assume the types), though missing values are still listed."""
    given = dict(from_file, **{k: flags[k] for k in table if k in flags})
    problems = []
    for name, v in given.items():
        param = table.get(name)
        if param is None:
            problems.append(f"unknown param {name!r} for {command}")
        elif not param.ok(v):
            problems.append(f"{name} must be {param.want}, got {v!r}")
    typed = not problems
    values = {}
    for name, param in table.items():
        if name in given:
            if typed:
                v = param.flag.get("type", lambda v: v)(given[name])
                problems.extend(problem.format(name=name, v=v)
                                for ok, problem in param.domain if not ok(v))
                values[name] = v
        elif isinstance(param.default, Required):
            values[name] = None
            problems.append(param.default.format(
                command=command, flag=name.replace("_", "-")))
        else:
            values[name] = param.default
    return (values if typed else None), problems


def _load_json(path, what, problems, default):
    """The JSON value in a file, or default with the problem added."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        problems.append(f"cannot read {what} file: {e}")
    except json.JSONDecodeError as e:
        problems.append(f"{what} file is not valid JSON: {e}")
    return default


def parse_config(argv):
    """The run that flags over a config file give, as a namespace of command,
    model, params and run fields; a ConfigError lists every problem found."""
    flags = vars(_build_parser().parse_args(argv))
    problems = []
    file_cfg = {}
    if flags.get("config"):
        file_cfg = _load_json(flags["config"], "config", problems, {})
        if not isinstance(file_cfg, dict):
            problems.append("config file must hold a JSON object")
            file_cfg = {}
        for key in sorted(set(file_cfg) - {"command", "model", "params"}
                          - set(_RUN_FIELDS)):
            problems.append(f"unknown config field {key!r}")

    command = flags.get("command") or file_cfg.get("command")
    if command is None:
        problems.append(f"no command given; choose one of {', '.join(_COMMANDS)}")
    elif command not in _COMMANDS:
        problems.append(f"unknown command {command!r}")

    run, found = _check(_RUN_FIELDS, {k: v for k, v in file_cfg.items()
                                      if k in _RUN_FIELDS}, flags, command)
    problems.extend(found)

    model = None
    model_obj = file_cfg.get("model")
    if flags.get("model"):
        model_obj = _load_json(flags["model"], "model", problems, model_obj)
    if model_obj is None:
        problems.append("model is required (--model file or config 'model')")
    else:
        try:
            model = model_from_json(model_obj)
        except FragmentationError as e:
            problems.append(f"invalid model: {e}")

    params = file_cfg.get("params", {})
    if type(params) is not dict:
        problems.append(f"config params must be a JSON object, got {params!r}")
        params = {}
    if command in _COMMANDS:
        params, found = _check(_COMMAND_PARAMS[command][2], params, flags,
                               command)
        if params is not None:
            found += _validate_params(command, params, model, found)
        problems.extend(found)

    if problems:
        raise ConfigError(problems)
    return SimpleNamespace(command=command, model=model, params=params, **run)


def _validate_params(command, pr, model, found):
    """Problems with the rules that tie params to each other or the model;
    pr holds None for a param without a value, found the single params'."""
    problems = []
    if command == "phi":
        qmin, qmax = pr["q_min"], pr["q_max"]
        if qmin is not None and model is not None and qmin <= model.p_lower:
            problems.append(
                f"q_min {qmin} must exceed p_lower = {model.p_lower}")
        if qmin is not None and qmax is not None and qmin >= qmax:
            problems.append("q_min must be smaller than q_max")
        if not (found or problems or all(map(math.isfinite, _phi_grid(pr)))):
            problems.append(f"the grid of {pr['points']} points from "
                            f"q_min to q_max overflows: [{qmin}, {qmax}]")
    elif command == "simulate":
        t_end, snaps = pr["t_end"], pr["snapshots"]
        if (snaps is not None and t_end is not None and t_end >= 0.0
                and any(not 0.0 <= s <= t_end for s in snaps)):
            problems.append(f"snapshots must lie in [0, t_end = {t_end}], "
                            f"got {snaps}")
        if snaps is None:
            pr["snapshots"] = [t_end]
    elif command == "martingale":
        if pr["kind"] == "additive" and pr["p"] is None:
            problems.append("additive martingale requires --p")
        if pr["kind"] == "truncated" and pr["a"] is None:
            problems.append("truncated martingale requires --a")
        elif pr["kind"] == "truncated" and pr["a"] <= 0:
            problems.append(f"barrier level a must be positive, got {pr['a']}")
    elif command == "spine":
        if pr["with_population"] and pr["eps_freeze"] is None:
            problems.append("spine --with-population requires --eps-freeze")
    elif command == "ldp":
        a, b = pr["alpha"], pr["beta"]
        if a is not None and b is not None and a >= b:
            problems.append(f"need alpha < beta, got [{a}, {b}]")
        if (pr["estimator"] == "ratio" and pr["t_grid"] is not None
                and len(set(pr["t_grid"])) < 2):
            problems.append("ldp --estimator ratio needs two or more distinct "
                            "--t-grid times")
    return problems


def run(cfg):
    """Execute a validated config; returns the full output text."""
    header, fmt, columns, rows = _COMMAND_PARAMS[cfg.command][0](cfg)
    return render(cfg, header, fmt, columns, rows)


def main(argv=None):
    try:
        cfg = parse_config(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = run(cfg)
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except ConfigError as e:
        print("configuration errors:", file=sys.stderr)
        for problem in e.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 2
    except (FragmentationError, OverflowError, ZeroDivisionError) as e:
        # an overflow means the requested estimate is not computable,
        # for example the window asymptote at p near p_lower
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
