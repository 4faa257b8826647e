"""Record-by-record reference of the `thin` subcommand (test oracle).

This is `thin` as it ran before it read the event log as columns: every
line goes through json.loads, every record through _event_record_problems,
and every replica, in replica order, becomes a TaggedLine of MassPartitions
thinned by thin_fiber on the replica's own Stream, each row re-encoded by
_dumps.  thin_command has the signature of a subcommand runner, so a test
can put it in cli's command table and compare exit codes, stderr and output
bytes with the columnar `thin`.  It reads and parses the file as `thin`
does, so a file that is not UTF-8 or not JSON fails alike.

The record checker and the encoder are frozen copies of those `thin` used
then, not imports from homfrag.cli: an oracle that borrowed them would
compare `thin`'s error wording and row bytes with themselves.  The checker
has one later rule: a split that MassPartition refuses is a record problem,
so no split the loop builds raises.

HAND_LOGS are event logs written by hand: interleaved and out-of-order
replicas, negative and >= 2**64 replica indices, int times and masses, a
record with extra fields, CRLF line ends, blank lines, and a header alone.
"""

import json
import math
import sys

from homfrag.analytics import PhiEvaluator
from homfrag.errors import ConfigError, FragmentationError
from homfrag.measures import MassPartition
from homfrag.streams import Stream, derive_key, replica_key
from homfrag.tilting import TaggedLine, thin_fiber

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

_EVENT_FIELDS = ("replica", "t", "masses", "pick")
_EVENT_FIELD_SET = frozenset(_EVENT_FIELDS)


def _float(v):
    """float(v), with an int beyond the float range read as an infinity of
    its sign."""
    if type(v) is int and not abs(v) <= sys.float_info.max:
        return math.inf if v > 0 else -math.inf
    return float(v)


def _finite_number(v):
    """True for a JSON number (an int or a float, not a bool) whose float is
    finite."""
    return type(v) in (int, float) and math.isfinite(_float(v))


def _event_record_problems(n, rec, t_end):
    """Why event-log record n (1-based, after the header) cannot be thinned
    on a log that runs to t_end (None when the header's is unusable)."""
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
    if not _finite_number(t):
        problems.append(f"event-log record {n}: t must be a finite number, "
                        f"got {t!r}")
    elif t_end is not None and not 0 <= t <= t_end:
        problems.append(f"event-log record {n}: t must lie in "
                        f"[0, t_end = {t_end!r}], got {t!r}")
    if (type(masses) is not list or not masses
            or not all(type(m) is float or type(m) is int for m in masses)):
        problems.append(f"event-log record {n}: masses must be a non-empty "
                        f"list of numbers, got {masses!r}")
        return problems
    try:
        MassPartition(masses)
    except (FragmentationError, OverflowError):  # an int past the floats
        problems.append(f"event-log record {n}: masses must be positive, "
                        f"ranked and sum to at most 1, got {masses!r}")
    if type(pick) is not int or not 0 <= pick < len(masses):
        problems.append(f"event-log record {n}: pick must index masses, "
                        f"got {pick!r}")
    return problems


def thin_command(cfg):
    pr = cfg.params
    ev = PhiEvaluator(cfg.model)
    try:
        with open(pr["input"], encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError([f"cannot read thin input: {e}"])
    if not lines:
        raise ConfigError(["thin input is empty"])
    try:
        in_header = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except (ValueError, RecursionError) as e:
        raise ConfigError([f"thin input is not valid JSONL: {e}"])
    if not isinstance(in_header, dict) or in_header.get("stream") != "event_log":
        raise ConfigError(["thin input must be a subordinator --event-log stream"])
    t_end = in_header.get("t_end")
    problems = []
    if not (_finite_number(t_end) and t_end >= 0):
        problems.append("event-log header: t_end must be a finite number "
                        f">= 0, got {t_end!r}" if "t_end" in in_header
                        else "event-log header lacks t_end")
        t_end = None
    problems += [problem for n, rec in enumerate(records, 1)
                 for problem in _event_record_problems(n, rec, t_end)]
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
            rows.append(_dumps(out))
    rate = cfg.model.total_rate
    header = {"p": p, "t_end": t_end, "stream": "event_log_thinned",
              "expected_kept_fraction": (rate - ev.phi(p)) / rate,
              "observed_kept_fraction":
                  kept_total / len(records) if records else None,
              "kept_rate": (rate - ev.phi(p))}
    return header, "jsonl", None, rows


def _log(records, header='{"rate": 1.0, "stream": "event_log", "t_end": 4.0}',
         end="\n"):
    return "".join(line + end for line in [header] + records)


# dyadic masses: m ** 1.0 is m and m ** 0.0 is 1.0 in every libm
MIXED = _log([
    '{"replica": 3, "t": 0.25, "masses": [0.5, 0.5], "pick": 1}',
    '{"replica": -2, "t": 1, "masses": [0.75, 0.25], "pick": 0}',
    '{"replica": 18446744073709551616, "t": 0.5, '
    '"masses": [0.5, 0.25, 0.125], "pick": 2}',
    '{"replica": 3, "t": 1.5, "masses": [1], "pick": 0}',
    '{"replica": 0, "t": 2.0, "masses": [0.5, 0.5], "pick": 0, '
    '"note": "extra", "kept": "replaced"}',
    '{"replica": -2, "t": 3.75, "masses": [0.625, 0.375], "pick": 1}',
    '{"replica": 18446744073709551616, "t": 4, "masses": [0.5, 0.5], '
    '"pick": 0}',
    '{"t": 0.0, "pick": 1, "replica": 3, "masses": [0.5, 0.375, 0.125]}',
    '{"replica": -1, "t": 2.5, "masses": [0.5, 0.5], "pick": 1}',
    '{"replica": 18446744073709551615, "t": 3, "masses": [0.5, 0.5], '
    '"pick": 1}',
    '{"replica": 3, "t": 3.5, "masses": [0.5, 0.25, 0.25], "pick": 1}',
    '{"replica": -2, "t": 4.0, "masses": [0.5, 0.5], "pick": 0}',
    '{"replica": 3, "t": 3.875, "masses": [0.75, 0.125], "pick": 0}',
    '{"replica": -1, "t": 0, "masses": [0.5, 0.5], "pick": 0}',
])

HAND_LOGS = {
    "mixed": MIXED,
    "crlf_and_blank_lines": MIXED.replace("\n", "\r\n").replace(
        '{"replica": -1', '\r\n  \t\n{"replica": -1'),
    "int_t_end": _log([
        '{"replica": 1, "t": 2, "masses": [0.9, 0.1], "pick": 1}',
        '{"replica": 0, "t": 1.0e0, "masses": [1.0], "pick": 0}',
        '{"replica": 1, "t": 0, "masses": [1], "pick": 0}',
    ], header='{"stream": "event_log", "t_end": 2, "rate": 1}'),
    "one_replica": _log([
        f'{{"replica": 7, "t": {t}, "masses": [0.6, 0.3, 0.1], "pick": {j}}}'
        for t, j in ((0.1, 0), (0.7, 2), (1.3, 1), (2.9, 0), (3.3, 1))]),
    "header_only": _log([]),
}
