"""`thin` against its record-by-record oracle: bytes, exit codes, stderr."""

import hashlib
import json
import sys

import numpy as np
import pytest

from homfrag import cli
from homfrag.errors import FragmentationError
from homfrag.measures import (
    AtomicModel,
    MassPartition,
    PowerTailBinaryModel,
    UniformBinaryModel,
    model_to_json,
)
from test_cli import EVENT_LOG_TIMES, MALFORMED_EVENT_RECORDS, run_cli
from thin_oracle import HAND_LOGS, _event_record_problems, thin_command

MODELS = {
    "uniform": UniformBinaryModel(),
    "power_tail_eps0.01": PowerTailBinaryModel(epsilon=0.01),
    "dyadic": AtomicModel([([0.5, 0.5], 1.0)]),
}
THIN_P = ("0", "0.5", "1", "2.5")
VALID = {"replica": 0, "t": 0.5, "masses": [0.6, 0.4], "pick": 0}
HEADER = '{"rate": 1.0, "stream": "event_log", "t_end": 1.0}'


@pytest.fixture()
def both(capsys, monkeypatch):
    """both(argv): (exit code, stdout, stderr) of main with thin, then with
    the oracle in its place."""
    def run(argv):
        new = run_cli(capsys, argv)
        with monkeypatch.context() as m:
            m.setitem(cli._COMMAND_PARAMS, "thin",
                      (thin_command,) + cli._COMMAND_PARAMS["thin"][1:])
            old = run_cli(capsys, argv)
        return new, old
    return run


def _model_file(tmp_path, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    return str(path)


def _thin_argv(model_file, log, p="1", seed=14):
    return ["--seed", str(seed), "--model", model_file,
            "thin", "--p", p, "--input", str(log)]


def _write_log(tmp_path, text):
    path = tmp_path / "events.jsonl"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("name", sorted(MODELS))
def test_thin_bytes_equal_the_oracle_on_subordinator_logs(capsys, both,
                                                          tmp_path, name):
    model_file = _model_file(tmp_path, MODELS[name])
    log = tmp_path / "events.jsonl"
    for seed in (5, 2**64 - 1):
        code, _, _ = run_cli(capsys, [
            "--seed", str(seed), "--model", model_file, "--replicas", "40",
            "--out", str(log), "subordinator", "--t-end", "3", "--event-log"])
        assert code == 0
        for p in THIN_P:
            new, old = both(_thin_argv(model_file, log, p, seed))
            assert new == old
            assert new[0] == 0 and len(new[1].split("\n")) > 40


@pytest.mark.parametrize("name", sorted(HAND_LOGS))
def test_thin_bytes_equal_the_oracle_on_hand_written_logs(both, tmp_path,
                                                          name):
    model_file = _model_file(tmp_path, MODELS["uniform"])
    log = _write_log(tmp_path, HAND_LOGS[name])
    for seed in (0, 7, 2**64 - 1):
        for p in THIN_P:
            new, old = both(_thin_argv(model_file, log, p, seed))
            assert new == old
            assert new[0] == 0


def test_thin_keys_every_replica_modulo_2_64_as_the_oracle(both, tmp_path):
    # the oracle keys replica r by derive_key(replica_key(seed, r), 1), one
    # replica at a time; thin derives the keys of all replicas together
    replicas = [*range(200), -1, 2**64 - 1, 2**70 + 3, -2**65]
    log = _write_log(tmp_path, "\n".join([HEADER] + [
        json.dumps(dict(VALID, replica=r, t=t))
        for t in (0.25, 0.5) for r in replicas]) + "\n")
    model_file = _model_file(tmp_path, MODELS["uniform"])
    for seed in (0, 5, 2**64 - 1):
        new, old = both(_thin_argv(model_file, log, "0.5", seed))
        assert new == old
        assert new[0] == 0


# SHA-256 of thin's stdout on HAND_LOGS["mixed"] (seed 7, uniform binary
# model), taken from the record-by-record thin.  The path holds SplitMix64,
# comparisons, repr and dyadic masses to the power 0 or 1, and no libm call
# that rounds, so the digest holds on every Python version and platform.
GOLDEN_DIGESTS = {
    "0": "c795c6601485fe02990a48cab4f2a7f53a97238c1837f12b8c63e25e67eea6e3",
    "1": "5c8717f3bd12a708784d956f1c4882bcc7eb4e801df061e73d841d48ff5c2fd1",
}


@pytest.mark.parametrize("p", sorted(GOLDEN_DIGESTS))
def test_thin_bytes_match_their_golden_digest(capsys, tmp_path, p):
    model_file = _model_file(tmp_path, MODELS["uniform"])
    log = _write_log(tmp_path, HAND_LOGS["mixed"])
    code, out, err = run_cli(capsys, _thin_argv(model_file, log, p, seed=7))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[p]


# records that the column checks must pass or fail exactly as the oracle's
# _event_record_problems does
EDGE_RECORDS = [record for record, _ in MALFORMED_EVENT_RECORDS] + [
    VALID,
    dict(VALID, note="extra"),
    dict(VALID, masses=[0.6, True]),
    dict(VALID, masses=[]),
    dict(VALID, masses=[[0.6, 0.4]]),
    dict(VALID, masses=None),
    dict(VALID, pick=True),
    dict(VALID, pick=-1),
    dict(VALID, pick=1.0),
    dict(VALID, pick=10**30),
    dict(VALID, replica=-(10**30)),
    dict(VALID, t=1),
    dict(VALID, t=0),
    dict(VALID, t=-0.0),
    dict(VALID, t=1.0000000000000002),
    dict(VALID, t=float("inf")),
    dict(VALID, t=-float("inf")),
    dict(VALID, t=True),
    dict(VALID, t=None),
    dict(VALID, t=2**1024),
    dict(VALID, t=-(2**1024)),
    dict(VALID, t=int(sys.float_info.max) + 1),
    {"replica": 0, "t": 0.5, "masses": [0.6, 0.4]},
]
# records whose splits fail MassPartition's checks, in thin's words a split
# that is not positive, ranked and summing to at most 1
BAD_SPLITS = [
    dict(VALID, masses=[0.4, 0.6]),
    dict(VALID, masses=[0.6, 0.0]),
    dict(VALID, masses=[0.6, -0.4]),
    dict(VALID, masses=[0.6, float("nan")]),
    dict(VALID, masses=[0.6, 0.5]),
    dict(VALID, masses=[1.0, 1e-11]),
    dict(VALID, masses=[1.0, 1.5e-12]),
    dict(VALID, masses=[float("inf")]),
    dict(VALID, masses=[1e308, 1e308]),
    dict(VALID, masses=[10**400, 0.5]),
    dict(VALID, masses=[2, 1]),
    dict(VALID, masses=[0.5, 0.25, 0.375], pick=2),
]


@pytest.mark.parametrize("t_end", [1.0, 1, 0.5, 0.0, None])
def test_column_checks_pass_exactly_when_no_record_has_a_problem(t_end):
    for record in EDGE_RECORDS:
        for records in ([record], [VALID, record, VALID], [record, record]):
            ok = not any(_event_record_problems(n, rec, t_end)
                         for n, rec in enumerate(records, 1))
            assert (cli._event_columns(records, t_end) is not None) == (
                ok and t_end is not None), (records, t_end)


def test_column_checks_compare_times_exactly():
    t_end = 2.0**53
    for t, ok in ((2**53, True), (2**53 + 1, False), (2.0**53, True)):
        records = [dict(VALID, t=t)]
        assert (not _event_record_problems(1, records[0], t_end)) == ok
        assert (cli._event_columns(records, t_end) is not None) == ok


def test_split_checks_pass_exactly_when_mass_partition_accepts():
    for record in BAD_SPLITS + [VALID, dict(VALID, masses=[1.0 + 1e-12]),
                                dict(VALID, masses=[1]),
                                dict(VALID, masses=[1.0, 1e-12]),
                                dict(VALID, masses=[0.5, 0.5, 5e-13, 5e-13]),
                                dict(VALID, masses=[0.5, 0.25, 0.25, 1e-13])]:
        try:
            MassPartition(record["masses"])
            ok = True
        except (FragmentationError, OverflowError):
            ok = False
        for masses in ([record["masses"]], [[0.5, 0.5], record["masses"]]):
            with np.errstate(over="ignore"):  # a sum to inf fails the check
                assert (cli._split_grid(masses) is not None) == ok, masses


@pytest.mark.parametrize("record", EDGE_RECORDS + BAD_SPLITS)
def test_thin_exits_as_the_oracle_on_each_record(both, tmp_path, record):
    model_file = _model_file(tmp_path, MODELS["uniform"])
    good, bad = json.dumps(dict(VALID, replica=1)), json.dumps(record)
    for lines in ([bad], [good, bad, good]):
        log = _write_log(tmp_path, "\n".join([HEADER] + lines) + "\n")
        new, old = both(_thin_argv(model_file, log))
        assert new == old
        assert "Traceback" not in new[2]


@pytest.mark.parametrize("t_end, record_t, problems", EVENT_LOG_TIMES + [
    ("9007199254740992.0", "9007199254740993", []),
    ("9007199254740992.0", "9007199254740992", []),
])
def test_thin_exits_as_the_oracle_on_each_header_and_time(
        both, tmp_path, t_end, record_t, problems):
    header = '{"rate": 1.0, "stream": "event_log"'
    if t_end is not None:
        header += f', "t_end": {t_end}'
    log = _write_log(tmp_path, header + "}\n" + '{"replica": 0, "t": '
                     + str(record_t) + ', "masses": [0.6, 0.4], "pick": 0}\n')
    new, old = both(_thin_argv(_model_file(tmp_path, MODELS["uniform"]), log))
    assert new == old
    assert all(problem in new[2] for problem in problems)


@pytest.mark.parametrize("text", [
    "",
    "\n \n",
    "{}\n",
    "[]\n",
    '{"stream": "event_log", "t_end": 1.0}\n{"replica": 0,\n',
    '{"stream": "event_log", "t_end": 1.0}\n{"replica": 0} x\n',
    '{"stream": "event_log", "t_end": 1.0}\n1, 2\n',
    '{"stream": "event_log", "t_end": 1.0}\n\ufeff{}\n',
    '{"stream": "event_log", "t_end": 1.0} {}\n',
    '{"stream": "event_log" "t_end": 1.0}\n{"replica": 0,\n',
    '{"stream": "event_log", "t_end": 1.0}\n' + json.dumps(VALID) * 2 + "\n",
    HEADER + "\n" + json.dumps(dict(VALID, t="x")) + "\n"
    + json.dumps(dict(VALID, t=2.0)) + "\n" + json.dumps(VALID)[:-1] + "\n",
    HEADER + "\n" + json.dumps(VALID) + "\n" + "nul\n",
])
def test_thin_fails_as_the_oracle_on_each_malformed_file(both, tmp_path,
                                                         text):
    log = _write_log(tmp_path, text)
    new, old = both(_thin_argv(_model_file(tmp_path, MODELS["uniform"]), log))
    assert new == old
    assert new[0] == 2 and "Traceback" not in new[2]


@pytest.mark.parametrize("record, problem", [
    (b'{"replica": 0, "t": 0.5, "masses": [0.6, 0.4], "pick": 0, "x": "\xff"}',
     "cannot read thin input: 'utf-8' codec can't decode byte 0xff"),
    (b'{"replica": ' + b"7" * 5001 + b', "t": 0.5, "masses": [0.6, 0.4], '
     b'"pick": 0}', "thin input is not valid JSONL: Exceeds the limit"),
    (b"[" * 100_000 + b"]" * 100_000,
     "thin input is not valid JSONL: maximum recursion depth exceeded"),
], ids=["byte-0xff", "5001-digit-replica", "nested-100000-deep"])
def test_thin_refuses_a_file_it_cannot_decode_as_the_oracle(both, tmp_path,
                                                          record, problem):
    log = tmp_path / "events.jsonl"
    log.write_bytes(HEADER.encode() + b"\n" + record + b"\n")
    new, old = both(_thin_argv(_model_file(tmp_path, MODELS["uniform"]), log))
    assert new == old
    assert new[0] == 2 and "Traceback" not in new[2]
    assert f"  - {problem}" in new[2]


def _split_problem(n, masses):
    return (f"event-log record {n}: masses must be positive, ranked and sum "
            f"to at most 1, got {json.loads(json.dumps(masses))!r}")


def test_thin_lists_every_bad_split_in_record_order(both, tmp_path):
    # a valid record before each bad one, and the bad ones' replicas
    # numbered down, so that record order is not replica order
    lines, problems = [HEADER], []
    for i, bad in enumerate(BAD_SPLITS + [dict(VALID, masses=[0.3, 0.7],
                                               pick=2)]):
        lines += [json.dumps(dict(VALID, replica=i)),
                  json.dumps(dict(bad, replica=-i))]
        problems.append(_split_problem(2 * i + 2, bad["masses"]))
    problems.append(f"event-log record {len(lines) - 1}: pick must index "
                    "masses, got 2")
    log = _write_log(tmp_path, "\n".join(lines) + "\n")
    new, old = both(_thin_argv(_model_file(tmp_path, MODELS["uniform"]), log))
    assert new == old
    assert new == (2, "", "configuration errors:\n"
                   + "".join(f"  - {problem}\n" for problem in problems))


def test_thin_overflows_only_on_a_log_whose_records_all_pass(both, tmp_path):
    # a picked mass just above 1 passes the split check and overflows at
    # p = 1e300; beside a bad split anywhere in the log, only that is listed
    over = json.dumps(dict(VALID, replica=1, masses=[1.0 + 5e-13]))
    unranked = json.dumps(dict(VALID, replica=2, masses=[0.4, 0.6]))
    model_file = _model_file(tmp_path, MODELS["uniform"])
    for lines, error in (
            ([over], "error: OverflowError: "),
            ([over, unranked], f"  - {_split_problem(2, [0.4, 0.6])}\n"),
            ([unranked, over], f"  - {_split_problem(1, [0.4, 0.6])}\n")):
        log = _write_log(tmp_path, "\n".join([HEADER] + lines) + "\n")
        new, old = both(_thin_argv(model_file, log, p="1e300"))
        assert new == old and new[0] == 2
        assert error in new[2]
        assert ("OverflowError" in new[2]) == (len(lines) == 1)
