"""End-to-end checks of the command-line interface."""

from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
import io
import json
import math
from operator import add
import os
import stat
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st
import pytest

import walk_oracle

from homfrag import cli as cli_module
from homfrag.cli import main
from homfrag.measures import (
    AtomicModel,
    PowerTailBinaryModel,
    UniformBinaryModel,
    model_to_json,
)
from homfrag.partitions import PartitionOfN, simulate_partition
from homfrag.streams import Stream, derive_key, replica_key
from homfrag.tilting import simulate_event_log, simulate_spine


@pytest.fixture()
def ub_model_file(tmp_path, ub):
    path = tmp_path / "ub.json"
    path.write_text(json.dumps(model_to_json(ub)))
    return str(path)


@pytest.fixture()
def dyadic_model_file(tmp_path, dyadic):
    path = tmp_path / "dyadic.json"
    path.write_text(json.dumps(model_to_json(dyadic)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, columns, rows


def parse_jsonl(text):
    lines = text.strip().split("\n")
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    return header, rows


def test_missing_seed_and_model_collected(capsys):
    code, _, err = run_cli(capsys, ["simulate"])
    assert code == 2
    assert "never seeded from the clock" in err
    assert "model is required" in err
    assert "simulate requires --t-end" in err


def test_unknown_config_field(capsys, tmp_path, ub):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "phi", "seed": 1,
                               "model": model_to_json(ub), "typo_field": 3,
                               "params": {"q_min": 0.0, "q_max": 1.0}}))
    code, _, err = run_cli(capsys, ["--config", str(cfg)])
    assert code == 2
    assert "unknown config field 'typo_field'" in err


@pytest.mark.parametrize("command, params, unknown", [
    ("simulate", {"t_end": 1.0, "eps_freeze": 0.01, "max_fragment": 5},
     "max_fragment"),
    # a param of another subcommand
    ("martingale", {"kind": "derivative", "t_grid": [1.0],
                    "eps_freeze": 0.01, "n_boot": 5}, "n_boot"),
])
def test_unknown_config_params_exit_2(capsys, tmp_path, ub, command, params,
                                      unknown):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": command, "seed": 1, "replicas": 2,
                               "model": model_to_json(ub), "params": params}))
    code, out, err = run_cli(capsys, ["--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert f"unknown param {unknown!r} for {command}" in err


def test_invalid_model_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "no_such_family"}))
    code, _, err = run_cli(capsys, ["--seed", "1", "--model", str(bad),
                                    "phi", "--q-min", "0", "--q-max", "1"])
    assert code == 2
    assert "invalid model" in err


_PHI_ARGS = ["phi", "--q-min", "0", "--q-max", "1"]
_DEEP = b"[" * 100_000 + b"]" * 100_000  # beyond any recursion limit
_LDP_ARGS = ["--replicas", "2", "--model", "model.json", "ldp", "--p", "0.5",
             "--t-grid", "1", "--eps-freeze", "0.01"]


_NO_COMMAND = ("no command given; choose one of phi, simulate, partition, "
               "subordinator, martingale, spine, thin, ldp")


# every problem line, in order, by its start; a file that cannot be loaded
# adds no "missing" problem for a field it might have held
@pytest.mark.parametrize("files, argv, problems", [
    ({}, ["--model", "absent.json"] + _PHI_ARGS,
     ["cannot read model file: [Errno 2] No such file or directory"]),
    ({}, ["--model", "."] + _PHI_ARGS,
     ["cannot read model file: [Errno 21] Is a directory"]),
    ({}, ["--config", "absent.json", "--model", "model.json"] + _PHI_ARGS,
     ["cannot read config file: [Errno 2] No such file or directory"]),
    ({"bad.json": b'{"kind": '}, ["--model", "bad.json"] + _PHI_ARGS,
     ["model file is not valid JSON: Expecting value"]),
    ({"run.json": b'{"command": "phi",'},
     ["--config", "run.json", "--model", "model.json"] + _PHI_ARGS,
     ["config file is not valid JSON: Expecting property name"]),
    ({"run.json": b"[1, 2]"},
     ["--config", "run.json", "--model", "model.json"] + _PHI_ARGS,
     ["config file must hold a JSON object"]),
    ({}, ["--model", "model.json"], [_NO_COMMAND]),
    ({"run.json": b'{"command": "frobnicate", "model": '
                  b'{"kind": "uniform_binary"}}'}, ["--config", "run.json"],
     ["unknown command 'frobnicate'"]),
    ({}, _LDP_ARGS + ["--alpha", "0.5", "--beta", "0.5"],
     ["need alpha < beta, got [0.5, 0.5]"]),
    # files that ended in a traceback: not UTF-8, an int past Python's
    # digit limit, nesting past the recursion limit
    ({"bad.json": b'{"kind": "uniform_binary", "x": "\xff"}'},
     ["--model", "bad.json"] + _PHI_ARGS,
     ["cannot read model file: 'utf-8' codec can't decode byte 0xff"]),
    ({"bad.json": b'{"kind": "uniform_binary", "epsilon": ' + b"1" * 5001
      + b"}"}, ["--model", "bad.json"] + _PHI_ARGS,
     ["model file is not valid JSON: Exceeds the limit (4300 digits)"]),
    ({"bad.json": _DEEP}, ["--model", "bad.json"] + _PHI_ARGS,
     ["model file is not valid JSON: maximum recursion depth exceeded"]),
    ({"run.json": b'{"command": "phi", "x": "\xff"}'},
     ["--config", "run.json", "--model", "model.json"] + _PHI_ARGS,
     ["cannot read config file: 'utf-8' codec can't decode byte 0xff"]),
    ({"run.json": b'{"params": ' + _DEEP + b"}"},
     ["--config", "run.json", "--model", "model.json"] + _PHI_ARGS,
     ["config file is not valid JSON: maximum recursion depth exceeded"]),
    # an unreadable config might have held the command, the model and every
    # param; the values the flags give are still checked
    ({"run.json": b'{"x": "\xff"}'}, ["--config", "run.json"],
     ["cannot read config file: 'utf-8' codec can't decode byte 0xff"]),
    ({"run.json": b'{"x": "\xff"}'},
     ["--config", "run.json", "--replicas", "0", "phi", "--q-min", "1",
      "--q-max", "0"],
     ["cannot read config file: 'utf-8' codec can't decode byte 0xff",
      "replicas must be a positive integer, got 0",
      "q_min must be smaller than q_max"]),
    # a model file cannot hold the command
    ({"bad.json": b'{"kind": '}, ["--model", "bad.json"],
     [_NO_COMMAND, "model file is not valid JSON: Expecting value"]),
], ids=["missing-model", "model-is-a-directory", "missing-config",
        "model-not-json", "config-not-json", "config-holds-a-list",
        "no-command", "unknown-command", "ldp-empty-window", "model-byte-0xff",
        "model-5001-digits", "model-nested-deep", "config-byte-0xff",
        "config-nested-deep", "config-byte-0xff-alone",
        "config-byte-0xff-bad-flags", "model-not-json-no-command"])
def test_unreadable_files_and_bad_commands_exit_2(capsys, tmp_path,
                                                  monkeypatch, files, argv,
                                                  problems):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text('{"kind": "uniform_binary"}')
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run_cli(capsys, ["--seed", "1"] + argv)
    assert code == 2 and out == ""
    head, *lines = err.splitlines()
    assert head == "configuration errors:", err
    assert len(lines) == len(problems), err
    assert all(line.startswith(f"  - {problem}")
               for line, problem in zip(lines, problems)), err


_PT_MODEL = {"kind": "truncated", "family": "power_tail_binary",
             "epsilon": 0.05}
# model files that exited 1 with a traceback, or wrote NaN into the header
# (c = NaN), or were read with a string or a boolean as a number
MALFORMED_MODEL_FILES = [
    {"kind": "uniform_binary", "epsilon": "x"},
    dict(_PT_MODEL, params={"c": "x"}),
    {"kind": "atomic", "atoms": [[[0.5, 0.5], "w"]]},
    {"kind": "atomic", "atoms": [[0.5, 1.0]]},
    {"kind": "uniform_binary", "total_rate": "x"},
    dict(_PT_MODEL, params={"c": math.nan}),
    {"kind": "atomic", "atoms": [[[0.5, 0.5], math.nan]]},
    {"kind": "atomic", "atoms": [[[0.5, 0.5], math.inf]]},
    {"kind": "atomic", "atoms": [[[0.5, math.nan], 1.0]]},
    {"kind": "uniform_binary", "epsilon": "0.01"},
    {"kind": "uniform_binary", "epsilon": True},
    {"kind": "uniform_binary", "epsilon": False},
]


@pytest.mark.parametrize("obj", MALFORMED_MODEL_FILES, ids=repr)
def test_malformed_model_files_exit_2(capsys, tmp_path, obj):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps(obj))  # NaN and Infinity as JSON5 literals
    code, out, err = run_cli(capsys, [
        "--model", str(bad), "--seed", "1",
        "simulate", "--t-end", "1", "--eps-freeze", "0.01"])
    assert code == 2 and out == ""
    assert "invalid model" in err and "Traceback" not in err


def test_phi_grid_csv(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "7", "--model", ub_model_file,
        "phi", "--q-min", "-0.5", "--q-max", "2.0", "--points", "6"])
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert header["schema"] == "homfrag/1"
    assert header["command"] == "phi" and header["seed"] == 7
    assert header["mode"] == "auto"
    assert header["p_lower"] == -2.0
    assert header["p_bar"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert header["geometric_base"] is None
    assert columns == ["q", "phi", "dphi", "d2phi"]
    assert len(rows) == 6
    for row in rows:
        q, phi, dphi, d2phi = map(float, row)
        assert phi == pytest.approx(q / (q + 2.0), abs=1e-12)
        assert dphi == pytest.approx(2.0 / (q + 2.0) ** 2, abs=1e-9)
    assert float(rows[0][0]) == -0.5 and float(rows[-1][0]) == 2.0


def test_phi_rejects_grid_below_support(capsys, ub_model_file):
    code, _, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file,
        "phi", "--q-min", "-2.5", "--q-max", "1.0"])
    assert code == 2
    assert "p_lower" in err


def test_phi_monte_carlo_names_a_non_finite_entry_in_floats(
        capsys, dyadic_model_file):
    code, _, err = run_cli(capsys, [
        "--seed", "1", "--model", dyadic_model_file, "phi", "--q-min=-1e300",
        "--q-max", "0", "--points", "2", "--mode", "monte_carlo"])
    assert code == 2
    assert "is not finite: (-inf, inf, -inf, nan)" in err
    assert "np.float64(" not in err


def test_phi_reports_geometric_base(capsys, dyadic_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "1", "--model", dyadic_model_file,
        "phi", "--q-min", "0.0", "--q-max", "1.0", "--points", "3"])
    assert code == 0
    header, _, _ = parse_csv(out)
    assert header["geometric_base"] == 2
    assert header["geometric_evidence"] == "exact"


def test_simulate_jsonl_schema(capsys, ub_model_file, tmp_path):
    out_path = tmp_path / "runs.jsonl"
    code, out, _ = run_cli(capsys, [
        "--seed", "11", "--model", ub_model_file, "--replicas", "3",
        "--out", str(out_path),
        "simulate", "--t-end", "1.5", "--eps-freeze", "1e-7",
        "--snapshots", "0.5,1.5"])
    assert code == 0
    assert out == ""  # everything went to the file
    header, rows = parse_jsonl(out_path.read_text())
    assert header["schema"] == "homfrag/1"
    assert header["snapshots"] == [0.5, 1.5]
    assert len(rows) == 6  # 3 replicas x 2 snapshot times
    for row in rows:
        assert set(row) == {"t", "log_masses", "frozen_mass", "epsilon", "seed"}
        assert row["epsilon"] == 1e-7
        assert all(lm <= 0.0 for lm in row["log_masses"])


_PHI_ARGV = ["phi", "--q-min", "0", "--q-max", "1", "--points", "3"]


@pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
def test_an_unwritable_out_exits_2_and_leaves_no_file(capsys, ub_model_file,
                                                      tmp_path, where):
    target = tmp_path / "no" / "such" / "x.csv"
    if where == "a_directory":
        target = tmp_path / "adir"
        target.mkdir()
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file, "--out", str(target)]
        + _PHI_ARGV)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before  # no partial or temporary file


def test_out_replaces_a_file_whole_and_keeps_its_mode(capsys, ub_model_file,
                                                      tmp_path):
    argv = ["--seed", "1", "--model", ub_model_file] + _PHI_ARGV
    code, text, _ = run_cli(capsys, argv)
    assert code == 0
    target = tmp_path / "phi.csv"
    target.write_text("stale\n" * 1000)
    target.chmod(0o640)
    code, out, err = run_cli(capsys, argv[:4] + ["--out", str(target)]
                             + argv[4:])
    assert (code, out, err) == (0, "", "")
    assert target.read_text() == text
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["phi.csv", "ub.json"]


def test_out_to_a_pipe_is_written_in_place(capsys, ub_model_file, tmp_path):
    argv = ["--seed", "1", "--model", ub_model_file] + _PHI_ARGV
    code, text, _ = run_cli(capsys, argv)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the write opens
    try:
        code, out, err = run_cli(capsys, argv[:4] + ["--out", str(fifo)]
                                 + argv[4:])
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISFIFO(fifo.stat().st_mode)  # not renamed over
        assert os.read(reader, 1 << 16).decode() == text
    finally:
        os.close(reader)


def test_partition_jsonl(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "12", "--model", ub_model_file, "--replicas", "2",
        "partition", "--n", "6", "--t-end", "1.5"])
    assert code == 0
    header, rows = parse_jsonl(out)
    assert header["n"] == 6
    starts = header["replica_row_start"]
    assert len(starts) == 2 and starts[0] == 0 and starts[0] <= starts[1]
    assert len(rows) >= 1
    for row in rows:
        assert set(row) == {"t", "block_of"}
        labels = row["block_of"]
        assert len(labels) == 6
        assert labels[0] == 0  # labels appear in first-use order
        assert max(labels) + 1 == len(set(labels))


def test_subordinator_csv(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "13", "--model", ub_model_file, "--replicas", "4",
        "subordinator", "--t-end", "2.0"])
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert header["rate"] == 1.0
    assert columns == ["replica", "jump_time", "jump_size"]
    for row in rows:
        rep, jt, js = int(row[0]), float(row[1]), float(row[2])
        assert 0 <= rep < 4 and 0.0 < jt <= 2.0 and js > 0.0


SUBORDINATOR_MODELS = {
    "uniform": UniformBinaryModel(),
    "uniform_eps0.1": UniformBinaryModel(epsilon=0.1),
    "power_tail_gamma1": PowerTailBinaryModel(epsilon=0.02, gamma=1.0),
    "power_tail_gamma1.5": PowerTailBinaryModel(epsilon=0.02, gamma=1.5),
    "dyadic": AtomicModel([([0.5, 0.5], 1.0)]),
    "ternary_binary": AtomicModel([([0.5, 0.3, 0.2], 1.0), ([0.6, 0.4], 2.0)]),
}


def _subordinator_oracle(model, seed, replicas, t_end, event_log):
    """subordinator's stdout from one simulate_event_log walk per replica,
    its JSON encoded by json.dumps."""
    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    header = {"schema": "homfrag/1", "command": "subordinator", "seed": seed,
              "replicas": replicas, "model": model_to_json(model),
              "t_end": t_end, "rate": model.total_rate}
    if event_log:
        header["stream"] = "event_log"
        lines = [dumps(header)]
    else:
        lines = ["# " + dumps(header), "replica,jump_time,jump_size"]
    for i in range(replicas):
        log = simulate_event_log(model, t_end, replica_key(seed, i))
        if event_log:
            lines += [dumps({"replica": i, "t": t, "masses": list(part.masses),
                             "pick": j})
                      for t, part, j in zip(log.jump_times, log.partitions,
                                            log.picks)]
        else:
            lines += [f"{i},{t!r},{s!r}"
                      for t, s in zip(log.jump_times, log.jump_sizes)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("event_log", [False, True])
@pytest.mark.parametrize("name", sorted(SUBORDINATOR_MODELS))
def test_subordinator_bytes_equal_the_per_replica_walks(capsys, tmp_path, name,
                                                        event_log):
    model = SUBORDINATOR_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    for seed in (5, 2**64 - 1):
        for t_end in (0.0, 1.0, 4.0):
            for replicas in (1, 3, 200):
                code, out, err = run_cli(capsys, [
                    "--seed", str(seed), "--model", str(path),
                    "--replicas", str(replicas), "subordinator",
                    "--t-end", repr(t_end)] + ["--event-log"] * event_log)
                assert (code, err) == (0, "")
                assert out == _subordinator_oracle(model, seed, replicas,
                                                   t_end, event_log)


def test_subordinator_on_a_dust_model_exits_2_exactly_when_a_line_has_an_event(
        capsys, tmp_path):
    dust = AtomicModel([([0.5, 0.3], 1.0)])
    path = tmp_path / "dust.json"
    path.write_text(json.dumps(model_to_json(dust)))
    codes = set()
    for seed in range(10):
        for t_end in (0.0, 0.2, 1.0):
            for replicas in (1, 3):
                # a line's first wait is its stream's first draw
                event = any(
                    Stream(derive_key(replica_key(seed, i), 0)).exponential(
                        dust.total_rate) <= t_end for i in range(replicas))
                for event_log in ([], ["--event-log"]):
                    code, out, err = run_cli(capsys, [
                        "--seed", str(seed), "--model", str(path),
                        "--replicas", str(replicas), "subordinator",
                        "--t-end", repr(t_end)] + event_log)
                    assert code == (2 if event else 0)
                    assert ("conservative model" in err) == event
                    codes.add(code)
    assert codes == {0, 2}


@pytest.mark.parametrize("argv", [
    ["subordinator", "--t-end", "1e300"],
    ["subordinator", "--t-end", "1e300", "--event-log"],
    ["spine", "--p", "0.5", "--t-end", "1e300"],
])
def test_a_horizon_past_the_event_budget_exits_3(capsys, ub_model_file, argv):
    code, out, err = run_cli(capsys, ["--seed", "3", "--model", ub_model_file]
                             + argv)
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded:")


def test_subordinator_event_log_and_thin(capsys, ub_model_file, tmp_path):
    log_path = tmp_path / "events.jsonl"
    code, _, _ = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file, "--replicas", "5",
        "--out", str(log_path),
        "subordinator", "--t-end", "3.0", "--event-log"])
    assert code == 0
    header, records = parse_jsonl(log_path.read_text())
    assert header["stream"] == "event_log"
    for rec in records:
        assert set(rec) == {"replica", "t", "masses", "pick"}
        assert 0 <= rec["pick"] < len(rec["masses"])

    code, out, _ = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file,
        "thin", "--p", "1.0", "--input", str(log_path)])
    assert code == 0
    t_header, t_rows = parse_jsonl(out)
    assert t_header["stream"] == "event_log_thinned"
    assert t_header["expected_kept_fraction"] == pytest.approx(2.0 / 3.0)
    assert t_header["kept_rate"] == pytest.approx(2.0 / 3.0)
    assert len(t_rows) == len(records)
    assert all(isinstance(r["kept"], bool) for r in t_rows)
    kept_frac = sum(r["kept"] for r in t_rows) / len(t_rows)
    assert t_header["observed_kept_fraction"] == pytest.approx(kept_frac)


@pytest.mark.parametrize("name", ["uniform", "ternary_binary"])
def test_partition_rows_are_the_dumps_of_their_dicts(capsys, tmp_path, name):
    model = SUBORDINATOR_MODELS[name]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    for seed in (1, 2**64 - 1):
        for n, t_end, replicas in ((1, "1", 2), (6, "2", 3), (40, "inf", 1),
                                   (500, "8", 1), (1001, "inf", 2)):
            code, out, _ = run_cli(capsys, [
                "--seed", str(seed), "--model", str(path),
                "--replicas", str(replicas),
                "partition", "--n", str(n), "--t-end", t_end])
            assert code == 0
            expected = [
                cli_module._dumps({"t": t, "block_of":
                                   PartitionOfN(labels).assignment.tolist()})
                for i in range(replicas)
                for t, labels in simulate_partition(
                    model, n, float(t_end), replica_key(seed, i)).refinements()]
            assert out.split("\n")[1:-1] == expected


def test_thin_rejects_non_event_log_input(capsys, ub_model_file, tmp_path):
    other = tmp_path / "snapshots.jsonl"
    code, _, _ = run_cli(capsys, [
        "--seed", "15", "--model", ub_model_file, "--out", str(other),
        "simulate", "--t-end", "1.0", "--eps-freeze", "1e-7"])
    assert code == 0
    code, _, err = run_cli(capsys, [
        "--seed", "15", "--model", ub_model_file,
        "thin", "--p", "1.0", "--input", str(other)])
    assert code == 2
    assert "subordinator --event-log" in err


def test_thin_rejects_negative_exponent(capsys, ub_model_file, tmp_path):
    code, _, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file,
        "thin", "--p", "-1.0", "--input", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "p >= 0" in err


def test_martingale_headers(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "16", "--model", ub_model_file, "--replicas", "60",
        "martingale", "--kind", "additive", "--p", "0.5",
        "--t-grid", "0.5,1.0", "--eps-freeze", "1e-7"])
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert header["expected_mean"] == 1.0 and header["p"] == 0.5
    assert columns == ["t", "mean", "stderr", "frozen_mass_mean"]
    assert len(rows) == 2
    assert abs(float(rows[1][1]) - 1.0) < 0.5

    code, out, _ = run_cli(capsys, [
        "--seed", "17", "--model", ub_model_file, "--replicas", "40",
        "martingale", "--kind", "derivative", "--t-grid", "0.5",
        "--eps-freeze", "1e-7"])
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["expected_mean"] == 0.0
    assert header["p_bar"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert len(rows) == 1

    code, out, _ = run_cli(capsys, [
        "--seed", "18", "--model", ub_model_file, "--replicas", "40",
        "martingale", "--kind", "truncated", "--a", "1.5",
        "--t-grid", "0.5", "--eps-freeze", "1e-7"])
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["expected_mean"] == 1.5 and header["a"] == 1.5


def test_martingale_requires_positive_barrier(capsys, ub_model_file):
    code, _, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file,
        "martingale", "--kind", "truncated", "--a", "-1.0",
        "--t-grid", "1.0", "--eps-freeze", "1e-7"])
    assert code == 2
    assert "barrier level" in err


def test_spine_header(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "19", "--model", ub_model_file, "--replicas", "40",
        "spine", "--p", "1.0", "--t-end", "1.0"])
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert header["tilted_rate"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert header["weight_mean"] == 1.0  # exact for p >= 0
    assert header["weight_ess"] == 40.0  # every weight is 1
    assert header["shed_fragments_mean"] >= 0.0
    assert columns == ["replica", "jump_time", "jump_size", "spine_log_mass"]


def test_spine_weight_ess_collapses_near_p_lower(capsys, ub_model_file):
    # at p = -1.9 (p_lower = -2) a few paths carry most of the weight
    code, out, _ = run_cli(capsys, [
        "--seed", "19", "--model", ub_model_file, "--replicas", "200",
        "spine", "--p", "-1.9", "--t-end", "1.0"])
    assert code == 0
    header, _, _ = parse_csv(out)
    assert 1.0 <= header["weight_ess"] < 20.0


def test_a_negative_value_in_exponent_form_needs_the_equals_sign(
        capsys, ub_model_file):
    # argparse takes "-0.5" as a value but reads "-5e-1" as an option:
    # "--p=-5e-1" passes it, and "--p -5e-1" is a usage error
    argv = ["--seed", "5", "--model", ub_model_file, "--replicas", "3"]
    code, want, err = run_cli(capsys, argv + [
        "spine", "--p", "-0.5", "--t-end", "2"])
    assert (code, err) == (0, "")
    assert run_cli(capsys, argv + ["spine", "--p=-5e-1", "--t-end", "2"]) == (
        0, want, "")
    for command in (["spine", "--p", "-5e-1", "--t-end", "2"],
                    ["phi", "--q-min", "-1.5e0", "--q-max", "2"]):
        # the interpreter exits with a SystemExit's code and no traceback
        with pytest.raises(SystemExit) as exit_:
            main(argv + command)
        out, err = capsys.readouterr()
        assert (exit_.value.code, out) == (2, "")
        assert "expected one argument" in err and "Traceback" not in err


@pytest.mark.parametrize("mode, problem", [
    ("quadrature", "atomic model has no density to integrate; use auto, "
     "closed_form or monte_carlo mode"),
    # an atomic model stripped of its closed form has neither hook
    ("auto", "atomic model supports neither closed-form nor quadrature phi; "
     "use monte_carlo mode"),
])
def test_phi_mode_without_its_hook_exits_2(capsys, monkeypatch,
                                           dyadic_model_file, mode, problem):
    if mode == "auto":
        monkeypatch.setattr(AtomicModel, "phi_closed", lambda self, q: None)
    code, out, err = run_cli(capsys, [
        "--seed", "1", "--model", dyadic_model_file, "phi", "--q-min", "0",
        "--q-max", "1", "--mode", mode])
    assert (code, out, err) == (2, "", f"error: NotComputableError: {problem}\n")


def test_spine_population_means_in_the_header(capsys, ub, ub_model_file):
    argv = ["--seed", "7", "--model", ub_model_file, "--replicas", "20",
            "spine", "--p", "0.5", "--t-end", "4"]
    code, plain, _ = run_cli(capsys, argv)
    assert code == 0
    code, out, _ = run_cli(capsys, argv + ["--eps-freeze", "0.01"])
    assert code == 0
    header, columns, rows = parse_csv(out)
    pops = [walk_oracle.population(
        ub, 4.0, 0.01, simulate_spine(ub, 0.5, 4.0, replica_key(7, i)))
        for i in range(20)]
    assert header["eps_freeze"] == 0.01
    assert header["population_live_mean"] == sum(p.n_live for p in pops) / 20
    assert header["population_frozen_mass_mean"] == (
        reduce(add, (p.frozen_mass for p in pops)) / 20)
    assert header["population_events_mean"] == (
        sum(p.event_count for p in pops) / 20)
    assert header["population_live_mean"] > 1.0
    assert header["population_frozen_mass_mean"] > 0.0
    # the rows are the spine's, with or without its population
    assert out.split("\n")[1:] == plain.split("\n")[1:]
    plain_header, _, _ = parse_csv(plain)
    assert not {k for k in plain_header if k.startswith("population")}
    assert "eps_freeze" not in plain_header


def test_spine_population_needs_eps(capsys, tmp_path, ub, ub_model_file):
    # --eps-freeze alone grows the population: the old switch is unknown, as
    # a flag and as a config param
    with pytest.raises(SystemExit) as exit_:
        main(["--seed", "1", "--model", ub_model_file, "spine", "--p", "1.0",
              "--t-end", "1.0", "--with-population", "--eps-freeze", "0.01"])
    out, err = capsys.readouterr()
    assert (exit_.value.code, out) == (2, "")
    assert "unrecognized arguments: --with-population" in err
    assert "Traceback" not in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "spine", "seed": 1, "model": model_to_json(ub),
        "params": {"p": 1.0, "t_end": 1.0, "eps_freeze": 0.01,
                   "with_population": True}}))
    code, out, err = run_cli(capsys, ["--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == ("configuration errors:\n"
                   "  - unknown param 'with_population' for spine\n")


def test_ldp_presence_csv(capsys, ub_model_file):
    code, out, err = run_cli(capsys, [
        "--seed", "20", "--model", ub_model_file, "--replicas", "100",
        "--strict",
        "ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2",
        "--t-grid", "1.0,2.0", "--eps-freeze", "1e-8"])
    assert code == 0  # Gaussian regime, non-lattice model: no warnings
    header, columns, rows = parse_csv(out)
    assert header["estimator"] == "presence"
    assert header["limit_constant"] > 0.0
    assert columns == ["t", "x", "v_mean", "v_stderr", "v_predicted",
                       "v_scaled", "u_mean", "u_stderr"]
    assert len(rows) == 2
    for row in rows:
        vals = dict(zip(columns, map(float, row)))
        assert vals["u_mean"] <= vals["v_mean"] + 1e-12


def test_ldp_ratio_csv(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "21", "--model", ub_model_file, "--replicas", "100",
        "ldp", "--p", "1.95", "--alpha", "-0.5", "--beta", "0.5",
        "--t-grid", "1.0,2.0", "--eps-freeze", "1e-8",
        "--estimator", "ratio", "--n-boot", "100"])
    assert code == 0
    header, columns, rows = parse_csv(out)
    assert header["slope_lo"] <= header["slope_hi"]
    assert math.isfinite(header["slope"])
    assert columns == ["t", "u", "u_stderr", "v", "v_stderr", "ratio",
                       "ratio_lo", "ratio_hi"]
    assert len(rows) == 2


def test_strict_turns_regime_warning_into_exit_4(capsys, ub_model_file,
                                                 dyadic_model_file):
    argv = ["--seed", "22", "--model", ub_model_file, "--replicas", "30",
            "ldp", "--p", "1.9", "--alpha", "-0.5", "--beta", "0.5",
            "--t-grid", "1.0", "--eps-freeze", "1e-7"]
    code, _, err = run_cli(capsys, argv)
    assert code == 0
    assert "regime warning" in err
    code, _, _ = run_cli(capsys, ["--strict"] + argv)
    assert code == 4

    # lattice models trip the geometric-support warning as well
    code, _, err = run_cli(capsys, [
        "--strict", "--seed", "23", "--model", dyadic_model_file,
        "--replicas", "30",
        "ldp", "--p", "0.5", "--alpha", "-0.5", "--beta", "0.5",
        "--t-grid", "1.0", "--eps-freeze", "1e-7"])
    assert code == 4
    assert "lattice" in err


def test_budget_exceeded_exit_3(capsys, ub_model_file):
    code, _, err = run_cli(capsys, [
        "--seed", "24", "--model", ub_model_file,
        "simulate", "--t-end", "6.0", "--eps-freeze", "1e-9",
        "--max-fragments", "10"])
    assert code == 3
    assert "budget exceeded" in err


def test_ldp_budget_counts_only_fragments_above_the_window_floor(
        capsys, ub_model_file):
    # 25 runs to t = 4 at eps_freeze 1e-8 exceed 200 fragments, but ldp grows
    # only the fragments that can reach the window; the bytes are those of
    # an unbudgeted run, header included (it keeps the caller's eps_freeze)
    argv = ["--seed", "5", "--model", ub_model_file, "--replicas", "25",
            "ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2",
            "--t-grid", "4", "--eps-freeze", "1e-8"]
    code, out, err = run_cli(capsys, argv + ["--max-fragments", "200"])
    assert code == 0, err
    assert parse_csv(out)[0]["eps_freeze"] == 1e-8
    assert run_cli(capsys, argv) == (0, out, err)
    code, _, err = run_cli(capsys, argv + ["--max-fragments", "2"])
    assert code == 3
    assert "budget exceeded" in err


def test_config_file_merge_and_override(capsys, tmp_path, ub):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "command": "phi", "seed": 5, "model": model_to_json(ub),
        "params": {"q_min": 0.5, "q_max": 1.5, "points": 3}}))
    code, out, _ = run_cli(capsys, ["--config", str(cfg)])
    assert code == 0
    header, _, rows = parse_csv(out)
    assert header["seed"] == 5 and len(rows) == 3

    code, out, _ = run_cli(capsys, ["--config", str(cfg), "--seed", "9"])
    assert code == 0
    header, _, _ = parse_csv(out)
    assert header["seed"] == 9  # flags win over the config file


def test_output_bytes_independent_of_threads(capsys, ub_model_file, tmp_path):
    texts = []
    for threads in ("1", "4"):
        path = tmp_path / f"mart-{threads}.csv"
        code, _, _ = run_cli(capsys, [
            "--seed", "25", "--model", ub_model_file, "--replicas", "16",
            "--threads", threads, "--out", str(path),
            "martingale", "--kind", "additive", "--p", "1.0",
            "--t-grid", "0.5,1.0", "--eps-freeze", "1e-7"])
        assert code == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]

    texts = []
    for threads in ("1", "4"):
        path = tmp_path / f"sim-{threads}.jsonl"
        code, _, _ = run_cli(capsys, [
            "--seed", "26", "--model", ub_model_file, "--replicas", "8",
            "--threads", threads, "--out", str(path),
            "simulate", "--t-end", "2.0", "--eps-freeze", "1e-7"])
        assert code == 0
        texts.append(path.read_bytes())
    assert texts[0] == texts[1]


def test_phi_monte_carlo_cells_parse_as_floats(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "27", "--model", ub_model_file,
        "phi", "--q-min", "0", "--q-max", "2", "--points", "3",
        "--mode", "monte_carlo"])
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert len(row) == len(columns)
        for cell in row:
            float(cell)


RATIO_ARGS = ["ldp", "--estimator", "ratio", "--p", "2.0", "--alpha", "-0.2",
              "--beta", "0.2", "--eps-freeze", "1e-8"]


def test_ldp_ratio_needs_two_grid_times(capsys, ub_model_file):
    for grid in ("2.0", "2.0,2.0"):
        code, out, err = run_cli(capsys, [
            "--seed", "28", "--model", ub_model_file, "--replicas", "5"]
            + RATIO_ARGS + ["--t-grid", grid])
        assert code == 2
        assert out == ""
        assert "two or more distinct --t-grid times" in err


def test_ldp_ratio_with_an_always_empty_window_exits_2(capsys,
                                                       ub_model_file):
    # the window [x + 5, x + 6] lies above log mass 0 at t = 1 and 2 (x is
    # -t/8 at p = 2), so no fragment of any replica reaches it
    code, out, err = run_cli(capsys, [
        "--seed", "7", "--model", ub_model_file, "--replicas", "3", "ldp",
        "--estimator", "ratio", "--p", "2.0", "--alpha", "5", "--beta", "6",
        "--eps-freeze", "1e-8", "--t-grid", "1,2"])
    assert code == 2
    assert out == ""
    assert "no U/V ratio at t = [1.0, 2.0]" in err
    assert "Traceback" not in err


# at t = 0.25 no replica has a fragment in the window; on the first grid the
# last two times have some, so the slope exists but that row's ratio would be
# NaN, and on the second t = 0.25 is one of the slope's two times
@pytest.mark.parametrize("t_grid", ["1,1.25,0.25", "1,0.25"])
def test_ldp_ratio_with_an_empty_window_before_the_slope_exits_2(
        capsys, tmp_path, t_grid):
    model = tmp_path / "tb.json"
    model.write_text(json.dumps({"kind": "atomic", "atoms": [
        [[0.5, 0.3, 0.2], 1.0], [[0.6, 0.4], 2.0]]}))
    code, out, err = run_cli(capsys, [
        "--seed", "0", "--model", str(model), "--replicas", "3", "ldp",
        "--estimator", "ratio", "--p", "0", "--alpha", "-1", "--beta", "0.5",
        "--t-grid", t_grid, "--eps-freeze", "0.0625"])
    assert code == 2
    assert out == ""
    assert "no U/V ratio at t = [0.25]" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["martingale", "--kind", "additive", "--p", "0.5", "--t-grid", "1",
     "--eps-freeze", "1e-3"],
    ["ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2", "--t-grid", "1",
     "--eps-freeze", "1e-3"],
])
def test_standard_errors_need_two_replicas(capsys, ub_model_file, args):
    code, out, err = run_cli(capsys, [
        "--seed", "3", "--model", ub_model_file, "--replicas", "1"] + args)
    assert code == 2
    assert out == ""
    assert "NotComputableError" in err and "two replicas" in err
    assert "Traceback" not in err


def test_ldp_ratio_runs_on_the_requested_threads(capsys, ub_model_file,
                                                 monkeypatch):
    import homfrag.ranked as ranked
    seen = []
    runner = ranked.map_replicas

    def spy(fn, n_chunks, threads):
        seen.append(threads)
        return runner(fn, n_chunks, threads)

    monkeypatch.setattr(ranked, "map_replicas", spy)
    outs = []
    for threads in ("1", "2"):
        code, out, _ = run_cli(capsys, [
            "--seed", "31", "--model", ub_model_file, "--replicas", "30",
            "--threads", threads] + RATIO_ARGS
            + ["--t-grid", "1,2", "--n-boot", "50"])
        assert code == 0
        outs.append(out)
    assert seen == [1, 2]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("args, problem", [
    (["simulate", "--t-end", "-1", "--eps-freeze", "1e-3"],
     "t_end must be finite and >= 0"),
    (["simulate", "--t-end", "2", "--eps-freeze", "1e-3", "--snapshots", "3"],
     "snapshots must lie in [0, t_end = 2.0]"),
    (["simulate", "--t-end", "2", "--eps-freeze", "1e-3", "--snapshots",
      "1,-0.5"], "snapshots must lie in [0, t_end = 2.0]"),
    (["partition", "--n", "5", "--t-end", "-1"], "t_end must be finite and >= 0"),
    (["subordinator", "--t-end", "-1"], "t_end must be finite and >= 0"),
    (["spine", "--p", "0.5", "--t-end", "-1"], "t_end must be finite and >= 0"),
    (["subordinator", "--t-end", "inf"], "t_end must be finite and >= 0"),
    (["spine", "--p", "0.5", "--t-end", "nan"], "t_end must be finite and >= 0"),
    (["martingale", "--kind", "additive", "--p", "0.5", "--t-grid", "1,-1",
      "--eps-freeze", "1e-3"], "t_grid times must be finite and >= 0"),
    (["ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2", "--t-grid",
      "2,-1", "--eps-freeze", "1e-3"], "t_grid times must be finite and >= 0"),
    (["martingale", "--kind", "derivative", "--t-grid", "1,inf",
      "--eps-freeze", "1e-3"], "t_grid times must be finite and >= 0"),
])
def test_times_out_of_range_exit_2(capsys, ub_model_file, args, problem):
    code, out, err = run_cli(capsys, [
        "--seed", "3", "--model", ub_model_file, "--replicas", "2"] + args)
    assert code == 2
    assert out == ""
    assert problem in err and "Traceback" not in err


def _subordinator_config(tmp_path, ub, seed):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "subordinator", "seed": seed,
                               "model": model_to_json(ub),
                               "params": {"t_end": 1.0}}))
    return str(cfg)


@pytest.mark.parametrize("args, problem", [
    (["spine", "--p", "nan", "--t-end", "1"], "p must be a finite number"),
    (["martingale", "--kind", "additive", "--p", "nan", "--t-grid", "1",
      "--eps-freeze", "1e-3"], "p must be a finite number"),
    (["martingale", "--kind", "truncated", "--a", "nan", "--t-grid", "1",
      "--eps-freeze", "1e-3"], "a must be a finite number"),
    (["martingale", "--kind", "truncated", "--a", "inf", "--t-grid", "1",
      "--eps-freeze", "1e-3"], "a must be a finite number"),
    (["thin", "--p", "nan", "--input", "events.jsonl"],
     "p must be a finite number"),
    (["ldp", "--p", "0.5", "--alpha", "nan", "--beta", "0.2", "--t-grid", "1",
      "--eps-freeze", "1e-3"], "alpha must be a finite number"),
    (["ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "inf", "--t-grid",
      "1", "--eps-freeze", "1e-3"], "beta must be a finite number"),
    (["phi", "--q-min", "nan", "--q-max", "1"],
     "q_min must be a finite number"),
    (["phi", "--q-min", "0", "--q-max", "inf"],
     "q_max must be a finite number"),
    (["ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2", "--t-grid",
      "1,2", "--eps-freeze", "1e-3", "--estimator", "ratio", "--n-boot", "-5"],
     "n_boot must be >= 1"),
    (["simulate", "--t-end", "1", "--eps-freeze", "1e-3", "--max-fragments",
      "0"], "max_fragments must be >= 1"),
    (["martingale", "--kind", "derivative", "--t-grid", "1", "--eps-freeze",
      "nan"], "eps_freeze must be in (0, 1)"),
    (["spine", "--p", "0.5", "--t-end", "1", "--eps-freeze", "2"],
     "eps_freeze must be in (0, 1)"),
    (["martingale", "--kind", "derivative", "--t-grid=", "--eps-freeze",
      "1e-3"], "t_grid needs one or more times"),
    (["simulate", "--t-end", "1", "--eps-freeze", "1e-3", "--snapshots="],
     "snapshots needs one or more times"),
    (["ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2", "--t-grid",
      "0,1", "--eps-freeze", "1e-3"], "ldp needs t_grid times > 0"),
])
def test_out_of_range_params_exit_2(capsys, ub_model_file, args, problem):
    code, out, err = run_cli(capsys, [
        "--seed", "3", "--model", ub_model_file, "--replicas", "2"] + args)
    assert code == 2
    assert out == ""
    assert problem in err and "Traceback" not in err


def test_partition_takes_an_infinite_horizon(capsys, ub_model_file):
    code, out, _ = run_cli(capsys, [
        "--seed", "3", "--model", ub_model_file,
        "partition", "--n", "6", "--t-end", "inf"])
    assert code == 0
    _, rows = parse_jsonl(out)
    assert rows[-1]["block_of"] == list(range(6))   # shattered into singletons


def test_a_boolean_seed_is_rejected(capsys, tmp_path, ub):
    code, out, err = run_cli(capsys, [
        "--config", _subordinator_config(tmp_path, ub, True)])
    assert code == 2
    assert out == ""
    assert "seed must be an integer, got True" in err


@pytest.mark.parametrize("seed", [-1, -5, 2**64, 2**64 + 5])
def test_seeds_outside_64_bits_are_rejected(capsys, tmp_path, ub,
                                            ub_model_file, seed):
    for argv in (["--seed", str(seed), "--model", ub_model_file,
                  "subordinator", "--t-end", "1"],
                 ["--config", _subordinator_config(tmp_path, ub, seed)]):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert "seed must be in [0, 2**64)" in err


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_the_ends_of_the_range_are_accepted(capsys, tmp_path, ub,
                                                     ub_model_file, seed):
    for argv in (["--seed", str(seed), "--model", ub_model_file,
                  "subordinator", "--t-end", "1"],
                 ["--config", _subordinator_config(tmp_path, ub, seed)]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, _, _ = parse_csv(out)
        assert header["seed"] == seed


def test_partition_rows_match_partition_at(capsys, ub_model_file, ub):
    code, out, _ = run_cli(capsys, [
        "--seed", "29", "--model", ub_model_file, "--replicas", "3",
        "partition", "--n", "60", "--t-end", "3.0"])
    assert code == 0
    header, rows = parse_jsonl(out)
    assert len(rows) > 0
    bounds = header["replica_row_start"] + [len(rows)]
    for i in range(3):
        path = simulate_partition(ub, 60, 3.0, replica_key(29, i))
        chunk = rows[bounds[i]:bounds[i + 1]]
        assert len(chunk) == len(path.events)
        for row in chunk:
            assert row["block_of"] == path.partition_at(row["t"]).assignment.tolist()


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


SUBCOMMAND_RUNS = {
    "phi": ["phi", "--q-min", "0", "--q-max", "3", "--points", "4"],
    "simulate": ["simulate", "--t-end", "2", "--eps-freeze", "1e-3",
                 "--snapshots", "1,2"],
    "partition": ["partition", "--n", "20", "--t-end", "2"],
    "subordinator": ["subordinator", "--t-end", "2"],
    "martingale": ["martingale", "--kind", "derivative", "--t-grid", "1,2",
                   "--eps-freeze", "1e-5"],
    "spine": ["spine", "--p", "-0.5", "--t-end", "2"],
    "thin": ["thin", "--p", "1"],
    "ldp": ["ldp", "--p", "0.5", "--alpha", "-0.2", "--beta", "0.2",
            "--t-grid", "1,2", "--eps-freeze", "1e-6"],
}


def _subcommand_run(capsys, ub_model_file, tmp_path, command):
    """SUBCOMMAND_RUNS[command], with an event log to read for thin."""
    args = SUBCOMMAND_RUNS[command]
    if command == "thin":
        events = tmp_path / "events.jsonl"
        code, _, _ = run_cli(capsys, [
            "--seed", "30", "--model", ub_model_file, "--replicas", "4",
            "--out", str(events), "subordinator", "--t-end", "2",
            "--event-log"])
        assert code == 0
        args = args + ["--input", str(events)]
    return args


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_subcommand_output_is_well_formed(capsys, ub_model_file, tmp_path,
                                          command):
    """Exit 0, no traceback, strict JSON, and CSV cells that parse as floats."""
    args = _subcommand_run(capsys, ub_model_file, tmp_path, command)
    code, out, err = run_cli(capsys, [
        "--seed", "30", "--model", ub_model_file, "--replicas", "4"] + args)
    assert code == 0
    assert "Traceback" not in err
    assert out.endswith("\n")
    lines = out[:-1].split("\n")
    if lines[0].startswith("# "):
        _strict_json(lines[0][2:])
        columns = lines[1].split(",")
        assert len(lines) > 2
        for line in lines[2:]:
            cells = line.split(",")
            assert len(cells) == len(columns)
            for cell in cells:
                float(cell)
    else:
        _strict_json(lines[0])
        assert len(lines) > 1
        for line in lines[1:]:
            _strict_json(line)


def _json_value(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_flags_and_config_file_give_the_same_bytes(capsys, ub, ub_model_file,
                                                   tmp_path, command):
    """A run given as flags and as a config file goes through one path."""
    args = _subcommand_run(capsys, ub_model_file, tmp_path, command)
    code, by_flags, _ = run_cli(capsys, [
        "--seed", "30", "--model", ub_model_file, "--replicas", "4"] + args)
    assert code == 0
    # numbers as JSON writes them: "--t-end 2" becomes the integer 2
    params = {}
    for flag, text in zip(args[1::2], args[2::2]):
        name = flag[2:].replace("-", "_")
        want = cli_module._COMMAND_PARAMS[command][2][name].want
        params[name] = ([_json_value(t) for t in text.split(",")]
                        if want == cli_module.TIMES[0] else _json_value(text))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": command, "seed": 30, "replicas": 4,
                               "model": model_to_json(ub), "params": params}))
    code, by_config, _ = run_cli(capsys, ["--config", str(cfg)])
    assert code == 0
    assert by_config == by_flags


# one record appended to a valid event log, and a word of its problem
MALFORMED_EVENT_RECORDS = [
    ([1, 0.5, [0.6, 0.4], 0], "is not a JSON object"),
    ("text", "is not a JSON object"),
    ({"t": 0.5, "masses": [0.6, 0.4], "pick": 0}, "lacks replica"),
    ({"replica": 0, "masses": [0.6, 0.4]}, "lacks t, pick"),
    ({"replica": "0", "t": 0.5, "masses": [0.6, 0.4], "pick": 0},
     "replica must be an integer"),
    ({"replica": 1.5, "t": 0.5, "masses": [0.6, 0.4], "pick": 0},
     "replica must be an integer"),
    ({"replica": True, "t": 0.5, "masses": [0.6, 0.4], "pick": 0},
     "replica must be an integer"),
    ({"replica": 0, "t": 0.5, "masses": "0.6", "pick": 0},
     "masses must be a non-empty list"),
    ({"replica": 0, "t": 0.5, "masses": [0.6, 0.4], "pick": 2},
     "pick must index masses"),
    ({"replica": 0, "t": float("nan"), "masses": [0.6, 0.4], "pick": 0},
     "t must be a finite number"),
    ({"replica": 0, "t": "0.5", "masses": [0.6, 0.4], "pick": 0},
     "t must be a finite number"),
]


@pytest.mark.parametrize("record, problem", MALFORMED_EVENT_RECORDS)
def test_thin_rejects_malformed_event_records(capsys, ub_model_file, tmp_path,
                                              record, problem):
    log_path = tmp_path / "events.jsonl"
    code, _, _ = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file, "--replicas", "2",
        "--out", str(log_path), "subordinator", "--t-end", "1.0",
        "--event-log"])
    assert code == 0
    with open(log_path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    code, out, err = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file,
        "thin", "--p", "1.0", "--input", str(log_path)])
    assert code == 2
    assert out == ""
    assert "configuration errors" in err and problem in err
    assert "Traceback" not in err


# the header's t_end (None: no t_end), the record's t, and the problems
EVENT_LOG_TIMES = [
    ("NaN", 0.5, ["t_end must be a finite number >= 0, got nan"]),
    ('"1.0"', 0.5, ["t_end must be a finite number >= 0, got '1.0'"]),
    ("-1.0", 0.5, ["t_end must be a finite number >= 0, got -1.0"]),
    ("1" + "0" * 400, 0.5, ["t_end must be a finite number >= 0"]),
    ("true", 0.5, ["t_end must be a finite number >= 0, got True"]),
    (None, 0.5, ["event-log header lacks t_end"]),
    ("1.0", 1.5, ["record 1: t must lie in [0, t_end = 1.0], got 1.5"]),
    ("1.0", -0.5, ["record 1: t must lie in [0, t_end = 1.0], got -0.5"]),
    ("1", 1.5, ["record 1: t must lie in [0, t_end = 1], got 1.5"]),
    # a header problem and a record problem are reported together
    ("NaN", "1" + "0" * 400, ["t_end must be a finite number >= 0, got nan",
                              "record 1: t must be a finite number"]),
]


@pytest.mark.parametrize("t_end, record_t, problems", EVENT_LOG_TIMES)
def test_thin_checks_the_header_t_end_and_the_record_times(
        capsys, ub_model_file, tmp_path, t_end, record_t, problems):
    header = '{"rate": 1.0, "stream": "event_log"'
    if t_end is not None:
        header += f', "t_end": {t_end}'
    log_path = tmp_path / "events.jsonl"
    log_path.write_text(
        header + "}\n" + '{"replica": 0, "t": ' + str(record_t)
        + ', "masses": [0.6, 0.4], "pick": 0}\n')
    code, out, err = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file,
        "thin", "--p", "1.0", "--input", str(log_path)])
    assert code == 2
    assert out == ""
    assert "configuration errors" in err
    assert all(problem in err for problem in problems)
    assert "Traceback" not in err


def test_thin_keeps_records_at_both_ends_of_the_horizon(capsys, ub_model_file,
                                                        tmp_path):
    log_path = tmp_path / "events.jsonl"
    log_path.write_text(
        json.dumps({"t_end": 1.0, "rate": 1.0, "stream": "event_log"}) + "\n"
        + "".join(json.dumps({"replica": 0, "t": t, "masses": [0.6, 0.4],
                              "pick": 0}) + "\n" for t in (0.0, 1.0)))
    code, out, _ = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file,
        "thin", "--p", "1.0", "--input", str(log_path)])
    assert code == 0
    header, rows = parse_jsonl(out)
    assert header["t_end"] == 1.0
    assert [row["t"] for row in rows] == [0.0, 1.0]


def test_thin_rejects_unranked_masses(capsys, ub_model_file, tmp_path):
    # thin's records come from outside: each split is checked again
    log_path = tmp_path / "events.jsonl"
    log_path.write_text(
        json.dumps({"t_end": 1.0, "rate": 1.0, "stream": "event_log"}) + "\n"
        + json.dumps({"replica": 0, "t": 0.5, "masses": [0.4, 0.6],
                      "pick": 0}) + "\n")
    code, out, err = run_cli(capsys, [
        "--seed", "14", "--model", ub_model_file,
        "thin", "--p", "1.0", "--input", str(log_path)])
    assert code == 2
    assert out == ""
    assert ("event-log record 1: masses must be positive, ranked and sum to "
            "at most 1, got [0.4, 0.6]") in err
    assert "Traceback" not in err


def test_memoised_phi_leaves_martingale_bytes_unchanged(capsys, tmp_path,
                                                        monkeypatch):
    from homfrag.analytics import PhiEvaluator
    from homfrag.measures import PowerTailBinaryModel

    model_file = tmp_path / "ptail.json"
    model_file.write_text(json.dumps({
        "kind": "truncated", "family": "power_tail_binary", "epsilon": 0.2}))
    quadratures = []
    quadrature = PowerTailBinaryModel.phi_quadrature

    def counted(self, q):
        quadratures.append(q)
        return quadrature(self, q)

    monkeypatch.setattr(PowerTailBinaryModel, "phi_quadrature", counted)

    def outputs():
        outs = []
        for kind in (["additive", "--p", "0.5"], ["derivative"],
                     ["truncated", "--a", "1.0"]):
            code, out, _ = run_cli(capsys, [
                "--seed", "23", "--model", str(model_file), "--replicas", "30",
                "martingale", "--kind"] + kind + [
                "--t-grid", "0.5,1.5", "--eps-freeze", "1e-4"])
            assert code == 0
            outs.append(out)
        return outs

    memoised = outputs()
    memoised_calls = len(quadratures)
    monkeypatch.setattr(PhiEvaluator, "_values",
                        lambda self, q, error=False: self._compute(q))
    quadratures.clear()
    assert outputs() == memoised
    assert memoised_calls < len(quadratures)


# --- every subcommand under generated flags ----------------------------------

_FUZZ_MODELS = {
    "ub": {"kind": "uniform_binary"},
    "tb": {"kind": "atomic",
           "atoms": [[[0.5, 0.3, 0.2], 1.0], [[0.6, 0.4], 2.0]]},
}
# malformed model files, drawn now and then: each run must exit 2
_BAD_FUZZ_MODELS = {f"bad{i}": obj
                    for i, obj in enumerate(MALFORMED_MODEL_FILES)}
# flags whose value must be a finite number
_FINITE_FLAGS = ("--p", "--a", "--alpha", "--beta", "--q-min", "--q-max")


def _rarely(usual, odd):
    """usual nine times in ten, odd otherwise."""
    # not on 0 or 9: the generator leans toward the ends of a range
    return st.integers(0, 9).flatmap(lambda k: odd if k == 5 else usual)


def _number(lo, hi):
    """A float flag value in [lo, hi], now and then a non-finite one."""
    return _rarely(st.floats(lo, hi).map(repr),
                   st.sampled_from(["nan", "inf", "-inf"]))


def _wide(number):
    """number, now and then replaced by a finite value of any magnitude."""
    return _rarely(number, st.floats(-1e308, 1e308).map(repr))


_TIME = _rarely(st.floats(0.0, 2.0).map(repr),
                st.sampled_from(["-0.5", "nan", "inf", "-inf"]))
_EPS = _rarely(st.floats(1e-3, 0.5).map(repr),
               st.sampled_from(["nan", "inf", "0", "-1", "1", "2"]))
_GRID = _rarely(st.lists(st.floats(0.0, 2.0).map(repr), min_size=1,
                         max_size=3),
                st.lists(_number(-1.0, 2.0), max_size=3)).map(",".join)
_BUDGET = _rarely(st.integers(1, 3000), st.integers(-1, 0)).map(str)
_SWITCH = st.none()
# per subcommand: (flags always given, flags given or not)
_FUZZ_FLAGS = {
    "phi": ({"--q-min": _wide(_number(-3, 0.5)),
             "--q-max": _wide(_number(0.6, 3))},
            {"--points": _rarely(st.integers(2, 6),
                                 st.integers(-1, 1)).map(str),
             "--mode": st.sampled_from(["auto", "closed_form", "quadrature",
                                        "monte_carlo"])}),
    "simulate": ({"--t-end": _TIME, "--eps-freeze": _EPS},
                 {"--snapshots": _GRID, "--max-fragments": _BUDGET}),
    "partition": ({"--n": st.integers(-1, 30).map(str),
                   "--t-end": _TIME}, {}),
    "subordinator": ({"--t-end": _TIME},
                     {"--event-log": _SWITCH}),
    "martingale": ({"--kind": st.sampled_from(["additive", "derivative",
                                               "truncated"]),
                    "--t-grid": _GRID, "--eps-freeze": _EPS},
                   {"--p": _number(-3, 3), "--a": _number(-1, 3),
                    "--max-fragments": _BUDGET}),
    "spine": ({"--p": _number(-3, 3), "--t-end": _TIME},
              {"--eps-freeze": _EPS}),
    "thin": ({"--p": _number(-1, 3),
              "--input": st.sampled_from(["events.jsonl", "missing.jsonl"])},
             {}),
    "ldp": ({"--p": _number(-3, 3), "--alpha": _number(-1, -0.05),
             "--beta": _number(0.05, 1), "--t-grid": _GRID,
             "--eps-freeze": _EPS},
            {"--estimator": st.sampled_from(["presence", "ratio"]),
             "--n-boot": _rarely(st.integers(1, 20),
                                 st.integers(-5, 0)).map(str),
             "--max-fragments": _BUDGET}),
}


def _must_reject(replicas, flags):
    """True when a flag value is one that validation must turn away."""
    def bad(flag, ok):
        return flag in flags and not ok(float(flags[flag]))
    return (replicas < 1
            or any(bad(f, math.isfinite) for f in _FINITE_FLAGS)
            or bad("--eps-freeze", lambda v: 0.0 < v < 1.0)
            or bad("--n-boot", lambda v: v >= 1)
            or bad("--max-fragments", lambda v: v >= 1))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Model files and an event log for thin, shared by every example."""
    d = tmp_path_factory.mktemp("fuzz")
    for name, obj in {**_FUZZ_MODELS, **_BAD_FUZZ_MODELS}.items():
        (d / f"{name}.json").write_text(json.dumps(obj))
    with redirect_stdout(io.StringIO()):
        assert main(["--seed", "8", "--model", str(d / "ub.json"),
                     "--replicas", "3", "--out", str(d / "events.jsonl"),
                     "subordinator", "--t-end", "2", "--event-log"]) == 0
    return d


@settings(max_examples=300, derandomize=True, deadline=None)
@given(command=st.sampled_from(sorted(_FUZZ_FLAGS)), data=st.data(),
       model=_rarely(st.sampled_from(sorted(_FUZZ_MODELS)),
                     st.sampled_from(sorted(_BAD_FUZZ_MODELS))),
       seed=st.integers(0, 2**64 - 1),
       replicas=_rarely(st.integers(1, 4), st.integers(-1, 0)),
       threads=st.sampled_from([1, 2]))
def test_every_subcommand_ends_cleanly(fuzz_dir, command, data, model, seed,
                                       replicas, threads):
    """A documented exit code, no traceback, finite CSV, strict JSON."""
    required, optional = _FUZZ_FLAGS[command]
    flags = data.draw(st.fixed_dictionaries(required, optional=optional))
    argv = ["--seed", str(seed), "--model", str(fuzz_dir / f"{model}.json"),
            "--replicas", str(replicas), "--threads", str(threads), command]
    for flag, value in flags.items():
        if flag == "--input":
            value = str(fuzz_dir / value)
        argv.append(flag if value is None else f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    if _must_reject(replicas, flags) or model in _BAD_FUZZ_MODELS:
        assert code == 2, (argv, err)
    if code != 0:
        return
    lines = out[:-1].split("\n")
    if lines[0].startswith("# "):
        _strict_json(lines[0][2:])
        for line in lines[2:]:
            for cell in line.split(","):
                assert math.isfinite(float(cell)), (argv, line)
    else:
        for line in lines:
            _strict_json(line)


# wrong types for a number: a string, a boolean, a list and null
_BAD_TYPES = ("1", True, [1.0], None)
_BAD_LIST_TYPES = ("0.5,1", True, ["1"], None)


# every (command, param) whose value is a number or a list of numbers
_NUMERIC_KINDS = ((cli_module.FLOAT, "float"), (cli_module.INT, "int"),
                  (cli_module.TIMES, "list"))
_NUMERIC_PARAMS = [
    (command, name, kind_name)
    for command, (_, _, params) in sorted(cli_module._COMMAND_PARAMS.items())
    for name, param in params.items()
    for kind, kind_name in _NUMERIC_KINDS if param.want == kind[0]]


def test_every_numeric_param_is_checked_for_wrong_types():
    assert len(_NUMERIC_PARAMS) == 26


@pytest.mark.parametrize("command,name,kind", _NUMERIC_PARAMS)
def test_config_params_of_the_wrong_type_exit_2(capsys, tmp_path, ub,
                                                command, name, kind):
    for bad in _BAD_LIST_TYPES if kind == "list" else _BAD_TYPES:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"command": command, "seed": 1,
                                   "model": model_to_json(ub),
                                   "params": {name: bad}}))
        code, out, err = run_cli(capsys, ["--config", str(cfg)])
        assert code == 2, (name, bad, err)
        assert out == ""
        assert f"{name} must be" in err, (name, bad, err)
        assert "Traceback" not in err


def _readme_param_defaults():
    """(subcommand, flag) -> default cell of the README's parameter table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[1].startswith("`--"):
            rows[cells[0].strip("`"), cells[1].strip("`")] = cells[4]
    return rows


def test_readme_parameter_table_matches_the_code():
    tables = [("(global)", cli_module._RUN_FIELDS)] + [
        (command, params)
        for command, (_, _, params) in cli_module._COMMAND_PARAMS.items()]
    expected = {}
    for command, params in tables:
        for name, param in params.items():
            default = param.default
            if isinstance(default, cli_module.Required):
                default = "required"
            elif default is False:
                default = "off"
            expected[command, "--" + name.replace("_", "-")] = default
    rows = _readme_param_defaults()
    assert rows.keys() == expected.keys()
    for key, default in expected.items():
        if default is not None:   # described in words in the README
            assert rows[key] == str(default), key


def test_config_switches_choices_and_run_fields_are_type_checked(
        capsys, tmp_path, ub):
    for extra, params, problem in (
            ({}, {"t_end": 1.0, "event_log": "yes"}, "event_log must be"),
            ({}, {"q_min": 0.0, "q_max": 1.0, "mode": 3}, "mode must be"),
            ({"replicas": True}, {"t_end": 1.0}, "replicas must be"),
            ({"strict": "no"}, {"t_end": 1.0}, "strict must be"),
            ({"out": 5}, {"t_end": 1.0}, "out must be"),
            ({}, [1.0], "params must be a JSON object")):
        command = "phi" if "q_min" in params else "subordinator"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict({"command": command, "seed": 1,
                                        "model": model_to_json(ub),
                                        "params": params}, **extra)))
        code, out, err = run_cli(capsys, ["--config", str(cfg)])
        assert code == 2, (extra, params, err)
        assert problem in err and "Traceback" not in err


def test_a_wrong_type_does_not_hide_missing_values(capsys, tmp_path, ub):
    for extra, params, wrong, missing in (
            ({"replicas": "2"}, {"t_end": 1.0},
             "replicas must be a positive integer, got '2'",
             "seed is required"),
            ({"seed": 1}, {"t_end": "1"}, "t_end must be a number, got '1'",
             None),
            ({"seed": 1, "command": "phi"}, {"q_min": "0"},
             "q_min must be a number, got '0'", "phi requires --q-max")):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(dict({"command": "subordinator",
                                        "model": model_to_json(ub),
                                        "params": params}, **extra)))
        code, out, err = run_cli(capsys, ["--config", str(cfg)])
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert f"  - {wrong}" in lines
        assert len(lines) == (2 if missing is None else 3)
        assert missing is None or lines[2].startswith(f"  - {missing}")


@pytest.mark.parametrize("command, params, problems", [
    ("spine", {"p": 10**400, "t_end": -1.0},
     ["p must be a finite number, got inf",
      "t_end must be finite and >= 0, got -1.0"]),
    ("spine", {"p": 0.5, "t_end": 10**400, "eps_freeze": -(10**400)},
     ["t_end must be finite and >= 0, got inf",
      "eps_freeze must be in (0, 1), got -inf"]),
    ("martingale", {"kind": "additive", "p": 0.5, "eps_freeze": 2.0,
                    "t_grid": [1.0, 10**400]},
     ["t_grid times must be finite and >= 0, got [1.0, inf]",
      "eps_freeze must be in (0, 1), got 2.0"]),
])
def test_config_ints_beyond_the_float_range_are_not_finite(
        capsys, tmp_path, ub, command, params, problems):
    # json reads 10**400 as an int, which float() cannot convert
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": command, "seed": 1,
                               "model": model_to_json(ub), "params": params}))
    code, out, err = run_cli(capsys, ["--config", str(cfg)])
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0] == "configuration errors:"
    assert sorted(lines[1:]) == sorted(f"  - {p}" for p in problems)


def test_the_parser_is_built_once():
    assert cli_module._build_parser() is cli_module._build_parser()


def test_overflowing_window_asymptote_exits_2(capsys, ub_model_file):
    # at p = -1.99 the Gaussian-regime scale exp(t (...)) overflows a float
    code, out, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file, "--replicas", "2",
        "ldp", "--p=-1.99", "--alpha=-0.2", "--beta", "0.2",
        "--t-grid", "1,2", "--eps-freeze", "0.01"])
    assert code == 2
    assert out == "" and "OverflowError" in err
    assert "Traceback" not in err


_CAPPED_MAIN = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from homfrag.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_request_too_large_to_allocate_exits_2(ub_model_file):
    # 2e8 points' split rates alone need 1.6 GB and their labels' text
    # ~11 GB; the child's address space is capped at 1 GiB, so the
    # allocation fails after the imports
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(Path(cli_module.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "--seed", "1", "--model",
         ub_model_file, "partition", "--n", "200000000", "--t-end", "1"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: MemoryError:")
    # a failed allocation carries no message: the line says what to lower
    assert proc.stderr.partition("error: MemoryError:")[2].strip()
    assert "Traceback" not in proc.stderr


def test_huge_q_exits_2(capsys, tmp_path, ub_model_file):
    code, out, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file,
        "phi", "--q-min", "0", "--q-max", "1e300"])
    assert code == 2
    assert out == "" and "NotComputableError" in err
    assert "Traceback" not in err
    dyadic = tmp_path / "dyadic.json"
    dyadic.write_text(json.dumps({"kind": "atomic", "atoms": [[[0.5, 0.5], 1.0]]}))
    for q_min, q_max in (("-1e308", "1e308"), ("1e10", "1.7e308")):
        code, out, err = run_cli(capsys, [
            "--seed", "1", "--model", str(dyadic),
            "phi", f"--q-min={q_min}", f"--q-max={q_max}", "--points", "6"])
        assert code == 2
        assert "q_max overflows" in err
