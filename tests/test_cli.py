"""End-to-end checks of the command-line interface."""

import json
import math

import pytest

from homfrag.cli import main
from homfrag.measures import model_to_json
from homfrag.partitions import simulate_partition
from homfrag.streams import replica_key


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


def test_invalid_model_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "no_such_family"}))
    code, _, err = run_cli(capsys, ["--seed", "1", "--model", str(bad),
                                    "phi", "--q-min", "0", "--q-max", "1"])
    assert code == 2
    assert "invalid model" in err


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
    assert header["shed_fragments_mean"] >= 0.0
    assert columns == ["replica", "jump_time", "jump_size", "spine_log_mass"]


def test_spine_population_needs_eps(capsys, ub_model_file):
    code, _, err = run_cli(capsys, [
        "--seed", "1", "--model", ub_model_file,
        "spine", "--p", "1.0", "--t-end", "1.0", "--with-population"])
    assert code == 2
    assert "eps-freeze" in err


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
    # the single replica has no fragment in the window at one of the two
    # times, so no bootstrap resample gives a finite ratio there
    code, out, err = run_cli(capsys, [
        "--seed", "7", "--model", ub_model_file, "--replicas", "1"]
        + RATIO_ARGS + ["--t-grid", "1,2"])
    assert code == 2
    assert out == ""
    assert "NotComputableError" in err and "Traceback" not in err


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


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_subcommand_output_is_well_formed(capsys, ub_model_file, tmp_path,
                                          command):
    """Exit 0, no traceback, strict JSON, and CSV cells that parse as floats."""
    args = SUBCOMMAND_RUNS[command]
    if command == "thin":
        events = tmp_path / "events.jsonl"
        code, _, _ = run_cli(capsys, [
            "--seed", "30", "--model", ub_model_file, "--replicas", "4",
            "--out", str(events), "subordinator", "--t-end", "2",
            "--event-log"])
        assert code == 0
        args = args + ["--input", str(events)]
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


@pytest.mark.parametrize("record, problem", [
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
])
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


def test_memoised_phi_leaves_martingale_bytes_unchanged(capsys, tmp_path,
                                                        monkeypatch):
    from homfrag.analytics import PhiEvaluator
    from homfrag.measures import PowerTailBinaryModel

    model_file = tmp_path / "ptail.json"
    model_file.write_text(json.dumps({
        "kind": "truncated", "family": "power_tail_binary", "epsilon": 0.2}))
    quadratures = []
    quadrature = PowerTailBinaryModel.phi_quadrature

    def counted(self, q, abs_tol=1e-10):
        quadratures.append(q)
        return quadrature(self, q, abs_tol=abs_tol)

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
    monkeypatch.setattr(PhiEvaluator, "phi", PhiEvaluator._phi)
    monkeypatch.setattr(PhiEvaluator, "phi_derivs", PhiEvaluator._phi_derivs)
    quadratures.clear()
    assert outputs() == memoised
    assert memoised_calls < len(quadratures)
