"""Write tests/golden/cli.jsonl, the byte corpus of the command line.

    PYTHONPATH=src python tests/make_golden.py

Every line after the first is one in-process call of homfrag.cli.main, made
in a scratch directory that prepare() fills with the grid's model and config
files, in file order (each thin line reads the event log that an earlier
subordinator line wrote there).  A line holds the call's argv, with paths
relative to that directory, its exit code, and the SHA-256 of its stdout,
of its stderr and of its --out file (null when it wrote none).  "portable"
marks a line whose output holds no number that a model or a simulation
computed, only words and values quoted from its argv and files: a
configuration error, for example.

The first line is the platform record the other digests hold on: Python,
numpy, platform.libc_ver(), the machine, and numpy's SIMD dispatch as
numpy.show_runtime() reports it.  tests/test_golden.py re-runs every line.

Regenerating the corpus is a contract change: name every line whose digest
moved, and why, where the change is recorded.  The script prints those
lines: for each line whose exit code or digests differ from the line with
the same argv in the file it replaces, its file line, its argv and the
fields that moved.
"""

from contextlib import redirect_stderr, redirect_stdout
import hashlib
import io
import json
import os
from pathlib import Path
import platform
import sys
import tempfile
from unittest import mock

import numpy

from homfrag.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.jsonl"

MODELS = {
    "uniform": {"kind": "uniform_binary"},
    "uniform_eps": {"kind": "uniform_binary", "epsilon": 0.1},
    "power_tail": {"kind": "truncated", "family": "power_tail_binary",
                   "epsilon": 0.01, "params": {"gamma": 1.5}},
    "power_tail_g1": {"kind": "truncated", "family": "power_tail_binary",
                      "epsilon": 0.01, "params": {"gamma": 1.0}},
    "dyadic": {"kind": "atomic", "atoms": [[[0.5, 0.5], 1.0]]},
    "ternary": {"kind": "atomic",
                "atoms": [[[0.5, 0.3, 0.2], 1.0], [[0.6, 0.4], 2.0]]},
    "dust": {"kind": "atomic", "atoms": [[[0.5, 0.3], 1.0]]},
}
SEEDS = (5, 2**64 - 1)

# files that prepare() writes beside the models, for the error cases
BAD_MODEL = {"kind": "uniform_binary", "epsilon": "0.1"}
TYPO_CONFIG = {"command": "simulate", "seed": 5, "model": MODELS["uniform"],
               "params": {"t_end": 1, "eps_freeze": 0.01, "max_fragment": 9}}


def platform_record():
    """The platform the digests hold on, with numpy's SIMD dispatch read as
    numpy.show_runtime() reads it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "libc": list(platform.libc_ver()),
        "machine": platform.machine(),
        "simd": {
            "baseline": list(umath.__cpu_baseline__),
            "found": [f for f in umath.__cpu_dispatch__ if features[f]],
            "not_found": [f for f in umath.__cpu_dispatch__
                          if not features[f]],
        },
    }


def grid():
    """(argv, portable) of every call, in the order they run."""
    calls = []
    for name in MODELS:
        model = f"{name}.json"
        for seed in SEEDS:
            events = f"events-{name}-{seed}.jsonl"

            def run(replicas, *command, out=None):
                argv = ["--seed", str(seed), "--model", model,
                        "--replicas", str(replicas)]
                calls.append((argv + (["--out", out] if out else [])
                              + list(command), False))

            run(1, "phi", "--q-min", "-0.5", "--q-max", "2", "--points", "6")
            run(5, "simulate", "--t-end", "2", "--eps-freeze", "0.01",
                "--snapshots", "0.5,2", out=f"simulate-{name}-{seed}.jsonl")
            run(3, "partition", "--n", "8", "--t-end", "2")
            run(5, "subordinator", "--t-end", "3")
            run(5, "subordinator", "--t-end", "3", "--event-log", out=events)
            run(1, "thin", "--p", "0.5", "--input", events)
            run(10, "martingale", "--kind", "additive", "--p", "0.5",
                "--t-grid", "0.5,1", "--eps-freeze", "0.01")
            run(10, "martingale", "--kind", "derivative", "--t-grid", "0.5,1",
                "--eps-freeze", "0.01")
            run(10, "martingale", "--kind", "truncated", "--a", "1",
                "--t-grid", "0.5,1", "--eps-freeze", "0.01")
            for p in ("0.5", "-0.5"):
                run(20, "spine", "--p", p, "--t-end", "3")
                run(20, "spine", "--p", p, "--t-end", "3", "--eps-freeze",
                    "0.01")
            ldp = ("ldp", "--p", "0.5", "--alpha", "-0.4", "--beta", "0.4",
                   "--t-grid", "1,2", "--eps-freeze", "0.001")
            run(20, *ldp)
            run(20, *ldp, "--estimator", "ratio", "--n-boot", "20")

    base = ["--seed", "5", "--model", "uniform.json"]
    simulate = ["simulate", "--t-end", "1", "--eps-freeze", "0.01"]
    # the documented exit-2 cases: a configuration error names only what the
    # argv and the files hold
    for argv in (
            [],
            ["--model", "uniform.json"] + simulate,
            ["--seed", str(2**64), "--model", "uniform.json"] + simulate,
            ["--seed", "5", "--model", "missing.json"] + simulate,
            ["--seed", "5", "--model", "bad_model.json"] + simulate,
            ["--config", "typo_config.json"],
            base + ["simulate", "--t-end", "-1", "--eps-freeze", "0.01"],
            base + ["simulate", "--t-end", "1", "--eps-freeze", "2"],
            base + ["phi", "--q-min", "-3", "--q-max", "1"],
            base + ["thin", "--p", "0.5", "--input", "uniform.json"],
            base + ["thin", "--p", "0.5", "--input", "missing.jsonl"],
            base + ["--replicas", "2", "ldp", "--p", "0.5", "--alpha", "-0.2",
                    "--beta", "0.2", "--t-grid", "1", "--eps-freeze", "0.001",
                    "--estimator", "ratio"],
            base + ["--out", "missing/out.csv", "phi", "--q-min", "0",
                    "--q-max", "1", "--points", "3"],
            base + ["--replicas", "1", "martingale", "--kind", "additive",
                    "--p", "0.5", "--t-grid", "1", "--eps-freeze", "0.01"],
            # exit 3 before any walk: 1.0 * 1e300 events expected
            base + ["subordinator", "--t-end", "1e300"]):
        calls.append((argv, True))
    # argparse's wording and wrapping come from the Python version
    calls.append((base + ["phi", "--q-min", "-1.5e0", "--q-max", "2"], False))
    # the flag that --eps-freeze replaced
    calls.append((base + ["spine", "--p", "0.5", "--t-end", "2",
                          "--with-population", "--eps-freeze", "0.01"], False))
    # the other exit-3 and exit-4 cases quote computed numbers
    calls.append((base + ["simulate", "--t-end", "3", "--eps-freeze", "1e-6",
                          "--max-fragments", "10"], False))
    strict = ["--seed", "5", "--replicas", "4", "--strict"]
    calls.append((strict + ["--model", "dyadic.json", "ldp", "--p", "0.5",
                            "--alpha", "-0.2", "--beta", "0.2", "--t-grid",
                            "1", "--eps-freeze", "0.001"], False))
    calls.append((strict + ["--model", "uniform.json", "ldp", "--p", "3",
                            "--alpha", "-0.2", "--beta", "0.2", "--t-grid",
                            "1", "--eps-freeze", "0.001"], False))
    return calls


def prepare(directory):
    """Write the grid's model and config files into directory."""
    files = {f"{name}.json": obj for name, obj in MODELS.items()}
    files.update({"bad_model.json": BAD_MODEL,
                  "typo_config.json": TYPO_CONFIG})
    for name, obj in files.items():
        (Path(directory) / name).write_text(json.dumps(obj))


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def call(argv):
    """(exit code, stdout, stderr, the --out file's bytes or None) of one
    main call in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's usage errors
            code = e.code
    out = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.is_file():
            out = path.read_bytes()
    return code, stdout.getvalue(), stderr.getvalue(), out


def corpus_line(argv, result):
    """The corpus line of argv's call(argv) result, without its "portable"
    mark: the argv, the exit code and the digests of the texts."""
    code, stdout, stderr, out = result
    return {"argv": argv, "exit": code, "stdout": _digest(stdout.encode()),
            "stderr": _digest(stderr.encode()),
            "out": None if out is None else _digest(out)}


def run_lines(argvs, directory):
    """call(argv) of each argv, run in order in directory."""
    prepare(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        # argparse wraps its usage text to the terminal's width
        with mock.patch.dict(os.environ, COLUMNS="80"):
            return [call(argv) for argv in argvs]
    finally:
        os.chdir(cwd)


FIELDS = ("exit", "stdout", "stderr", "out")


def moved_lines(old, new):
    """(file line, argv, fields) of every line of new whose fields differ
    from those of old's line with the same argv (all of them where old has
    no such line); neither list holds the platform record, file line 1."""
    before = {tuple(line["argv"]): line for line in old}
    moved = []
    for k, line in enumerate(new, start=2):
        was = before.get(tuple(line["argv"]))
        fields = [f for f in FIELDS if was is None or was[f] != line[f]]
        if fields:
            moved.append((k, line["argv"], fields))
    return moved


def write_corpus():
    """Rewrite the corpus; returns its line count and moved_lines against
    the file it replaces."""
    old = []
    if CORPUS.is_file():
        old = list(map(json.loads, CORPUS.read_text().splitlines()))[1:]
    calls = grid()
    with tempfile.TemporaryDirectory() as scratch:
        results = run_lines([argv for argv, _ in calls], scratch)
    lines = [corpus_line(argv, r) for (argv, _), r in zip(calls, results)]
    for line, (_, portable) in zip(lines, calls):
        if portable:
            empty = _digest(b"")
            assert line["exit"] != 0 and line["stdout"] == empty, line["argv"]
            assert line["out"] is None, line["argv"]
        line["portable"] = portable
    CORPUS.parent.mkdir(exist_ok=True)
    with open(CORPUS, "w", encoding="utf-8", newline="\n") as fh:
        for obj in [{"platform": platform_record()}] + lines:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return len(lines), moved_lines(old, lines)


def report():
    """Print the corpus's platform record, this machine's, and which lines
    this machine reproduces, whatever the records say (gates nothing)."""
    record, *lines = map(json.loads, CORPUS.read_text().splitlines())
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"platform": platform_record()}, sort_keys=True))
    argvs = [line["argv"] for line in lines]
    with tempfile.TemporaryDirectory() as scratch:
        got = list(map(corpus_line, argvs, run_lines(argvs, scratch)))
    moved = [k for k, _, _ in moved_lines(lines, got)]
    print(f"{len(lines) - len(moved)} of {len(lines)} lines reproduced; "
          f"file lines that differ: {moved}")


if __name__ == "__main__":
    n, moved = write_corpus()
    for k, argv, fields in moved:
        print(f"line {k}: {' '.join(argv)}: {', '.join(fields)}")
    print(f"wrote {n} lines to {CORPUS}; {len(moved)} moved", file=sys.stderr)
