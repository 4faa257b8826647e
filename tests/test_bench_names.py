"""The library names the benchmark under bench/ reads still exist.

bench/ is read as text, not imported: its cli workload looks up each name
of LIBRARY_CALLS on homfrag.cli (to wrap it in a trace span), and every
workload reaches the library as H.<name> with H the homfrag package.  A
name removed from the library fails here, not only in a benchmark run.
"""

import ast
from pathlib import Path
import re

import homfrag
import homfrag.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _library_calls():
    tree = ast.parse((BENCH / "cli_workload.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LIBRARY_CALLS"])


def test_every_library_call_the_cli_trace_wraps_is_a_name_of_cli():
    names = _library_calls()
    assert names
    assert [n for n in names if not hasattr(homfrag.cli, n)] == []


def test_every_name_the_benchmark_reads_off_the_package_exists():
    names = {name for path in sorted(BENCH.glob("*.py"))
             for name in re.findall(r"\bH\.(\w+)", path.read_text())}
    assert {"cli", "simulate", "PhiEvaluator"} <= names
    assert sorted(n for n in names if not hasattr(homfrag, n)) == []
