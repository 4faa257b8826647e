"""The library names the benchmark under bench/ reads still exist.

bench/ is read as text, not imported: its cli workload looks up each name
of LIBRARY_CALLS on homfrag.cli (to wrap it in a trace span), and every
workload reaches the library as H.<name>, or a dotted chain such as
H.martingales.additive_estimator, with H the homfrag package.  The probes
also call methods on the objects they hold: st.<name> on a Stream and
model.<name> or ref.<model>.<name> on a dislocation model, and the ops
read attributes off the records the library returns.  A name removed
or moved from the library fails here, not only in a benchmark run, and so
does a keyword argument the benchmark passes to a callable that no longer
takes it.
"""

import ast
from functools import reduce
import inspect
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


def _resolves(chain):
    """True when every name of the dotted chain resolves from homfrag on."""
    obj = homfrag
    for name in chain.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_name_the_benchmark_reads_off_the_package_exists():
    # whole chains, H.martingales.additive_estimator as well as H.simulate
    chains = {chain for path in sorted(BENCH.glob("*.py"))
              for chain in re.findall(r"\bH\.(\w+(?:\.\w+)*)",
                                      path.read_text())}
    assert {"cli.main", "simulate", "PhiEvaluator", "Stream.uniform",
            "martingales.additive_estimator"} <= chains
    assert sorted(c for c in chains if not _resolves(c)) == []


def test_every_method_the_probes_call_on_objects_exists():
    # st.<name> on a Stream; model.<name> and ref.<model>.<name> on a
    # DislocationModel
    text = (BENCH / "probes.py").read_text()
    on_stream = set(re.findall(r"\bst\.(\w+)", text))
    on_model = set(re.findall(r"\bmodel\.(\w+)", text)) | set(
        re.findall(r"\bref\.\w+\.(\w+)", text))
    assert on_stream == {"exponential", "uniforms"}
    assert on_model == {"sample_masses", "sample"}
    assert sorted(n for n in on_stream if not hasattr(homfrag.Stream, n)) == []
    assert sorted(n for n in on_model
                  if not hasattr(homfrag.DislocationModel, n)) == []


def _package_chain(func):
    """The names after H of a call's dotted callee (H.x.y or self.H.x.y), or
    None when the callee is not read off the package."""
    names = []
    while isinstance(func, ast.Attribute):
        names.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        names.append(func.id)
    names.reverse()
    return names[names.index("H") + 1:] if "H" in names[:-1] else None


def _takes(callee, keyword):
    params = inspect.signature(callee).parameters.values()
    return any(p.kind == p.VAR_KEYWORD
               or (p.name == keyword and p.kind != p.POSITIONAL_ONLY)
               for p in params)


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    # literal keywords only: H.PhiEvaluator(model, **kwargs) names none
    calls = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            chain = isinstance(node, ast.Call) and _package_chain(node.func)
            if chain:
                calls |= {(".".join(chain), kw.arg) for kw in node.keywords
                          if kw.arg is not None}
    assert {"barrier_slope", "mode", "mc_seed", "epsilon"} <= {
        keyword for _, keyword in calls}
    assert sorted((chain, keyword) for chain, keyword in calls if not _takes(
        reduce(getattr, chain.split("."), homfrag), keyword)) == []


# the attributes bench/ reads off the records the library returns
RECORD_ATTRIBUTES = {
    "event_log": ("jump_times", "value", "partitions", "picks"),
    "split": ("masses",),
    "thinned": ("kept",),
    "spine": ("jump_times", "weight", "spine_log_mass"),
    "snapshot": ("log_masses", "frozen_mass", "n_live", "frozen_count",
                 "event_count"),
}


def test_every_record_attribute_the_benchmark_reads_exists():
    text = "".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    model = homfrag.UniformBinaryModel()
    key = homfrag.replica_key(3, 0)
    log = homfrag.simulate_event_log(model, 4.0, key)
    assert len(log) > 0
    spine = homfrag.simulate_spine(model, 0.5, 4.0, key)
    records = {
        "event_log": log,
        "split": log.partitions[0],
        "thinned": homfrag.thin_fiber(log, 1.0,
                                      homfrag.Stream(homfrag.derive_key(key, 1))),
        "spine": spine,
        "snapshot": homfrag.simulate(model, 1.0, [1.0], 1e-3, key)[0],
    }
    for kind, names in RECORD_ATTRIBUTES.items():
        assert [n for n in names if not re.search(rf"\.{n}\b", text)] == []
        assert [n for n in names if not hasattr(records[kind], n)] == [], kind
    # bench/ stores it in a float array: a float before the first jump too
    assert {type(spine.spine_log_mass(t)) for t in (0.0, 4.0)} == {float}
