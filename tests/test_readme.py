"""The README's code blocks run as written: the library quick start, the
model example and every command-line example; and every name of the library
it quotes exists."""

from contextlib import redirect_stdout
import importlib
import io
import json
from pathlib import Path
import pkgutil
import re
import shlex

import numpy as np

import homfrag
from homfrag.cli import main
from homfrag.measures import MassPartition
from homfrag.streams import StreamBatch, replica_keys

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _run_python(index):
    """Run the README's python block `index` and return its namespace."""
    namespace = {}
    exec(compile(_blocks("python")[index], f"README.md python block {index}",
                 "exec"), namespace)
    return namespace


def test_the_quick_start_runs():
    ns = _run_python(0)
    snap = ns["snap"]
    assert abs(np.exp(snap.log_masses).sum() + snap.frozen_mass - 1.0) < 1e-9
    assert abs(ns["ev"].phi(1.0) - 1.0 / 3.0) < 1e-15


def test_the_model_example_maps_split_and_splits_alike():
    ns = _run_python(1)
    model = ns["model"]
    assert abs(ns["ev"].phi(1.0) - 7.0 / 12.0) < 0.01
    u = np.concatenate(([0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                        StreamBatch(replica_keys(3, 200)).uniform_at(
                            np.arange(200), 1)))
    for row, x in zip(model.splits(u), u.tolist()):
        masses = model.split(x)
        MassPartition(masses)
        assert row[:len(masses)].tobytes() == np.array(masses).tobytes()
        assert not row[len(masses):].any()


def _cli_examples():
    """The `homfrag ...` command lines of the README, continuations joined."""
    block = next(b for b in _blocks("sh") if "homfrag " in b)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("homfrag ")]


def test_every_cli_example_exits_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ub.json").write_text(json.dumps({"kind": "uniform_binary"}))
    examples = _cli_examples()
    assert len(examples) == 6
    for argv in examples:
        with redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, argv


def _quoted_dotted_names():
    """The dotted names that open the README's backticked spans, outside
    its code blocks (`measures.validate(raw)` gives measures.validate)."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    for span in re.findall(r"`([^`]+)`", prose):
        m = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span.strip())
        if m:
            yield m.group()


def test_every_quoted_library_name_resolves():
    """A name that starts with homfrag, one of its modules or a class
    defined in them names something that exists, so a removed name cannot
    stay in the docs."""
    modules = {info.name: importlib.import_module(f"homfrag.{info.name}")
               for info in pkgutil.iter_modules(homfrag.__path__)}
    roots = {name: obj for module in modules.values()
             for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__.startswith("homfrag")}
    roots.update(modules, homfrag=homfrag)
    absent = object()
    checked, missing = [], []
    for name in _quoted_dotted_names():
        head, *rest = name.split(".")
        if head not in roots:
            continue  # json.loads, ub.json, ...
        obj = roots[head]
        for part in rest:
            obj = getattr(obj, part, absent)
        checked.append(name)
        if obj is absent:
            missing.append(name)
    assert {"homfrag.ranked.simulate_lanes", "tilting.thin_lanes",
            "StreamBatch.uniform_at"} <= set(checked)
    assert missing == []
