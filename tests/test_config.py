"""The config load: defaults, merging, validation, and the config reads in
the suites and commands."""

import ast
import importlib.util
import json
import os
from importlib.resources import files

import pytest

from morreylab import cli, harness
from morreylab.harness import CLI_DEFAULTS, default_config, load_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def shipped_json() -> dict:
    return json.loads(files("morreylab.data").joinpath("default.json").read_text())


def write(tmp_path, cfg) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_load_none_is_the_shipped_default():
    cfg = load_config(None)
    shipped = shipped_json()
    assert {k: cfg[k] for k in shipped} == shipped
    assert {k: v for k, v in cfg.items() if k not in shipped} == CLI_DEFAULTS
    assert load_config(None) == default_config()


def test_partial_section_merges_over_the_default(tmp_path):
    cfg = load_config(write(tmp_path, {"apriori": {"grids": [64, 128]},
                                       "operators": {"grid": 32}, "seed": 11}))
    want = default_config()
    want["apriori"]["grids"] = [64, 128]
    want["operators"]["grid"] = 32
    want["seed"] = 11
    assert cfg == want


def test_partial_apriori_config_gets_the_shipped_n_random(tmp_path, monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def corpus(g, seed, n_random, **kw):
        seen.append(n_random)
        raise Stop

    monkeypatch.setattr(harness, "build_corpus", corpus)
    cfg = load_config(write(tmp_path, {"apriori": {"grids": [16],
                                                   "cases": [["disk", 1]]}}))
    with pytest.raises(Stop):
        harness.run_suite("apriori", cfg)
    assert seen == [13]


def _benchmark_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "benchmark", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_configs_load(tmp_path):
    workloads = _benchmark_workloads()
    for name in workloads.WORKLOADS:
        for argv, cfg in workloads.calls(name, 7, shipped_json()):
            want = default_config()
            for key, value in cfg.items():
                want[key] = {**want[key], **value} if isinstance(value, dict) else value
            assert load_config(write(tmp_path, cfg)) == want, (name, argv)


# -- every literal key read off the config exists in the defaults ------------


def _config_paths(func: ast.AST):
    """(node, key path) for every subscript chain with literal keys rooted
    at the whole config: the parameter `config`, or a name bound to
    `_load(...)`.  Names bound to such a chain are followed."""
    bound = {a.arg: () for a in func.args.args if a.arg == "config"}
    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "_load"):
            bound[node.targets[0].id] = ()

    def path(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            head = path(node.value)
            return None if head is None else head + (node.slice.value,)
        return None

    for node in ast.walk(func):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and path(node.value) is not None):
            bound[node.targets[0].id] = path(node.value)
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript) and path(node) is not None:
            yield node, path(node)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and path(node.func.value) is not None):
            yield node, None


def test_config_reads_name_default_keys():
    defaults = default_config()
    reads = 0
    for mod in (harness, cli):
        with open(mod.__file__) as fh:
            tree = ast.parse(fh.read())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node, p in _config_paths(func):
                where = f"{os.path.basename(mod.__file__)}:{node.lineno}"
                assert p is not None, f"{where}: config read with a fallback"
                section = defaults
                for key in p:
                    assert isinstance(section, dict) and key in section, \
                        f"{where}: {'.'.join(p)} is not a default key"
                    section = section[key]
                reads += 1
    assert reads >= 90  # the walk reaches the suites and the commands
