"""The config load: defaults, merging, validation, and the config reads in
the suites and commands."""

import ast
import importlib.util
import json
import os
from importlib.resources import files

import pytest

from morreylab import cli, harness
from morreylab.harness import CLI_DEFAULTS, SPEC_KINDS, default_config, load_config
from morreylab.spaces import PhiFunction
from morreylab.weights import ConstantWeight, Weight

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


def test_derived_keys_take_null_or_their_type(tmp_path):
    user = {"condition": {"phi2": {"kind": "power-law"}, "x": [0.3]},
            "operators": {"bump_rho": 0.4},
            "norm": {"phi": {"kind": "power-law", "lam": None}}}  # lam n/2
    cfg = load_config(write(tmp_path, user))
    assert cfg["condition"]["x"] == [0.3] and cfg["operators"]["bump_rho"] == 0.4
    assert harness._phi_from(cfg["norm"]["phi"], "phi", 2.0, 2, ConstantWeight()).lam == 1.0
    nulls = {"condition": {"phi2": None, "x": None}, "operators": {"bump_rho": None}}
    assert load_config(write(tmp_path, nulls)) == default_config()


# the numbers that load builds into a domain, a point, a Green function or a
# CZ kernel instead of looking up a range
BUILT = {"ap.a", "ap.b", "condition.x", "operators.m", "operators.alpha", "solve.m"}
# read by nothing; they go with the reference refresh of ROADMAP item 2
DEAD = {"boundedness.radius_points_1d", "boundedness.radius_points_2d"}


def test_every_config_number_has_a_range():
    def numeric(path, value):
        if value is None:  # a derived default: the type it may take instead
            return harness._DERIVED_TYPES[path] in ("number", "list")
        values = value if isinstance(value, list) else [value]
        return bool(values) and all(type(v) in (int, float) for v in values)

    seen = set()
    for name, section in default_config().items():
        items = section.items() if isinstance(section, dict) else [(None, section)]
        for key, value in items:
            path = name if key is None else f"{name}.{key}"
            if numeric(path, value):
                seen.add(path)
                assert (key or name) in harness._RANGES or path in BUILT | DEAD, path
    assert BUILT | DEAD <= seen
    assert len(seen) > 50


def _kind_classes(family: str, build) -> list[type]:
    """The class that `build` makes of each `family` kind, the keys a spec
    must give filled in with sample values."""
    sample = {list: [0.0], float: 0.5}
    classes = []
    for kind, keys in SPEC_KINDS[family][1].items():
        spec = {"kind": kind, **{k: sample[v] for k, v in keys.items() if isinstance(v, type)}}
        classes.append(type(build(spec)))
    return classes


def test_spec_kinds_are_the_weight_and_phi_families():
    # each kind a config can name builds its own class, and those classes
    # are the members of the family, so neither can gain a kind alone
    weights = _kind_classes("weight", lambda s: harness._weight_from(s, "w", 1))
    phis = _kind_classes("phi", lambda s: harness._phi_from(s, "phi", 2.0, 1, ConstantWeight()))
    for classes, family in ((weights, Weight), (phis, PhiFunction)):
        assert len(set(classes)) == len(classes)
        assert set(classes) == set(family.__args__)


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
