"""Self-test of the benchmark's own code.

    python3 -m pytest -q benchmark/tests
"""

import copy
import json

import numpy as np
import pytest

import check
import tracer


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9];
    # d [8, 12] overruns its parent c and is clipped to it
    spans = [
        ["root", 0.0, 10.0, -1, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 2.0, 3.0, 1, {}],
        ["c", 5.0, 9.0, 0, {}],
        ["d", 8.0, 12.0, 3, {}],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])
    assert tracer.covered(spans, {"a", "b"}) == pytest.approx(3.0)
    assert tracer.covered(spans, {"c", "d"}) == pytest.approx(7.0)


def test_layer_metrics_per_solver_instance():
    spans = [
        ["harness.suite_self", 0.0, 10.0, -1, {}],
        ["solver.solve", 1.0, 3.0, 0, {"instance": "disk-m1", "rhs": 4}],
        ["solver.solve", 4.0, 5.0, 0, {"instance": "disk-m1", "rhs": 4}],
    ]
    out = tracer.layer_metrics(spans, 10.0)
    assert out["solver.solve.s.disk-m1"] == pytest.approx(3.0)
    assert out["solver.solve.calls.disk-m1"] == 2
    assert out["solver.solve.rhs.disk-m1"] == 8
    assert out["solver.s_per_rhs.disk-m1"] == pytest.approx(3.0 / 8)
    assert out["harness.suite_self.s"] == pytest.approx(7.0)
    assert out["share.solver"] == pytest.approx(0.3)
    # the root's own 7 s is what no named layer accounts for
    assert out["trace.coverage"] == pytest.approx(0.3)


def _reference(workload="apriori_boundedness"):
    ref, full = check.load_reference(workload, check.BASE_SEED)
    assert full
    return ref


def test_unchanged_outputs_pass_every_check():
    ref = _reference()
    attempted, failed = check.compare(ref, copy.deepcopy(ref), full=True)
    rows = sum(len(r) for r in ref["rows"].values())
    assert attempted == len(ref["exit_codes"]) + len(ref["verdicts"]) + 1 + rows
    assert failed == []


def test_perturbed_row_is_one_failed_check():
    ref = _reference()
    got = copy.deepcopy(ref)
    fname = next(iter(got["rows"]))
    row = next(r for r in got["rows"][fname] if r[0])
    row[0] *= 1 + 1e-6
    attempted, failed = check.compare(ref, got, full=True)
    assert len(failed) == 1 and fname in failed[0]
    # below the tolerance is not a failure
    row[0] = row[0] / (1 + 1e-6) * (1 + 1e-12)
    assert check.compare(ref, got, full=True)[1] == []


def test_perturbed_field_value_is_one_failed_check():
    ref = _reference("kernels_cli")
    got = copy.deepcopy(ref)
    key = next(k for k in got["fields"] if k.startswith("4/solution.csv:u"))
    column = got["fields"][key]
    i = len(column) // 3
    column[i] *= 1 + 1e-6
    attempted, failed = check.compare(ref, got, full=True)
    rows = sum(len(r) for r in ref["rows"].values())
    assert attempted == (len(ref["exit_codes"]) + len(ref["verdicts"]) + 1 + rows
                         + len(ref["fields"]))
    assert failed == [f"{key}: column differs"]
    # below the tolerance is not a failure
    column[i] = ref["fields"][key][i] * (1 + 1e-12)
    assert check.compare(ref, got, full=True)[1] == []


def test_nan_must_match_nan():
    ref = {"exit_codes": [0], "verdicts": {}, "fields": {}, "config_hash": "h",
           "rows": {"0/s.csv": [[1.0, None, None]]}}
    got = copy.deepcopy(ref)
    got["rows"]["0/s.csv"][0][2] = 1.0
    assert len(check.compare(ref, got, full=True)[1]) == 1
    ref["rows"], got["rows"] = {}, {}
    ref["fields"] = {"0/f.csv:u": np.array([1.0, np.nan])}
    got["fields"] = {"0/f.csv:u": np.array([1.0, np.nan])}
    assert check.compare(ref, got, full=True)[1] == []
    got["fields"]["0/f.csv:u"][1] = 1.0
    assert len(check.compare(ref, got, full=True)[1]) == 1


def test_other_seeds_check_verdicts_and_exit_codes_only():
    ref = _reference()
    got = {"exit_codes": [1], "verdicts": {"0/apriori": "UNSTABLE"},
           "rows": {}, "fields": {}}
    attempted, failed = check.compare(ref, got, full=False)
    assert (attempted, len(failed)) == (3, 3)


def test_every_wrapper_restored_after_traced_run(tmp_path):
    from morreylab import cli, greens, harness, operators, spaces

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "ap": {"grids": [32, 64, 128]}}))
    t = tracer.Tracer("test")
    probe = tracer.Probe(t)
    probe.install(cli, harness, spaces, greens, operators)
    targets = list(t._patched)
    bound = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in targets}
    required = [("morreylab.harness", a) for a in (
        "maximal_field", "singular_field", "solve_dirichlet_many", "condition_213",
        "build_corpus", "verify_kernel_bounds", "sample_pairs", "ap_constant",
        "weight_cell_integrals", "_offdiagonal_region_sums", "write_reports")]
    required += [("morreylab.cli", a) for a in (
        "solve_dirichlet", "maximal_field", "singular_field",
        "singular_identity_check", "_field_csv")]
    required += [("MorreyEvaluator", "norm"), ("morreylab.spaces", "ball_measure"),
                 ("SweepCache", "prefix_sums"), ("GreenFunction", "regular_derivative")]
    assert set(required) <= bound
    assert all(vars(owner)[attr] is not original for owner, attr, original in targets)
    try:
        for argv in (["verify", "--suite", "ap"], ["operators", "--grid", "48"]):
            code = t.call("harness.suite_self", cli.main,
                          argv + ["--config", str(cfg), "--jobs", "1",
                                  "--out", str(tmp_path / argv[0])])
            assert code == 0
    finally:
        t.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in targets)
    names = {s[0] for s in t.spans}
    assert {"weights.ap_constant", "operators.maximal_field", "cli.field_csv"} <= names
    assert probe.spectrum_lookups > 0
