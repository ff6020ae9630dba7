"""The two refactor gates: scripts/same_outputs.py decides "same bits" and
scripts/suite_peaks.py "same peaks"."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPTS / "same_outputs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_same_outputs_differing(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    common = {"verify/ap/ap.csv": b"a,b\n1,2\n", "verify/ap/exit_code.txt": b"0\n"}
    _tree(old, {**common, "bench/x/0/stdout.txt": b"1.25\n", "gone.txt": b"",
                "configs/verify_ap.json": b"{}"})
    _tree(new, {**common, "bench/x/0/stdout.txt": b"1.26\n", "added.txt": b"",
                "configs/verify_ap.json": b'{"seed": 1}', "configs/only_new.json": b""})
    # one differing byte, a file on either side only; configs/ are inputs
    assert _same_outputs().differing(str(old), str(new)) == [
        "added.txt (only in new)", "bench/x/0/stdout.txt", "gone.txt (only in old)"]
    assert _same_outputs().differing(str(old), str(old)) == []


def test_suite_peaks_smoke():
    out = subprocess.run([sys.executable, str(SCRIPTS / "suite_peaks.py"), "ap"],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    header, line = out.splitlines()
    assert header.split() == ["suite", "verdict", "fitted", "constant", "wall", "s",
                              "peak", "MB"]
    m = re.fullmatch(r"ap\s+PASS\s+(\S+)\s+(\d+\.\d{3})\s+(\d+)", line)
    assert m, line
    float(m.group(1))
    assert int(m.group(3)) > 0
