"""The scripts under scripts/: demo data regeneration and the bit-flip study."""

import importlib.util
import json
import sys
from pathlib import Path

from faultbench.scenario import data_path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_demo_data_regenerates_the_shipped_demos(tmp_path):
    # every pinned output depends on these two files
    demos = load_script("make_demo_data")
    demos.write_csv(tmp_path / "demo_gait.csv", demos.JOINTS)
    demos.write_csv(tmp_path / "demo_minimal.csv", ("right_knee",))
    for name in ("demo_gait.csv", "demo_minimal.csv"):
        assert (tmp_path / name).read_bytes() == data_path(name).read_bytes(), name


def test_bitflip_study_writes_counts_per_study(tmp_path, monkeypatch):
    study = load_script("run_bitflip_study")
    out = tmp_path / "report" / "bitflips.json"
    monkeypatch.setattr(sys, "argv", ["run_bitflip_study.py", "--seeds", "1",
                                      "--out", str(out)])
    study.main()
    report = json.loads(out.read_text())
    assert set(report) == {"mantissa", "exponent", "sign", "spike", "offset"}
    for counts in report.values():
        assert set(counts) == {"Nominal", "Error", "Failure", "diverged"}
        assert sum(counts.values()) == 1
