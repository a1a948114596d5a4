"""The output checker: it passes real program output and catches broken
files (non-finite numbers, truncation, out-of-range values)."""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checker, workloads  # noqa: E402
from perfbench.run import child_env, invoke  # noqa: E402

REFERENCE = json.loads((ROOT / "src" / "braggsim" / "data" / "reference.json").read_text())


def _jsd_files(out: Path, name: str, n: int, scale: float = 1.0, purity: str = "5.0e-01"):
    """An n x n JSD on a grid of spacing 1 rad/s that integrates to ``scale``."""
    rows = ["lambda_signal_nm,lambda_idler_nm,jsd_normalized"]
    rows += [f"{1500 + i:.8e},{1600 + k:.8e},{scale / n**2:.8e}"
             for i in range(n) for k in range(n)]
    (out / f"jsd_{name}.csv").write_text("\n".join(rows) + "\n")
    grid = {"start": "0.0e+00", "stop": f"{n - 1:.8e}", "points": n}
    (out / f"jsd_{name}.json").write_text(json.dumps(
        {"beta_sq": "1.0e-08", "purity": purity, "signal_grid_rad_s": grid,
         "idler_grid_rad_s": grid}))


def _report_dir(out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    (out / "spectrum.csv").write_text(
        "wavelength_nm,transmission,transmission_db\n"
        "1.54e+03,1.0e+00,0.0e+00\n1.55e+03,1.0e-02,-2.0e+01\n")
    (out / "stim_sweep.csv").write_text(
        "pump_wavelength_nm,idler_rate_per_s_per_mw2,idler_power_w\n"
        "1.540e+03,1.0e+02,1.0e-12\n1.545e+03,1.0e+00,1.0e-14\n1.550e+03,1.0e+02,1.0e-12\n")
    (out / "spont_rate.csv").write_text(
        "rate_per_s,bandwidth_rad_s,power_w,rate_per_s_per_mw2,rate_per_s_per_mw2_external\n"
        "5.0e+01,6.3e+10,1.0e-17,3.0e+01,\n")
    (out / "contrast_sweep.csv").write_text(
        "delta_n,n_periods,pair_rate_per_s\n1.0e-03,4.0e+03,4.0e+00\n2.0e-03,2.0e+03,1.0e+00\n")
    (out / "design.json").write_text(json.dumps({"n_periods": 2069}))
    (out / "run_meta.json").write_text("{}")
    _jsd_files(out, "bw", 4)
    rows = {"spectrum.csv": 2, "stim_sweep.csv": 3, "spont_rate.csv": 1,
            "contrast_sweep.csv": 2, "jsd_bw.csv": 16}
    return rows


DOCS = ("design.json", "jsd_bw.json")


def test_valid_outputs_pass_and_give_headline(tmp_path):
    rows = _report_dir(tmp_path)
    head = checker.check_outputs(tmp_path, rows, DOCS)
    assert head["rejection_db"] == 20.0
    assert head["dip_suppression_db"] == pytest.approx(20.0)
    assert head["spont_rate_per_s"] == 50.0
    assert head["contrast_slope"] == pytest.approx(-2.0)
    assert head["bw.purity"] == 0.5


@pytest.mark.parametrize("name, old, new, message", [
    ("spectrum.csv", "1.0e-02", "nan", "non-finite"),
    ("stim_sweep.csv", "1.0e+00,", "inf,", "non-finite"),
    ("spectrum.csv", "1.0e+00,0.0e+00", "1.5e+00,0.0e+00", "outside"),
    ("contrast_sweep.csv", "4.0e+03", "4.5e+00", "positive integer"),
    ("jsd_bw.json", '"beta_sq": "1.0e-08"', '"beta_sq": "NaN"', "non-finite"),
    ("jsd_bw.json", '"purity": "5.0e-01"', '"purity": "0.0e+00"', "purity"),
    ("design.json", "2069", "NaN", "non-finite"),
])
def test_corrupted_values_are_caught(tmp_path, name, old, new, message):
    rows = _report_dir(tmp_path)
    path = tmp_path / name
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(checker.CheckError, match=message):
        checker.check_outputs(tmp_path, rows, DOCS)


def test_unnormalized_jsd_is_caught(tmp_path):
    rows = _report_dir(tmp_path)
    _jsd_files(tmp_path, "bw", 4, scale=1.01)
    with pytest.raises(checker.CheckError, match="integrates"):
        checker.check_outputs(tmp_path, rows, DOCS)


def test_missing_file_and_row_count(tmp_path):
    rows = _report_dir(tmp_path)
    with pytest.raises(checker.CheckError, match="rows"):
        checker.check_outputs(tmp_path, {**rows, "spectrum.csv": 3}, DOCS)
    (tmp_path / "run_meta.json").unlink()
    with pytest.raises(checker.CheckError, match="missing"):
        checker.check_outputs(tmp_path, rows, DOCS)


@pytest.fixture(scope="module")
def real_sweep(tmp_path_factory):
    """A short real stim-sweep written by the program itself."""
    out = tmp_path_factory.mktemp("sweep")
    inv = invoke("sweep", [sys.executable, "-m", "braggsim", "stim-sweep", "--points", "5",
                           "--out", str(out), "--quiet"],
                 child_env(1), out.parent / "sweep.log", timeout=120)
    assert inv.exit_code == 0 and not inv.timed_out
    return out


def test_real_output_passes_then_nan_and_truncation_are_caught(real_sweep, tmp_path):
    rows, docs = workloads.expected_outputs("stim-sweep", REFERENCE, 5)
    head = checker.check_outputs(real_sweep, rows, docs)
    assert math.isfinite(head["dip_suppression_db"])
    text = (real_sweep / "stim_sweep.csv").read_text()

    for broken in (text.replace(text.splitlines()[3].split(",")[1], "nan", 1),
                   text[:len(text) - 7],                      # cut inside the last row
                   text[:text.rindex("\n", 0, len(text) - 1) + 1]):   # last row lost
        case = tmp_path / str(len(broken))
        case.mkdir()
        for f in real_sweep.iterdir():
            (case / f.name).write_bytes(f.read_bytes())
        (case / "stim_sweep.csv").write_text(broken)
        with pytest.raises(checker.CheckError):
            checker.check_outputs(case, rows, docs)


def test_digest_ignores_sidecar_only(real_sweep, tmp_path):
    for f in real_sweep.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    assert checker.digest(tmp_path) == checker.digest(real_sweep)
    (tmp_path / "run_meta.json").write_text("{}")
    assert checker.digest(tmp_path) == checker.digest(real_sweep)
    (tmp_path / "stim_sweep.csv").write_text("changed\n")
    assert checker.digest(tmp_path) != checker.digest(real_sweep)


def test_invoke_kills_a_child_past_its_timeout(tmp_path):
    inv = invoke("sleep", [sys.executable, "-c", "import time; time.sleep(60)"],
                 child_env(1), tmp_path / "sleep.log", timeout=0.5)
    assert inv.timed_out
    assert inv.exit_code != 0
    assert inv.wall_s < 30
    inv = invoke("exit", [sys.executable, "-c", "raise SystemExit(3)"],
                 child_env(1), tmp_path / "exit.log", timeout=60)
    assert (inv.exit_code, inv.timed_out) == (3, False)


def test_run_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero and
    prints no result."""
    for rel in ("BENCHMARK.json", *(str(p.relative_to(ROOT))
                                    for p in (ROOT / "perfbench").glob("*.py"))):
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_bytes((ROOT / rel).read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-dense",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
