"""Command-line driver: exit codes, file outputs, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from braggsim import cli

TINY = {
    "structure": {
        "type": "grating",
        "period_nm": 320.0,
        "duty_cycle": 0.5,
        "n_periods": 240,
        "n_lo": 2.414,
        "delta_n": 0.0034985,
        "lead_in_um": 0.0,
        "lead_out_um": 0.0,
    },
    "nonlinear": {
        "gamma_per_w_m": 200.0,
        "pump_power_mw": 1.29,
        "signal_power_mw": 1.23,
        "coupling_loss_db": 5.0,
    },
    "pulse": {
        "shape": "tophat",
        "duration_ns": 1.0,
        "peak_power_mw": 1.0,
        "center_wavelength_nm": 1546.07952,
    },
    "windows": {
        "signal": {"center_nm": 1560.05, "width_ghz": 10.0},
        "idler": {"center_nm": None, "width_ghz": 10.0},
    },
    "spectrum": {"start_nm": 1542.0, "stop_nm": 1550.0, "step_pm": 100.0},
    "pump_sweep": {"start_nm": 1544.0, "stop_nm": 1548.2, "points": 17,
                   "signal_nm": 1560.0},
    "contrast_sweep": {"contrasts": [0.002, 0.004, 0.008],
                       "target_rejection_db": 12.0,
                       "compare_rejection_db": 30.0},
    "jsd": {"points": 21, "ring_span_linewidths": 6.0},
}


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY, indent=1))
    return path


def run(*args):
    return cli.main(list(args))


# --------------------------------------------------------------------------
# config loading


def test_bundled_config_builds(scenario):
    assert scenario.grating.n_periods == 2000
    assert scenario.grating.bragg_wavelength == pytest.approx(1.54607952e-6,
                                                              rel=1e-9)
    assert scenario.ring is not None
    assert scenario.params.coupling_loss_db == 5.0
    # null idler center resolves to the energy-conserving wavelength
    assert scenario.idler_window.center_wavelength == pytest.approx(
        1532.357e-9, abs=2e-12)


def test_serialize_config_round_trip():
    raw = cli.load_config_dict(cli.bundled_config_path())
    text = cli.serialize_config(raw)
    assert json.loads(text) == raw
    # canonical form is stable under re-serialization
    assert cli.serialize_config(json.loads(text)) == text


def test_missing_config_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("spectrum", "--config", str(missing), "--out", str(tmp_path / "o")) == 4
    assert str(missing) in capsys.readouterr().err


def test_unparseable_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("spectrum", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert "config error" in capsys.readouterr().err


def test_schema_error_names_the_field(tmp_path, capsys):
    broken = json.loads(json.dumps(TINY))
    broken["structure"]["duty_cycle"] = 1.7
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert run("spectrum", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "structure" in err and "duty_cycle" in err


def test_missing_section_is_config_error(tmp_path, capsys):
    broken = json.loads(json.dumps(TINY))
    del broken["nonlinear"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    assert run("spont-rate", "--config", str(path), "--out", str(tmp_path / "o")) == 2
    assert "nonlinear" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,section,key,value", [
    ("spectrum", "structure", "delta_n", float("nan")),
    ("spont-rate", "nonlinear", "gamma_per_w_m", float("inf")),
])
def test_non_finite_number_is_config_error(tmp_path, capsys, subcommand,
                                           section, key, value):
    # Python's json parses NaN and Infinity; neither is a valid field value
    broken = json.loads(json.dumps(TINY))
    broken[section][key] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    out = tmp_path / "o"
    assert run(subcommand, "--config", str(path), "--out", str(out)) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not out.exists()


def reference_variant(tmp_path, edit):
    """The bundled reference config with `edit` applied, written to a file."""
    raw = cli.load_config_dict(cli.bundled_config_path())
    edit(raw)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    return path


def test_jsd_signal_outside_model_domain(tmp_path, capsys):
    def edit(raw):
        raw["windows"]["signal"]["center_nm"] = 1608.0
        del raw["ring_comparator"]

    out = tmp_path / "o"
    assert run("jsd", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    assert "signal wavelength outside" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("points", 1), ("points", 0), ("points", -3),
                                       ("ring_span_linewidths", 0.0),
                                       ("ring_span_linewidths", -2.0)])
def test_jsd_grid_fields_are_config_errors(tmp_path, capsys, key, value):
    def edit(raw):
        raw.setdefault("jsd", {})[key] = value

    out = tmp_path / "o"
    assert run("jsd", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: jsd.{key}:")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("section,key", [("nonlinear", "gamma_per_w_m"),
                                         ("pulse", "peak_power_mw")])
def test_contrast_sweep_zero_pair_rate_is_domain_error(tmp_path, capsys,
                                                       section, key):
    # any warning (the log of a zero rate) fails the test by the filter above
    def edit(raw):
        raw[section][key] = 0.0

    assert run("contrast-sweep", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "pair rate is zero" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------
# subcommands on the tiny scenario


def test_spectrum_csv(tiny_config, tmp_path):
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(tiny_config), "--out", str(out)) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "wavelength_nm,transmission,transmission_db"
    assert len(lines) == 82   # 81 grid points on a 8 nm / 100 pm grid
    assert (out / "run_meta.json").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["subcommand"] == "spectrum"


def test_spectrum_points_override(tiny_config, tmp_path):
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(tiny_config), "--out", str(out),
               "--points", "21") == 0
    assert len((out / "spectrum.csv").read_text().splitlines()) == 22


def test_spectrum_json_summary(tiny_config, tmp_path):
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(tiny_config), "--out", str(out),
               "--format", "json") == 0
    obj = json.loads((out / "spectrum.json").read_text())
    assert set(obj) == {"columns", "summary"}
    assert set(obj["summary"]) == {"center_wavelength_nm", "rejection_db",
                                   "band_width_nm"}


def test_design_prints_period_count(tiny_config, tmp_path, capsys):
    out = tmp_path / "design"
    assert run("design", "--config", str(tiny_config), "--out", str(out)) == 0
    assert "N=1433" in capsys.readouterr().out   # 12 dB target at this contrast
    obj = json.loads((out / "design.json").read_text())
    assert obj["n_periods"] == 1433
    assert float(obj["estimated_rejection_db"]) >= 12.0


def test_design_reference_target(tmp_path, capsys):
    # bundled scenario: 20 dB at the fitted contrast
    out = tmp_path / "design"
    assert run("design", "--out", str(out)) == 0
    assert "N=2069" in capsys.readouterr().out


def test_design_quiet_writes_nothing(tiny_config, tmp_path, capsys):
    out = tmp_path / "design"
    assert run("design", "--config", str(tiny_config), "--out", str(out),
               "--quiet") == 0
    assert capsys.readouterr().out == ""
    assert (out / "design.json").exists()


def test_design_rejection_flag_domain_error(tiny_config, tmp_path, capsys):
    out = tmp_path / "design"
    assert run("design", "--config", str(tiny_config), "--out", str(out),
               "--rejection-db", "3") == 3
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_design_rejection_flag_must_be_finite(tiny_config, tmp_path, capsys, value):
    out = tmp_path / "design"
    assert run("design", "--config", str(tiny_config), "--out", str(out),
               "--rejection-db", value) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --rejection-db:")
    assert not out.exists()


def test_stim_sweep_csv_and_determinism(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out)) == 0
    first = (out / "stim_sweep.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "pump_wavelength_nm,idler_rate_per_s_per_mw2,idler_power_w"
    assert len(lines) == 18
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out),
               "--force") == 0
    assert (out / "stim_sweep.csv").read_bytes() == first


def test_overwrite_requires_force(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out)) == 0
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out)) == 4
    assert "--force" in capsys.readouterr().err


def test_stim_sweep_json_external_factor(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out),
               "--format", "json") == 0
    obj = json.loads((out / "stim_sweep.json").read_text())
    assert float(obj["external_per_internal_rate_factor"]) == pytest.approx(0.1)


def test_spont_rate_json(tiny_config, tmp_path):
    out = tmp_path / "spont"
    assert run("spont-rate", "--config", str(tiny_config), "--out", str(out),
               "--format", "json") == 0
    obj = json.loads((out / "spont_rate.json").read_text())
    stim = obj["stimulated"]
    spont = obj["spontaneous"]
    # external normalization carries two facet passes of 5 dB each
    assert float(stim["rate_per_s_per_mw2_external"]) == pytest.approx(
        0.1 * float(stim["rate_per_s_per_mw2"]), rel=1e-8)
    assert float(spont["rate_per_s"]) > 0


def test_contrast_sweep_outputs(tiny_config, tmp_path):
    out = tmp_path / "contrast"
    assert run("contrast-sweep", "--config", str(tiny_config), "--out", str(out),
               "--format", "json") == 0
    obj = json.loads((out / "contrast_sweep.json").read_text())
    assert float(obj["slope"]) == pytest.approx(-2.0, abs=0.1)
    cmp_obj = obj["rejection_comparison"]
    # shallow 12 vs 30 dB designs still differ noticeably; the deep-grating
    # saturation is probed at higher targets
    assert float(cmp_obj["relative_difference"]) < 0.25
    assert [float(x) for x in obj["columns"]["delta_n"]] == [0.002, 0.004, 0.008]


@pytest.mark.parametrize("contrasts,calls", [
    ([0.002, 0.0034985, 0.008], 2), ([0.002, 0.004, 0.008], 3)],
    ids=["delta_n-swept", "delta_n-not-swept"])
def test_contrast_sweep_call_count(tmp_path, monkeypatch, contrasts, calls):
    # the target-rejection rate of the grating's own contrast is read from
    # the main sweep when that contrast is swept; only the comparison design
    # then needs a sweep of its own
    from braggsim import model, quantum
    raw = dict(TINY, contrast_sweep=dict(TINY["contrast_sweep"], contrasts=contrasts))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    real = quantum.contrast_sweep
    seen = []

    def counting(*args, **kwargs):
        seen.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(quantum, "contrast_sweep", counting)
    out = tmp_path / "out"
    assert run("contrast-sweep", "--config", str(path), "--out", str(out),
               "--format", "json") == 0
    assert len(seen) == calls
    cfg = cli.build_scenario(raw)
    rates = [real(cfg.grating, db, [0.0034985], cfg.params, cfg.pulse,
                  cfg.signal_window).sweep.column("pair_rate_per_s")[0]
             for db in (12.0, 30.0)]
    cmp_obj = json.loads((out / "contrast_sweep.json").read_text())["rejection_comparison"]
    assert cmp_obj["target_rate_per_s"] == model._FMT.format(float(rates[0]))
    assert cmp_obj["compare_rate_per_s"] == model._FMT.format(float(rates[1]))


def test_jsd_without_ring_skips_ring_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "jsd"
    assert run("jsd", "--config", str(tiny_config), "--out", str(out)) == 0
    assert (out / "jsd_bw.csv").exists()
    assert (out / "jsd_bw.json").exists()
    assert not (out / "jsd_ring.csv").exists()
    assert "skipping ring" in capsys.readouterr().out
    header = json.loads((out / "jsd_bw.json").read_text())
    assert {"beta_sq", "purity", "schmidt_number"} <= set(header)
    lines = (out / "jsd_bw.csv").read_text().splitlines()
    assert lines[0] == "lambda_signal_nm,lambda_idler_nm,jsd_normalized"
    assert len(lines) == 1 + 21 * 21
    # wavelength-ascending on both axes
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first[0] < last[0] and first[1] < last[1]


def test_jsd_csv_is_streamed_unchanged(tmp_path):
    # the CSV written block by block equals the table formatted as one
    # string, element by element
    from braggsim import model
    from braggsim.quantum import two_photon_state_ring
    cfg = cli.build_scenario(cli.load_config_dict(cli.bundled_config_path()))
    state = two_photon_state_ring(cfg.ring, cfg.params, cfg.ring_pulse, n_points=37)
    lam1 = state.signal_grid.wavelengths * 1e9
    lam2 = state.idler_grid.wavelengths * 1e9
    rows = ["lambda_signal_nm,lambda_idler_nm,jsd_normalized"]
    for a in range(lam1.size - 1, -1, -1):
        for b in range(lam2.size - 1, -1, -1):
            rows.append(",".join(model._FMT.format(float(v))
                                 for v in (lam1[a], lam2[b], state.jsd[a, b])))
    out = cli._Out(tmp_path, force=False, quiet=True)
    out.write("jsd.csv", cli._JSD_CSV_HEADER, cli._jsd_csv(state))
    assert (tmp_path / "jsd.csv").read_text() == "\n".join(rows) + "\n"


def test_jsd_csv_matches_per_value_format():
    # each block is formatted with one % operation on a per-row template; it
    # must equal _FMT applied value by value, here on a non-square state whose
    # values span many decades and include an exact zero
    import numpy as np
    from braggsim import model
    from braggsim.quantum import TwoPhotonState
    rng = np.random.default_rng(5)
    amp = 1e-11 * rng.standard_normal((5, 7)) * 10.0 ** rng.uniform(-6.0, 0.0, (5, 7))
    amp[1, 2] = 0.0
    state = TwoPhotonState(amp, model.grid_around_omega(1.21e15, 2e11, 5),
                           model.grid_around_omega(1.23e15, 3e11, 7))
    lam1 = state.signal_grid.wavelengths * 1e9
    lam2 = state.idler_grid.wavelengths * 1e9
    expected = "".join(
        ",".join(model._FMT.format(float(v)) for v in (lam1[a], lam2[b], state.jsd[a, b]))
        + "\n" for a in range(4, -1, -1) for b in range(6, -1, -1))
    assert "".join(cli._jsd_csv(state)) == expected


def test_report_writes_everything(tiny_config, tmp_path):
    out = tmp_path / "report"
    assert run("report", "--config", str(tiny_config), "--out", str(out),
               "--quiet") == 0
    for name in ("spectrum.csv", "design.json", "stim_sweep.csv",
                 "spont_rate.csv", "contrast_sweep.csv", "jsd_bw.csv",
                 "run_meta.json"):
        assert (out / name).exists(), name


def test_report_data_files_are_deterministic(tiny_config, tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert run("report", "--config", str(tiny_config), "--out", str(out),
                   "--points", "21", "--quiet") == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                        if p.name != "run_meta.json"})
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]


def test_quiet_suppresses_chatter(tiny_config, tmp_path, capsys):
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(tiny_config), "--out", str(out),
               "--quiet") == 0
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------------------
# environment and argument handling


def test_thread_env_applied(tiny_config, tmp_path, monkeypatch):
    monkeypatch.setenv("BRAGGSIM_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = tmp_path / "design"
    assert run("design", "--config", str(tiny_config), "--out", str(out)) == 0
    import os
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_env_invalid(tiny_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BRAGGSIM_THREADS", "abc")
    out = tmp_path / "design"
    assert run("design", "--config", str(tiny_config), "--out", str(out)) == 2
    assert "BRAGGSIM_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("raw,expected", [("", None), ("0", None), (" 3 ", 3)])
def test_thread_count(monkeypatch, raw, expected):
    import os

    from braggsim import threads
    monkeypatch.setenv("BRAGGSIM_THREADS", raw)
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    assert threads.thread_count() == (expected or cores)


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_thread_count_invalid(monkeypatch, raw):
    from braggsim import threads
    monkeypatch.setenv("BRAGGSIM_THREADS", raw)
    with pytest.raises(ValueError, match="BRAGGSIM_THREADS"):
        threads.thread_count()


def test_thread_count_without_affinity(monkeypatch):
    # platforms without sched_getaffinity (macOS, Windows) count all cores
    import os

    from braggsim import threads
    monkeypatch.delenv("BRAGGSIM_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert threads.thread_count() == (os.cpu_count() or 1)


def test_design_does_not_import_concurrent_futures(tiny_config, tmp_path):
    # design imports fwm; a thread pool module loaded at import time would
    # cost every short command its start-up
    import subprocess
    import sys
    code = ("import sys; from braggsim import cli; "
            f"code = cli.main(['design', '--config', {str(tiny_config)!r}, "
            f"'--out', {str(tmp_path)!r}, '--quiet']); "
            "print(code, 'braggsim.fwm' in sys.modules, "
            "'concurrent.futures' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": src})
    assert done.stdout.split() == ["0", "True", "False"], done.stderr


def test_spectrum_is_computed_once(tiny_config, tmp_path, monkeypatch):
    from braggsim import model, transfer
    real = transfer.transmission_spectrum
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transfer, "transmission_spectrum", counting)
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(tiny_config), "--out", str(out),
               "--format", "json") == 0
    assert len(calls) == 1
    summary = json.loads((out / "spectrum.json").read_text())["summary"]
    report = transfer.stopband_report(*calls[0])
    assert summary["rejection_db"] == model._FMT.format(report.rejection_db)
    assert summary["center_wavelength_nm"] == model._FMT.format(
        report.center_wavelength * 1e9)


def test_points_must_be_at_least_two(tiny_config, tmp_path, capsys):
    out = tmp_path / "spec"
    assert run("spectrum", "--config", str(tiny_config), "--out", str(out),
               "--points", "1") == 2
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,flag,value", [
    ("report", "--rejection-db", "40"),
    ("spectrum", "--rejection-db", "40"),
    ("stim-sweep", "--rejection-db", "40"),
    ("spont-rate", "--rejection-db", "40"),
    ("contrast-sweep", "--rejection-db", "40"),
    ("jsd", "--rejection-db", "40"),
    ("design", "--points", "21"),
    ("spont-rate", "--points", "21"),
    ("contrast-sweep", "--points", "21"),
])
def test_flag_a_subcommand_does_not_read_is_config_error(tiny_config, tmp_path, capsys,
                                                         subcommand, flag, value):
    out = tmp_path / "out"
    assert run(subcommand, "--config", str(tiny_config), "--out", str(out),
               flag, value) == 2
    assert capsys.readouterr().err.startswith(f"config error: {flag}: not read by {subcommand}")
    assert not out.exists()


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2
