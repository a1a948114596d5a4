"""Command-line driver: exit codes, file outputs, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from braggsim import cli

_SRC = str(Path(cli.__file__).resolve().parents[1])

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


def test_missing_config_is_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run("spectrum", "--config", str(missing), "--out", str(tmp_path / "o")) == 4
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"{not json",
    b"\xff{}",
    b'{"structure": {"n_periods": ' + b"9" * 5000 + b"}}",
    b'{"structure": ' + b"[" * 100000 + b"]" * 100000 + b"}",
], ids=["not-json", "not-utf8", "huge-integer", "deep-nesting"])
def test_unparseable_config_is_config_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run("spectrum", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.startswith(f"config error: {bad}: not valid JSON (")


def test_top_level_array_is_config_error(tmp_path, capsys):
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2]")
    assert run("spectrum", "--config", str(bad), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"config error: {bad}: top level must be a JSON object\n"


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
    # an integer literal that no float holds
    pytest.param("design", "structure", "n_lo", 10 ** 400, id="design-structure-n_lo-10**400"),
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


@pytest.mark.parametrize("subcommand,section,key,value", [
    ("spectrum", "spectrum", "start_nm", 0.0),
    ("spectrum", "spectrum", "start_nm", -1542.0),
    ("stim-sweep", "pump_sweep", "start_nm", 0.0),
    ("stim-sweep", "pump_sweep", "start_nm", -1544.0),
    ("stim-sweep", "pump_sweep", "signal_nm", 0.0),
    ("stim-sweep", "pump_sweep", "signal_nm", -1560.0),
    ("spectrum", "spectrum", "step_pm", 0.0),
    ("spectrum", "spectrum", "step_pm", -2.0),
    ("spectrum", "spectrum", "stop_nm", 1542.0),
    ("stim-sweep", "pump_sweep", "points", 1),
    ("stim-sweep", "pump_sweep", "stop_nm", 1540.0),
])
def test_non_positive_wavelength_is_config_error(tmp_path, capsys, subcommand,
                                                 section, key, value):
    broken = json.loads(json.dumps(TINY))
    broken[section][key] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    out = tmp_path / "o"
    assert run(subcommand, "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}:")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["spectrum", "design"])
def test_spectrum_step_wider_than_the_span_is_config_error(tmp_path, capsys, subcommand):
    # every subcommand builds the whole scenario, so design refuses it too
    broken = json.loads(json.dumps(TINY))
    broken["spectrum"]["step_pm"] = 1e6
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    out = tmp_path / "o"
    assert run(subcommand, "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: spectrum.step_pm:")
    assert not out.exists()


def reference_variant(tmp_path, edit):
    """The bundled reference config with `edit` applied, written to a file."""
    raw = cli.load_config_dict(cli.bundled_config_path())
    edit(raw)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    return path


def _rename_coupling_loss(raw):
    raw["nonlinear"]["coupling_los_db"] = raw["nonlinear"].pop("coupling_loss_db")


@pytest.mark.parametrize("path,edit", [
    ("bogus", lambda raw: raw.update(bogus=1)),
    ("structure.lead_in_nm", lambda raw: raw["structure"].update(lead_in_nm=0.0)),
    ("jsd.pionts", lambda raw: raw["jsd"].update(pionts=21)),
    ("windows.signal.width_gh", lambda raw: raw["windows"]["signal"].update(width_gh=1.0)),
    ("ring_comparator.pulse.extra", lambda raw: raw["ring_comparator"]["pulse"].update(extra=1)),
    # a misspelt optional key once dropped the external-rate normalization
    ("nonlinear.coupling_los_db", _rename_coupling_loss),
])
def test_unknown_key_is_config_error(tmp_path, capsys, path, edit):
    out = tmp_path / "o"
    assert run("spont-rate", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}:")
    assert not out.exists()


def test_duplicate_key_is_config_error(tmp_path, capsys):
    # plain json.loads keeps the last of two equal keys without a word
    text = cli.bundled_config_path().read_text()
    path = tmp_path / "dup.json"
    path.write_text(text.replace('"delta_n": 0.0034985,',
                                 '"delta_n": 0.0034985,\n    "delta_n": 0.0070,'))
    out = tmp_path / "o"
    assert run("design", "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("config error: structure.delta_n: duplicate key")
    assert not out.exists()


def _drop_duration_ns(raw):
    del raw["pulse"]["duration_ns"]


_ONE_DURATION = "pulse: exactly one of duration_ns/duration_ps is required"


@pytest.mark.parametrize("edit,message", [
    (lambda raw: raw["structure"].update(period_nm="320"),
     "structure.period_nm: expected number, got str"),
    # a JSON boolean is an int to Python, and no number to the schema
    (lambda raw: raw["structure"].update(period_nm=True),
     "structure.period_nm: expected number, got bool"),
    (lambda raw: raw["structure"].update(n_periods=True),
     "structure.n_periods: expected integer, got bool"),
    (lambda raw: raw["structure"].update(n_periods=2000.0),
     "structure.n_periods: expected integer, got float"),
    (lambda raw: raw["structure"].update(n_lo=None), "structure.n_lo: expected number, got null"),
    (lambda raw: raw.update(structure=[320.0]), "structure: expected object, got list"),
    (lambda raw: raw["pulse"].update(duration_ps=1000.0), _ONE_DURATION),
    (_drop_duration_ns, _ONE_DURATION),
    (lambda raw: raw["ring_comparator"].update(quality_factor=[4e4, 4e4]),
     "ring_comparator.quality_factor: expected a number or 3 numbers"),
    (lambda raw: raw["contrast_sweep"].update(contrasts=[]),
     "contrast_sweep.contrasts: must not be empty"),
], ids=["string-number", "bool-number", "bool-integer", "float-integer", "null-required",
        "list-section", "both-durations", "no-duration", "two-quality-factors",
        "empty-contrasts"])
def test_config_contract_is_config_error(tmp_path, capsys, edit, message):
    out = tmp_path / "o"
    assert run("spont-rate", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_readme_configuration_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]

    def names(table, path):
        for key, field in table.items():
            if isinstance(field.kind, dict):
                yield f"{path}{key}"
                yield from names(field.kind, f"{path}{key}.")
            else:
                yield key

    missing = [n for n in names(cli._SCHEMA.kind, "") if f"`{n}`" not in section]
    assert not missing


def test_jsd_signal_outside_model_domain(tmp_path, capsys):
    def edit(raw):
        raw["windows"]["signal"]["center_nm"] = 1608.0
        del raw["ring_comparator"]

    out = tmp_path / "o"
    assert run("jsd", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    assert "signal wavelength outside" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["spectrum", "report"])
def test_spectrum_outside_model_domain(tmp_path, capsys, subcommand):
    # report runs the spectrum first, so it names the spectrum too
    def edit(raw):
        raw["spectrum"].update(start_nm=1400.0, stop_nm=1450.0)
        raw["pump_sweep"].update(start_nm=1400.0, stop_nm=1450.0)

    out = tmp_path / "o"
    assert run(subcommand, "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "domain error: spectrum wavelength outside the 1500-1600 nm model domain\n")
    assert not out.exists()


def test_jsd_unequal_window_widths(tmp_path, capsys):
    def edit(raw):
        raw["windows"]["idler"]["width_ghz"] = 12.0

    assert run("jsd", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(tmp_path / "o")) == 3
    err = capsys.readouterr().err
    assert "signal 10 GHz" in err and "idler 12 GHz" in err


def test_over_driven_ring_is_a_domain_error_naming_the_ring(tmp_path, capsys):
    # five times the reference ring pump power puts its beta^2 near 0.019,
    # past the first-order limit of 0.01; the waveguide state stays below it
    def edit(raw):
        raw["ring_comparator"]["pulse"]["peak_power_mw"] = 5.0

    out = tmp_path / "o"
    assert run("jsd", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith(
        "domain error: ring state: pair probability per pulse too large")
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
@pytest.mark.parametrize("subcommand,section,key", [
    pytest.param("contrast-sweep", "nonlinear", "gamma_per_w_m", id="nonlinear-gamma_per_w_m"),
    pytest.param("contrast-sweep", "pulse", "peak_power_mw", id="pulse-peak_power_mw"),
    # the steps before the contrast sweep succeed, and their files are not written
    pytest.param("report", "pulse", "peak_power_mw", id="report-pulse-peak_power_mw"),
])
def test_contrast_sweep_zero_pair_rate_is_domain_error(tmp_path, capsys, subcommand,
                                                       section, key):
    # any warning (the log of a zero rate) fails the test by the filter above
    def edit(raw):
        raw[section][key] = 0.0

    out = tmp_path / "o"
    assert run(subcommand, "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "pair rate is zero" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand", ["stim-sweep", "report"])
@pytest.mark.parametrize("key", ["gamma_per_w_m", "pump_power_mw", "signal_power_mw"])
def test_stim_sweep_zero_idler_rate_is_domain_error(tmp_path, capsys, subcommand, key):
    # no stimulated idler makes the swept rate zero everywhere: the message
    # names the column and the cause, as contrast-sweep's does for a zero pair rate
    def edit(raw):
        raw["nonlinear"][key] = 0.0

    out = tmp_path / "o"
    assert run(subcommand, "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err == ("domain error: idler_rate_per_s_per_mw2 is zero (zero gamma, pump "
                   "power or signal power); dip contrast undefined\n")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_range_without_the_bragg_wavelength(tmp_path, capsys, fmt):
    # 1552-1560 nm lies inside the model domain but above the stopband at
    # 1546.080 nm: its transmission minimum is no stopband, so the summary is
    # null and the data rows are the same as on any other range
    def edit(raw):
        raw["spectrum"].update(start_nm=1552.0, stop_nm=1560.0)

    out = tmp_path / "o"
    assert run("spectrum", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out), "--format", fmt) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "no stopband: Bragg wavelength 1546.080 nm lies outside the spectrum "
        "range 1552.000-1560.000 nm")
    if fmt == "csv":
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "wavelength_nm,transmission,transmission_db"
        assert len(lines) == 4002   # 4001 points on an 8 nm / 2 pm grid
        assert lines[1].startswith("1.55200000e+03,")
    else:
        obj = json.loads((out / "spectrum.json").read_text())
        assert obj["summary"] == {"center_wavelength_nm": None, "rejection_db": None,
                                  "band_width_nm": None}
        assert len(obj["columns"]["wavelength_nm"]) == 4001


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


def test_stim_sweep_without_a_dip_writes_nothing(tmp_path, capsys):
    # gamma = 0 makes every rate zero, so the dip contrast is undefined
    broken = json.loads(json.dumps(TINY))
    broken["nonlinear"]["gamma_per_w_m"] = 0.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    out = tmp_path / "o"
    assert run("stim-sweep", "--config", str(path), "--out", str(out)) == 3
    assert "dip contrast undefined" in capsys.readouterr().err
    assert not (out / "stim_sweep.csv").exists()


@pytest.mark.parametrize("subcommand", ["stim-sweep", "report"])
def test_narrow_stim_sweep_names_the_excluded_band(tmp_path, capsys, subcommand):
    # the whole 0.9 nm sweep lies within the 1 nm the dip's baseline leaves out
    def edit(raw):
        raw["pump_sweep"].update(start_nm=1545.6, stop_nm=1546.5)

    out = tmp_path / "o"
    assert run(subcommand, "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "no baseline points outside the excluded band" in err
    assert "pump_wavelength_nm within 1 of the dip" in err
    assert "spans only 1545.6 to 1546.5" in err
    assert not out.exists()


def test_out_under_a_regular_file_is_io_error(tiny_config, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "o"
    assert run("design", "--config", str(tiny_config), "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith(f"i/o error: cannot create output directory {out}:")


def test_overwrite_requires_force(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out)) == 0
    assert run("stim-sweep", "--config", str(tiny_config), "--out", str(out)) == 4
    assert "--force" in capsys.readouterr().err


def test_report_refuses_to_overwrite_before_writing_anything(tiny_config, tmp_path, capsys):
    out = tmp_path / "report"
    out.mkdir()
    (out / "design.json").write_text("{}\n")
    assert run("report", "--config", str(tiny_config), "--out", str(out)) == 4
    assert "design.json (use --force)" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["design.json"]


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


def test_spont_rate_csv_names_the_json_fields(tiny_config, tmp_path):
    assert run("spont-rate", "--config", str(tiny_config), "--out",
               str(tmp_path / "json"), "--format", "json") == 0
    spont = json.loads((tmp_path / "json" / "spont_rate.json").read_text())["spontaneous"]
    lossless = dict(TINY, nonlinear=dict(TINY["nonlinear"], coupling_loss_db=None))
    config = tmp_path / "lossless.json"
    config.write_text(json.dumps(lossless))
    for cfg, out in ((tiny_config, "csv"), (config, "lossless")):
        assert run("spont-rate", "--config", str(cfg), "--out", str(tmp_path / out),
                   "--format", "csv") == 0
    header, row = (tmp_path / "csv" / "spont_rate.csv").read_text().splitlines()
    assert header.split(",") == list(spont)
    assert row.split(",") == list(spont.values())
    header, row = (tmp_path / "lossless" / "spont_rate.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["rate_per_s_per_mw2_external"] == ""
    assert all(v for k, v in cells.items() if k != "rate_per_s_per_mw2_external")


@pytest.mark.parametrize("key", ["gamma_per_w_m", "pump_power_mw"])
def test_spont_rate_without_stimulated_idler(tmp_path, key):
    # no stimulated idler: no pairs, and both per-mW^2 cells read 0, not empty
    config = tmp_path / "idle.json"
    config.write_text(json.dumps(dict(TINY, nonlinear=dict(TINY["nonlinear"], **{key: 0.0}))))
    assert run("spont-rate", "--config", str(config), "--out", str(tmp_path / "o")) == 0
    header, row = (tmp_path / "o" / "spont_rate.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    for name in ("rate_per_s", "power_w", "rate_per_s_per_mw2", "rate_per_s_per_mw2_external"):
        assert cells[name] == "0.00000000e+00"


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


@pytest.mark.parametrize("contrasts", [[0.002, 0.0034985, 0.008], [0.002, 0.004, 0.008]],
                         ids=["delta_n-swept", "delta_n-not-swept"])
def test_contrast_sweep_call_count(tmp_path, monkeypatch, contrasts):
    # one designed_pair_rate call per swept contrast, then one per design of
    # the rejection comparison, whether or not the grating's own contrast is
    # among the swept ones
    from braggsim import model, quantum
    raw = dict(TINY, contrast_sweep=dict(TINY["contrast_sweep"], contrasts=contrasts))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    point = quantum.designed_pair_rate
    real = quantum.contrast_sweep
    seen = []

    def counting(*args, **kwargs):
        seen.append(args[1])
        return point(*args, **kwargs)

    monkeypatch.setattr(quantum, "designed_pair_rate", counting)
    out = tmp_path / "out"
    assert run("contrast-sweep", "--config", str(path), "--out", str(out),
               "--format", "json") == 0
    assert len(seen) == len(contrasts) + 2
    assert seen[-2:] == [12.0, 30.0]
    cfg = cli.build_scenario(raw)
    rates = [real(cfg.grating, db, [0.0034985], cfg.params, cfg.pulse,
                  cfg.signal_window).sweep.column("pair_rate_per_s")[0]
             for db in (12.0, 30.0)]
    cmp_obj = json.loads((out / "contrast_sweep.json").read_text())["rejection_comparison"]
    assert cmp_obj["target_rate_per_s"] == model._FMT.format(float(rates[0]))
    assert cmp_obj["compare_rate_per_s"] == model._FMT.format(float(rates[1]))


def test_rejection_comparison_names_an_out_of_range_delta_n(tmp_path, capsys):
    # every swept contrast is valid; the grating's own delta_n is not
    def edit(raw):
        raw["structure"]["delta_n"] = 0.02

    out = tmp_path / "o"
    assert run("contrast-sweep", "--config", str(reference_variant(tmp_path, edit)),
               "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: delta_n 0.02 lies outside")
    assert not out.exists()


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


def test_report_streams_each_jsd_csv(tmp_path, monkeypatch):
    # each JSD CSV reaches _Out.write as its header plus a lazy sequence of
    # blocks of at most _JSD_BLOCK whole signal rows, so no 201^2 table is
    # ever held as one string (README gives the peak RSS this saves)
    real = cli._Out.write
    seen = {}

    def recording(self, name, text, blocks=()):
        if name.startswith("jsd_") and name.endswith(".csv"):
            assert iter(blocks) is blocks
            blocks = seen[name] = list(blocks)
            assert text == cli._JSD_CSV_HEADER
        return real(self, name, text, blocks)

    monkeypatch.setattr(cli._Out, "write", recording)
    out = tmp_path / "o"
    assert run("report", "--out", str(out), "--quiet") == 0
    assert sorted(seen) == ["jsd_bw.csv", "jsd_ring.csv"]
    points = cli.build_scenario(cli.load_config_dict(cli.bundled_config_path())).jsd_points
    for name, blocks in seen.items():
        signals = [[line.split(",")[0] for line in block.splitlines()] for block in blocks]
        assert len(blocks) == -(-points // cli._JSD_BLOCK)
        for rows in signals:
            assert len(set(rows)) <= cli._JSD_BLOCK
            assert len(rows) == len(set(rows)) * points
        assert len({lam for rows in signals for lam in rows}) == points
        assert (out / name).read_text() == cli._JSD_CSV_HEADER + "".join(blocks)


def test_jsd_csv_matches_per_value_format():
    # the blocks of cli._JSD_BLOCK signal rows are formatted by numpy
    # (model._format_cells); they must equal _FMT applied value by value,
    # here on a non-square state of two blocks whose values span many
    # decades and include an exact zero and a density below 1e-99 (a 3-digit
    # exponent)
    import numpy as np
    from braggsim import model
    from braggsim.quantum import TwoPhotonState
    rng = np.random.default_rng(5)
    amp = 1e-11 * rng.standard_normal((20, 7)) * 10.0 ** rng.uniform(-6.0, 0.0, (20, 7))
    amp[1, 2] = 0.0
    amp[3, 4] = 1e-70
    state = TwoPhotonState(amp, model.grid_around_omega(1.21e15, 2e11, 20),
                           model.grid_around_omega(1.23e15, 3e11, 7))
    lam1 = state.signal_grid.wavelengths * 1e9
    lam2 = state.idler_grid.wavelengths * 1e9
    expected = "".join(
        ",".join(model._FMT.format(float(v)) for v in (lam1[a], lam2[b], state.jsd[a, b]))
        + "\n" for a in range(19, -1, -1) for b in range(6, -1, -1))
    assert state.jsd[3, 4] < 1e-99 and cli._JSD_BLOCK < 20
    assert "".join(cli._jsd_csv(state)) == expected


def test_report_and_jsd_raise_no_warning(tiny_config, tmp_path):
    # the numpy formatter and the FFT pump-pair spectrum must stay silent
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("report", "--config", str(tiny_config), "--out",
                   str(tmp_path / "report"), "--quiet") == 0
        assert run("jsd", "--config", str(cli.bundled_config_path()), "--out",
                   str(tmp_path / "jsd"), "--quiet") == 0


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


@pytest.mark.parametrize("points", [None, "21"])
def test_report_is_its_steps(tiny_config, tmp_path, points):
    # report writes the data files of the six other subcommands byte for
    # byte, and its --points resizes only the spectrum
    def data_files(subcommand, *flags):
        out = tmp_path / subcommand
        assert run(subcommand, "--config", str(tiny_config), "--out", str(out), "--quiet",
                   *flags) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_meta.json"}

    flags = () if points is None else ("--points", points)
    steps = {}
    for subcommand in ("spectrum", "design", "stim-sweep", "spont-rate", "contrast-sweep",
                       "jsd"):
        steps.update(data_files(subcommand, *(flags if subcommand == "spectrum" else ())))
    assert len(steps) == 7
    assert steps["spectrum.csv"].count(b"\n") == (82 if points is None else 22)
    assert data_files("report", *flags) == steps


def _returned(subcommand, raw, fmt, points=None):
    """Each file that the steps of `subcommand` return for `raw`, by name, as text."""
    cfg = cli.build_scenario(raw)
    files = []
    for name, step_points in cli._steps(subcommand, points):
        files += cli._RUNNERS[name](cfg, fmt, step_points, None)[0]
    return {name: text + "".join(blocks) for name, text, blocks in files}


@pytest.mark.parametrize("subcommand,raw,points", [
    ("report", TINY, None),
    ("report", {key: value for key, value in TINY.items() if key != "jsd"}, None),
    ("stim-sweep", TINY, 37),
], ids=["report", "report-default-jsd", "stim-sweep-points"])
def test_benchmark_expected_outputs_match_the_runners(monkeypatch, subcommand, raw, points):
    # the benchmark's output check keeps its own copy of the point-count rules
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads
    files = _returned(subcommand, raw, "csv", points)
    rows = {name: text.count("\n") - 1 for name, text in files.items() if name.endswith(".csv")}
    docs = sorted(name for name in files if name.endswith(".json"))
    expected_rows, expected_docs = workloads.expected_outputs(subcommand, raw, points)
    assert rows == expected_rows
    assert docs == sorted(expected_docs)


def test_names_the_tracer_binds_resolve(monkeypatch):
    # perfbench/traced.py wraps each of its targets and calls
    # cli._apply_thread_env; a name deleted or renamed here would otherwise
    # fail only the benchmark's traced run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    import importlib
    from perfbench import traced
    missing = []
    for _, module, attr, _, _ in traced.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []
    assert callable(getattr(cli, "_apply_thread_env", None))


def test_readme_output_schemas_name_every_report_file():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Output schemas", 1)[1].split("\n## ", 1)[0]
    ring = cli.load_config_dict(cli.bundled_config_path())["ring_comparator"]
    names = {"run_meta.json"}
    for fmt in ("csv", "json"):
        names.update(_returned("report", dict(TINY, ring_comparator=ring), fmt))
    assert not [name for name in sorted(names) if f"`{name}`" not in section]


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
    # None: automatic, which the parser reports as 0
    from braggsim import threads
    monkeypatch.setenv("BRAGGSIM_THREADS", raw)
    assert threads.requested_threads() == (expected or 0)


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_thread_count_invalid(monkeypatch, raw):
    from braggsim import threads
    monkeypatch.setenv("BRAGGSIM_THREADS", raw)
    with pytest.raises(ValueError, match="BRAGGSIM_THREADS"):
        threads.requested_threads()


@pytest.mark.parametrize("subcommand,unloaded", [
    ("design", ["braggsim.quantum", "concurrent.futures"]),
    ("stim-sweep", ["numpy.ma", "braggsim.quantum", "concurrent.futures"]),
    ("report", ["numpy.ma", "concurrent.futures"]),
], ids=["design", "stim-sweep", "report"])
def test_commands_leave_unused_modules_unloaded(tmp_path, subcommand, unloaded):
    # every run pays its imports at start-up: numpy.ma costs 15-17 ms, and
    # neither design nor stim-sweep needs quantum; every command imports fwm,
    # so its import-time cost is checked too. concurrent.futures (7-10 ms,
    # with logging) stays out
    code = ("import sys; from braggsim import cli; "
            f"code = cli.main([{subcommand!r}, '--config', str(cli.bundled_config_path()), "
            f"'--out', {str(tmp_path)!r}, '--quiet']); "
            f"print(code, 'braggsim.fwm' in sys.modules, "
            f"*(name in sys.modules for name in {unloaded!r}))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": _SRC, "BRAGGSIM_THREADS": "2"})
    assert done.stdout.split() == ["0", "True"] + ["False"] * len(unloaded), done.stderr


def _braggsim(*args, threads="2"):
    """`python -m braggsim *args` in a fresh process, as a CompletedProcess."""
    return subprocess.run([sys.executable, "-m", "braggsim", *args], capture_output=True,
                          text=True, timeout=120,
                          env={"PYTHONPATH": _SRC, "BRAGGSIM_THREADS": threads})


@pytest.mark.parametrize("args,code,stdout,stderr", [
    (["design"], 0, ["N=2069", "wrote {out}/design.json"], []),
    (["design", "--points", "21"], 2, [], ["config error: --points: not read by design"]),
    (["design", "--config", "{missing}"], 4, [],
     ["i/o error: config file not found: {missing}"]),
], ids=["ok", "config-error", "io-error"])
def test_entry_point_exit_codes_and_messages(tmp_path, args, code, stdout, stderr):
    # the process exits with main's code after printing main's lines in full
    names = {"out": tmp_path / "out", "missing": tmp_path / "nope.json"}
    done = _braggsim(*(arg.format(**names) for arg in args), "--out", str(names["out"]))
    assert done.returncode == code
    assert done.stdout.splitlines() == [line.format(**names) for line in stdout]
    assert done.stderr.splitlines() == [line.format(**names) for line in stderr]


def test_only_the_entry_point_freezes_the_collector(tiny_config, tmp_path):
    # main() in-process leaves the collector alone; the entry point freezes
    # it once main has returned, and atexit handlers still run after that
    import gc
    before = gc.get_freeze_count()
    assert run("design", "--config", str(tiny_config), "--out", str(tmp_path / "in"),
               "--quiet") == 0
    assert gc.get_freeze_count() == before
    code = ("import atexit, gc, sys; from braggsim import cli; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
            f"sys.argv = ['braggsim', 'design', '--out', {str(tmp_path / 'out')!r}, "
            "'--quiet']; cli.entry()")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": _SRC})
    assert (done.returncode, done.stdout, done.stderr) == (0, "frozen True\n", "")


def test_report_files_do_not_depend_on_the_thread_count(tmp_path):
    # BRAGGSIM_THREADS sets the BLAS threads before numpy loads, so each count
    # runs in a process of its own
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = _braggsim("report", "--out", str(out), "--quiet", threads=threads)
        assert done.returncode == 0, done.stderr
        files.append({p.name: p.read_bytes() for p in out.iterdir()
                      if p.name != "run_meta.json"})
    assert len(files[0]) == 9
    assert files[0] == files[1]


def test_jsd_takes_no_decomposition(tmp_path, monkeypatch):
    # purity is tr rho^2, a sum over blocks of A A^H; only reading the Schmidt
    # coefficients, which the command line never does, takes the SVD of A
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("a decomposition was taken")

    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run("jsd", "--points", "41", "--out", str(tmp_path / "o"), "--quiet") == 0


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
