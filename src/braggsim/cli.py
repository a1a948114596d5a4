"""Command-line front end: config parsing, scenario execution, file output.

Design rules:
* data files are deterministic — fixed scientific notation, no timestamps;
  run metadata (clock, versions) lives in a sidecar `run_meta.json`;
* exit codes separate config errors (2), domain errors (3), and I/O errors
  (4); an unknown or duplicate config key is a config error;
* a runner computes its files and messages and writes nothing; _Out.save
  writes every file through _Out.write once every step's runner has
  returned, so a failed run leaves no data files;
* the table _SCHEMA is the config schema; physical fields carry unit
  suffixes (_nm, _um, _mw, _ghz, _ns, _ps) and are converted to SI on load;
* the BRAGGSIM_THREADS environment variable caps BLAS/OpenMP parallelism
  (0 or unset = automatic), which is why the numeric modules are imported
  only after it has been applied; the overlap kernel runs on the calling
  thread.
"""
from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .threads import requested_threads

if TYPE_CHECKING:   # numpy must not load before _apply_thread_env runs
    from .model import CollectionWindow, GratingSpec, NonlinearParams, PumpPulse, RingSpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

class ConfigError(Exception):
    """Configuration file violates the schema; message carries the field path."""


class IOFailure(Exception):
    """Filesystem-level failure (missing input, refusing to overwrite, ...)."""


def _apply_thread_env() -> None:
    """Cap BLAS/OpenMP parallelism before numpy is imported anywhere."""
    try:
        n = requested_threads()
    except ValueError as exc:
        raise ConfigError(str(exc))
    if n == 0:
        return
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(n)


def bundled_config_path() -> Path:
    return Path(__file__).resolve().parent / "data" / "reference.json"


# --------------------------------------------------------------------------
# config loading


_REQUIRED = object()    # the default of a key that must be given
_DUPLICATE = object()   # the value of a key that one JSON object gives twice

# One config key: the keyword argument that it feeds; its JSON kind (a number
# is finite, a list holds numbers, a tuple lists the kinds allowed, and a
# dict is a sub-table of keys); its scale to SI units; its default in
# config units, or _REQUIRED; whether it may be null; and one bound, an
# (operator, limit) pair on the value as written.
_Field = namedtuple("_Field", "keyword kind scale default nullable bound",
                    defaults=(1.0, _REQUIRED, False, None))
_KINDS = {"number": (int, float), "integer": int, "string": str, "list": list, "object": dict}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "in": lambda value, allowed: value in allowed}

_PULSE = {
    "shape": _Field("shape", "string", bound=("in", ("tophat", "gaussian"))),
    # exactly one of the two durations; build_scenario checks which was given
    "duration_ns": _Field("duration", "number", 1e-9, None),
    "duration_ps": _Field("duration", "number", 1e-12, None),
    "peak_power_mw": _Field("peak_power", "number", 1e-3),
    "center_wavelength_nm": _Field("center_wavelength", "number", 1e-9),
}
_CENTER = _Field("center_wavelength", "number", 1e-9)
_WIDTH = _Field("width", "number", 2.0 * math.pi * 1e9)

# The config schema. A section's keywords are those of the model class that
# build_scenario makes from it, or ScenarioConfig's own fields.
_SCHEMA = _Field("", {
    "structure": _Field("structure", {
        "type": _Field("type", "string", bound=("in", ("grating",))),
        "period_nm": _Field("period", "number", 1e-9),
        "duty_cycle": _Field("duty_cycle", "number"),
        "n_periods": _Field("n_periods", "integer"),
        "n_lo": _Field("n_lo", "number"),
        "delta_n": _Field("delta_n", "number"),
        "lead_in_um": _Field("lead_in_length", "number", 1e-6, 0.0),
        "lead_out_um": _Field("lead_out_length", "number", 1e-6, 0.0),
    }),
    "ring_comparator": _Field("ring_comparator", {
        "radius_um": _Field("radius", "number", 1e-6),
        "pump_resonance_nm": _Field("lambda_p", "number", 1e-9),
        "signal_resonance_nm": _Field("lambda_s", "number", 1e-9),
        "idler_resonance_nm": _Field("lambda_i", "number", 1e-9),
        "quality_factor": _Field("quality_factor", ("number", "list")),
        "group_index": _Field("group_index", "number", default=None, nullable=True),
        "pulse": _Field("pulse", _PULSE),
    }, default=None),
    "nonlinear": _Field("nonlinear", {
        "gamma_per_w_m": _Field("gamma", "number"),
        "pump_power_mw": _Field("coupled_pump_power", "number", 1e-3),
        "signal_power_mw": _Field("coupled_signal_power", "number", 1e-3),
        "coupling_loss_db": _Field("coupling_loss_db", "number", default=None, nullable=True),
    }),
    "pulse": _Field("pulse", _PULSE),
    "windows": _Field("windows", {
        "signal": _Field("signal", {"center_nm": _CENTER, "width_ghz": _WIDTH}),
        "idler": _Field("idler", {"center_nm": _CENTER._replace(nullable=True),
                                  "width_ghz": _WIDTH}),
    }),
    "spectrum": _Field("spectrum", {
        "start_nm": _Field("start", "number", 1e-9, bound=(">", 0)),
        "stop_nm": _Field("stop", "number", 1e-9),
        "step_pm": _Field("step", "number", 1e-12, bound=(">", 0)),
    }),
    "pump_sweep": _Field("pump_sweep", {
        "start_nm": _Field("start", "number", 1e-9, bound=(">", 0)),
        "stop_nm": _Field("stop", "number", 1e-9),
        "points": _Field("points", "integer", bound=(">=", 2)),
        "signal_nm": _Field("signal", "number", 1e-9, bound=(">", 0)),
    }),
    "contrast_sweep": _Field("contrast_sweep", {
        "contrasts": _Field("contrasts", "list"),
        "target_rejection_db": _Field("target_rejection_db", "number"),
        "compare_rejection_db": _Field("compare_rejection_db", "number", default=None,
                                       nullable=True),
    }),
    "jsd": _Field("jsd", {
        "points": _Field("jsd_points", "integer", default=201, bound=(">=", 2)),
        "ring_span_linewidths": _Field("ring_span_linewidths", "number", default=6.0,
                                       bound=(">", 0)),
    }, default={}),
})


def _mark_duplicates(pairs) -> dict:
    keys = [key for key, _ in pairs]
    return {key: _DUPLICATE if keys.count(key) > 1 else value for key, value in pairs}


def load_config_dict(path) -> dict:
    """The parsed config; a key given twice in one object reads as _DUPLICATE."""
    p = Path(path)
    if not p.is_file():
        raise IOFailure(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_mark_duplicates)
    except (ValueError, RecursionError) as exc:   # also a huge integer, deep nesting
        raise ConfigError(f"{p}: not valid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return raw


def _walk(field: _Field, value, path: str):
    """`value` checked against its table entry and scaled to SI units. A sub-table
    gives the keyword arguments of its keys; those absent take their default."""
    if value is _DUPLICATE:
        raise ConfigError(f"{path}: duplicate key")
    if value is None and field.nullable:
        return None
    kinds = ("object",) if isinstance(field.kind, dict) else \
        field.kind if isinstance(field.kind, tuple) else (field.kind,)
    for kind in kinds:
        if isinstance(value, _KINDS[kind]) and not isinstance(value, bool):
            break
    else:
        got = "null" if value is None else type(value).__name__
        raise ConfigError(f"{path}: expected {'/'.join(kinds)}, got {got}")
    if kind == "list":
        return tuple(_walk(_Field("", "number"), x, path) for x in value)
    if kind == "object":
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in field.kind:
                raise ConfigError(f"{prefix}{key}: unknown key")
        out = {}
        for key, sub in field.kind.items():
            if key in value:
                out[sub.keyword] = _walk(sub, value[key], prefix + key)
            elif sub.default is _REQUIRED:
                raise ConfigError(f"{prefix}{key}: required field is missing")
            elif sub.keyword not in out:    # else the other duration key fed it
                out[sub.keyword] = None if sub.default is None else \
                    _walk(sub, sub.default, prefix + key)
        return out
    if kind == "number" and not abs(value) <= sys.float_info.max:    # NaN, inf, 10**400
        raise ConfigError(f"{path}: must be a finite number, got {value}")
    if field.bound is not None and not _BOUNDS[field.bound[0]](value, field.bound[1]):
        raise ConfigError(f"{path}: must be {field.bound[0]} {field.bound[1]!r}, got {value!r}")
    return float(value) * field.scale if kind == "number" else value


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully converted scenario: structures, drive, windows, sweep ranges."""

    grating: GratingSpec
    ring: RingSpec | None
    ring_pulse: PumpPulse | None
    params: NonlinearParams
    pulse: PumpPulse
    signal_window: CollectionWindow
    idler_window: CollectionWindow
    spectrum_grid_args: tuple   # (center_m, span_m, n_points)
    pump_sweep_args: tuple      # (start_m, stop_m, points, signal_m)
    contrasts: tuple
    target_rejection_db: float
    compare_rejection_db: float | None
    jsd_points: int
    ring_span_linewidths: float


def build_scenario(raw: dict) -> ScenarioConfig:
    from . import fwm, model

    def build(path, cls, kwargs):
        try:
            return cls(**kwargs)
        except model.InvalidArgument as exc:
            raise ConfigError(f"{path}: {exc}")

    def pump_pulse(path, kwargs, written):
        if ("duration_ns" in written) == ("duration_ps" in written):
            raise ConfigError(f"{path}: exactly one of duration_ns/duration_ps is required")
        return build(path, model.PumpPulse, kwargs)

    c = _walk(_SCHEMA, raw, "")
    del c["structure"]["type"]
    grating = build("structure", model.GratingSpec, c["structure"])
    params = build("nonlinear", model.NonlinearParams, c["nonlinear"])
    pulse = pump_pulse("pulse", c["pulse"], raw["pulse"])

    signal, idler = c["windows"]["signal"], c["windows"]["idler"]
    signal_window = build("windows.signal", model.CollectionWindow, signal)
    if idler["center_wavelength"] is None:    # from energy conservation with the pump
        idler["center_wavelength"] = fwm.idler_wavelength(pulse.center_wavelength,
                                                          signal_window.center_wavelength)
    idler_window = build("windows.idler", model.CollectionWindow, idler)

    ring = ring_pulse = None
    rc = c["ring_comparator"]
    if rc is not None:
        if isinstance(rc["quality_factor"], tuple) and len(rc["quality_factor"]) != 3:
            raise ConfigError("ring_comparator.quality_factor: expected a number or 3 numbers")
        ring_pulse = pump_pulse("ring_comparator.pulse", rc.pop("pulse"),
                                raw["ring_comparator"]["pulse"])
        ring = build("ring_comparator", model.RingSpec, rc)

    sp, ps = c["spectrum"], c["pump_sweep"]
    for name, sweep in (("spectrum", sp), ("pump_sweep", ps)):
        if sweep["stop"] <= sweep["start"]:
            raise ConfigError(f"{name}.stop_nm: must be > start_nm")
    n_points = int(round((sp["stop"] - sp["start"]) / sp["step"])) + 1
    if n_points < 2:
        raise ConfigError("spectrum.step_pm: gives fewer than 2 points from start_nm to stop_nm")
    if not c["contrast_sweep"]["contrasts"]:
        raise ConfigError("contrast_sweep.contrasts: must not be empty")
    return ScenarioConfig(
        grating=grating, ring=ring, ring_pulse=ring_pulse, params=params, pulse=pulse,
        signal_window=signal_window, idler_window=idler_window,
        spectrum_grid_args=(0.5 * (sp["start"] + sp["stop"]), sp["stop"] - sp["start"],
                            n_points),
        pump_sweep_args=(ps["start"], ps["stop"], ps["points"], ps["signal"]),
        **c["contrast_sweep"], **c["jsd"])


# --------------------------------------------------------------------------
# output helpers


class _Out:
    """Writes the files of one run into one directory, all of them or none."""

    def __init__(self, directory: Path, force: bool, quiet: bool):
        self.dir = directory
        self.force = force
        self.quiet = quiet

    def write(self, name: str, text: str, blocks=()) -> Path:
        """Write `text`, then each string of `blocks` as it is produced, so a
        large table need never be held as one string."""
        target = self.dir / name
        try:
            with target.open("w") as f:
                f.write(text)
                f.writelines(blocks)
        except OSError as exc:
            raise IOFailure(f"cannot write {target}: {exc}")
        return target

    def save(self, files, messages, subcommand: str, config_path) -> None:
        """Write `files`, the runners' (name, text, blocks) triples, then the
        sidecar; print the runners' `messages` and the data files written. No
        file is written when a data file exists and --force is not given."""
        import datetime

        from . import __version__
        for name, _, _ in files:
            if (self.dir / name).exists() and not self.force:
                raise IOFailure(f"refusing to overwrite {self.dir / name} (use --force)")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IOFailure(f"cannot create output directory {self.dir}: {exc}")
        written = [self.write(*file) for file in files]
        meta = {
            "tool": f"braggsim {__version__}",
            "subcommand": subcommand,
            "config": str(config_path),
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        self.write("run_meta.json", json.dumps(meta, indent=2) + "\n")
        if not self.quiet:
            for line in messages + [f"wrote {path}" for path in written]:
                print(line)


def _json_text(obj) -> str:
    from .model import _FMT

    def fmt(value):
        """Recursively format floats as fixed-width scientific strings."""
        if isinstance(value, float):
            return _FMT.format(value)
        if isinstance(value, dict):
            return {k: fmt(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [fmt(v) for v in value]
        return value

    return json.dumps(fmt(obj), indent=2) + "\n"


# --------------------------------------------------------------------------
# subcommand implementations


def _table(stem: str, fmt: str, sweep, extras: dict) -> tuple:
    """The sweep's CSV, its rows in blocks, or its JSON with `extras`."""
    if fmt == "csv":
        return f"{stem}.csv", sweep.csv_header(), sweep.csv_blocks()
    return f"{stem}.json", _json_text({"columns": sweep.to_json_obj(), **extras}), ()


def _run_spectrum(cfg: ScenarioConfig, fmt: str, points, rejection_db):
    from .model import make_wavelength_grid
    from .transfer import spectrum_stopband, transmission_spectrum
    center, span, n_points = cfg.spectrum_grid_args
    grid = make_wavelength_grid(center, span, points or n_points)
    sweep = transmission_spectrum(cfg.grating, grid)
    bragg_nm = cfg.grating.bragg_wavelength * 1e9
    lo_nm, hi_nm = sweep.x[0], sweep.x[-1]
    if not lo_nm <= bragg_nm <= hi_nm:
        # the transmission minimum of such a range is a sidelobe or an edge
        summary = dict.fromkeys(("center_wavelength_nm", "rejection_db", "band_width_nm"))
        message = (f"no stopband: Bragg wavelength {bragg_nm:.3f} nm lies outside "
                   f"the spectrum range {lo_nm:.3f}-{hi_nm:.3f} nm")
    else:
        report = spectrum_stopband(sweep)
        summary = {
            "center_wavelength_nm": report.center_wavelength * 1e9,
            "rejection_db": report.rejection_db,
            "band_width_nm": None if report.band_width is None else report.band_width * 1e9,
        }
        message = (f"stopband center {report.center_wavelength * 1e9:.3f} nm, "
                   f"rejection {report.rejection_db:.2f} dB")
    return [_table("spectrum", fmt, sweep, {"summary": summary})], [message]


def _run_design(cfg: ScenarioConfig, fmt: str, points, rejection_db):
    from .transfer import design_periods, rejection_estimate_db
    target = cfg.target_rejection_db if rejection_db is None else rejection_db
    n = design_periods(target, cfg.grating.n_lo, cfg.grating.delta_n)
    result = {
        "target_rejection_db": target,
        "n_lo": cfg.grating.n_lo,
        "delta_n": cfg.grating.delta_n,
        "n_periods": n,
        "estimated_rejection_db": rejection_estimate_db(n, cfg.grating.n_lo,
                                                        cfg.grating.delta_n),
    }
    return [("design.json", _json_text(result), ())], [f"N={n}"]


def _run_stim_sweep(cfg: ScenarioConfig, fmt: str, points, rejection_db):
    import numpy as np

    from .fwm import dip_report, pump_sweep
    start, stop, n_points, signal = cfg.pump_sweep_args
    lam = np.linspace(start, stop, points or n_points)
    sweep = pump_sweep(cfg.grating, cfg.params, lam, signal)
    dip = dip_report(sweep)
    extras = {}
    if cfg.params.coupling_loss_db is not None:
        extras["external_per_internal_rate_factor"] = cfg.params.facet_transmission ** 2
    return [_table("stim_sweep", fmt, sweep, extras)], [
        f"idler dip at {dip.center_x:.3f} nm, "
        f"suppression {dip.suppression_db:.1f} dB vs off-band median"]


def _run_spont_rate(cfg: ScenarioConfig, fmt: str, points, rejection_db):
    from .fwm import stimulated_idler
    from .model import _FMT, omega_from_wavelength
    from .quantum import spont_from_stim
    w_p = cfg.pulse.center_omega
    w_s = omega_from_wavelength(cfg.signal_window.center_wavelength)
    stim = stimulated_idler(cfg.grating, cfg.params, w_p, w_s)
    spont = spont_from_stim(stim, cfg.params.coupled_signal_power, cfg.signal_window)
    result = {
        "stimulated": {
            "idler_power_w": stim.idler_power,
            "idler_rate_per_s": stim.idler_rate,
            "rate_per_s_per_mw2": stim.rate_per_mw2,
            "rate_per_s_per_mw2_external": stim.rate_per_mw2_external,
            "overlap_magnitude_m": abs(stim.overlap),
        },
        "spontaneous": {
            "rate_per_s": spont.rate,
            "bandwidth_rad_s": spont.bandwidth,
            "power_w": spont.spont_power,
            "rate_per_s_per_mw2": spont.rate_per_mw2,
            "rate_per_s_per_mw2_external": spont.rate_per_mw2_external,
        },
    }
    if fmt == "csv":
        row = result["spontaneous"]
        name, text = "spont_rate.csv", ",".join(row) + "\n" + ",".join(
            "" if v is None else _FMT.format(v) for v in row.values()) + "\n"
    else:
        name, text = "spont_rate.json", _json_text(result)
    return [(name, text, ())], [
        f"spontaneous rate {spont.rate:.3f} pairs/s in the collection window"]


def _run_contrast_sweep(cfg: ScenarioConfig, fmt: str, points, rejection_db):
    from .quantum import contrast_sweep, designed_pair_rate
    report = contrast_sweep(cfg.grating, cfg.target_rejection_db, cfg.contrasts,
                            cfg.params, cfg.pulse, cfg.signal_window)
    slope_text = "undefined (fewer than two distinct contrasts)" if report.slope is None \
        else f"{report.slope:.3f}"
    messages = [f"contrast-sweep slope {slope_text}"]
    extras = {"slope": report.slope, "target_rejection_db": cfg.target_rejection_db}
    if cfg.compare_rejection_db is not None:
        dn = cfg.grating.delta_n
        r0, r1 = (designed_pair_rate(cfg.grating, db, dn, cfg.params, cfg.pulse,
                                     cfg.signal_window)[1]
                  for db in (cfg.target_rejection_db, cfg.compare_rejection_db))
        comparison = extras["rejection_comparison"] = {
            "delta_n": dn,
            "target_rejection_db": cfg.target_rejection_db,
            "compare_rejection_db": cfg.compare_rejection_db,
            "target_rate_per_s": r0,
            "compare_rate_per_s": r1,
            "relative_difference": abs(r1 - r0) / r0,
        }
        messages.append(f"rate change {cfg.target_rejection_db:g} dB -> "
                        f"{cfg.compare_rejection_db:g} dB designs: "
                        f"{100 * comparison['relative_difference']:.2f}%")
    return [_table("contrast_sweep", fmt, report.sweep, extras)], messages


_JSD_CSV_HEADER = "lambda_signal_nm,lambda_idler_nm,jsd_normalized\n"
_JSD_BLOCK = 16  # signal rows per block of JSD CSV text; bounds the temporaries


def _jsd_csv(state):
    """The rows of the JSD CSV below _JSD_CSV_HEADER, ascending in wavelength
    on both axes (the grids ascend in frequency), as one block of text per
    _JSD_BLOCK signal wavelengths. Each wavelength is formatted once: a
    block's signal cells, (rows, 1), and the idler cells, (1, n), broadcast
    against its JSD cells, (rows, n)."""
    from .model import _csv_rows, _format_cells
    lam1 = _format_cells(state.signal_grid.wavelengths[::-1, None] * 1e9)
    lam2 = _format_cells(state.idler_grid.wavelengths[None, ::-1] * 1e9)
    jsd = state.jsd[::-1, ::-1]
    for start in range(0, lam1.shape[0], _JSD_BLOCK):
        stop = start + _JSD_BLOCK
        yield _csv_rows([lam1[start:stop], lam2, _format_cells(jsd[start:stop])])


def _jsd_header(state, report) -> dict:
    return {
        "beta_sq": state.beta_sq,
        "purity": report.purity,
        "schmidt_number": report.schmidt_number,
        "signal_grid_rad_s": {"start": float(state.signal_grid.points[0]),
                              "stop": float(state.signal_grid.points[-1]),
                              "points": state.signal_grid.n_points},
        "idler_grid_rad_s": {"start": float(state.idler_grid.points[0]),
                             "stop": float(state.idler_grid.points[-1]),
                             "points": state.idler_grid.n_points},
    }


def _run_jsd(cfg: ScenarioConfig, fmt: str, points, rejection_db):
    from .quantum import schmidt_analysis, two_photon_state_bw, two_photon_state_ring
    points = points or cfg.jsd_points
    states = [("bw", "waveguide", two_photon_state_bw(cfg.grating, cfg.params, cfg.pulse,
                                                      cfg.signal_window, cfg.idler_window,
                                                      n_points=points))]
    if cfg.ring is not None:
        states.append(("ring", "ring", two_photon_state_ring(
            cfg.ring, cfg.params, cfg.ring_pulse, n_points=points,
            span_linewidths=cfg.ring_span_linewidths)))
    files, messages = [], []
    for stem, label, state in states:
        report = schmidt_analysis(state)
        files += [(f"jsd_{stem}.csv", _JSD_CSV_HEADER, _jsd_csv(state)),
                  (f"jsd_{stem}.json", _json_text(_jsd_header(state, report)), ())]
        messages.append(f"{label} pair state: beta_sq {state.beta_sq:.4e}, "
                        f"purity {report.purity:.4f}")
    if cfg.ring is None:
        messages.append("no ring_comparator configured; skipping ring state")
    return files, messages


# report runs every subcommand of this table, in table order
_RUNNERS = {
    "spectrum": _run_spectrum,
    "design": _run_design,
    "stim-sweep": _run_stim_sweep,
    "spont-rate": _run_spont_rate,
    "contrast-sweep": _run_contrast_sweep,
    "jsd": _run_jsd,
}


def _steps(subcommand: str, points):
    """The (runner name, --points) pair of each step that `subcommand` runs;
    under report, --points sets only the spectrum grid."""
    names = _RUNNERS if subcommand == "report" else (subcommand,)
    return [(name, points if name in (subcommand, "spectrum") else None) for name in names]


# --------------------------------------------------------------------------
# driver


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braggsim",
        description="Transfer-matrix and four-wave-mixing simulator for "
                    "corrugated-waveguide filters and microring pair sources.")
    parser.add_argument("subcommand", choices=[*_RUNNERS, "report"])
    parser.add_argument("--config", default=None,
                        help="scenario config (default: bundled reference)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: ./out/<subcommand>)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--points", type=int, default=None,
                        help="override the principal grid/sweep point count; "
                             "under report it sets only the spectrum grid")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing output files")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--rejection-db", type=float, default=None,
                        help="design target (design subcommand only)")
    return parser


def run_scenario(args) -> int:
    # the subcommands that read each optional flag; the others reject it
    for flag, readers in (("points", ("spectrum", "stim-sweep", "jsd", "report")),
                          ("rejection_db", ("design",))):
        if getattr(args, flag) is not None and args.subcommand not in readers:
            raise ConfigError(f"--{flag.replace('_', '-')}: not read by {args.subcommand}")
    config_path = Path(args.config) if args.config else bundled_config_path()
    cfg = build_scenario(load_config_dict(config_path))
    _walk(_Field("", "integer", nullable=True, bound=(">=", 2)), args.points, "--points")
    _walk(_Field("", "number", nullable=True), args.rejection_db, "--rejection-db")

    files, messages = [], []
    for name, points in _steps(args.subcommand, args.points):
        more_files, more_messages = _RUNNERS[name](cfg, args.format, points,
                                                   args.rejection_db)
        files += more_files
        messages += more_messages
    out_dir = Path(args.out) if args.out else Path("out") / args.subcommand
    _Out(out_dir, force=args.force, quiet=args.quiet).save(files, messages, args.subcommand,
                                                           config_path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_thread_env()
        return run_scenario(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IOFailure, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # domain errors from the numeric modules
        from .model import InvalidArgument, OutOfDomain
        if isinstance(exc, (InvalidArgument, OutOfDomain)):
            print(f"domain error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        raise


def entry():
    """The process entry of `python -m braggsim` and the `braggsim` script:
    exit with main()'s code. The objects still alive then die with the
    process, so gc.freeze() first puts them out of reach of the collections
    the interpreter runs as it shuts down; output is still flushed and atexit
    handlers still run. main() itself, called in-process, leaves the
    collector alone."""
    code = main()
    import gc   # here, past the run's peak: the module is not loaded at start-up
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
