"""Command-line front end: config parsing, scenario execution, file output.

Design rules:
* data files are deterministic — fixed scientific notation, no timestamps;
  run metadata (clock, versions) lives in a sidecar `run_meta.json`;
* exit codes separate config errors (2), domain errors (3), and I/O errors
  (4);
* all physical config fields carry unit suffixes in their names (_nm, _um,
  _mw, _ghz, _ns, _ps) and are converted to SI on load;
* the BRAGGSIM_THREADS environment variable caps numeric parallelism, in
  BLAS/OpenMP and in the overlap kernel's threads (0 or unset = automatic;
  the kernel uses at most two),
  which is why the numeric modules are imported only after it has been
  applied.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
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


def load_config_dict(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise IOFailure(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return raw


def serialize_config(raw: dict) -> str:
    """Canonical JSON form; load -> serialize -> load is the identity."""
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


def _get(section: dict, path: str, key: str, kinds, required: bool = True,
         default=None, nullable: bool = False):
    full = f"{path}.{key}" if path else key
    if key not in section:
        if required:
            raise ConfigError(f"{full}: required field is missing")
        return default
    value = section[key]
    if value is None:
        if nullable:
            return None
        raise ConfigError(f"{full}: must not be null")
    if kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{full}: expected a number, got {type(value).__name__}")
        if not math.isfinite(value):
            raise ConfigError(f"{full}: must be a finite number, got {value}")
        return float(value)
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{full}: expected an integer, got {type(value).__name__}")
        return value
    if not isinstance(value, kinds):
        raise ConfigError(f"{full}: unexpected type {type(value).__name__}")
    return value


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _section(raw: dict, key: str, required: bool = True):
    return _get(raw, "", key, dict, required=required)


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
    from . import model
    from .fwm import idler_wavelength

    def wrap(path, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except model.InvalidArgument as exc:
            raise ConfigError(f"{path}: {exc}")

    s = _section(raw, "structure")
    kind = _get(s, "structure", "type", str)
    if kind != "grating":
        raise ConfigError(f"structure.type: unsupported structure {kind!r}")
    grating = wrap("structure", model.GratingSpec,
                   period=_get(s, "structure", "period_nm", float) * 1e-9,
                   duty_cycle=_get(s, "structure", "duty_cycle", float),
                   n_periods=_get(s, "structure", "n_periods", int),
                   n_lo=_get(s, "structure", "n_lo", float),
                   delta_n=_get(s, "structure", "delta_n", float),
                   lead_in_length=_get(s, "structure", "lead_in_um", float,
                                       required=False, default=0.0) * 1e-6,
                   lead_out_length=_get(s, "structure", "lead_out_um", float,
                                        required=False, default=0.0) * 1e-6)

    n = _section(raw, "nonlinear")
    params = wrap("nonlinear", model.NonlinearParams,
                  gamma=_get(n, "nonlinear", "gamma_per_w_m", float),
                  coupled_pump_power=_get(n, "nonlinear", "pump_power_mw", float) * 1e-3,
                  coupled_signal_power=_get(n, "nonlinear", "signal_power_mw", float) * 1e-3,
                  coupling_loss_db=_get(n, "nonlinear", "coupling_loss_db", float,
                                        required=False, nullable=True))

    pulse = _build_pulse(_section(raw, "pulse"), "pulse", model)

    w = _section(raw, "windows")
    sig = _get(w, "windows", "signal", dict)
    signal_window = wrap("windows.signal", model.CollectionWindow,
                         center_wavelength=_get(sig, "windows.signal", "center_nm", float) * 1e-9,
                         width=2.0 * math.pi * 1e9 * _get(sig, "windows.signal", "width_ghz", float))
    idl = _get(w, "windows", "idler", dict)
    idler_center = _get(idl, "windows.idler", "center_nm", float, nullable=True)
    if idler_center is None:
        # energy conservation against the pump carrier
        center = idler_wavelength(pulse.center_wavelength,
                                  signal_window.center_wavelength)
    else:
        center = idler_center * 1e-9
    idler_window = wrap("windows.idler", model.CollectionWindow,
                        center_wavelength=center,
                        width=2.0 * math.pi * 1e9 * _get(idl, "windows.idler", "width_ghz", float))

    ring = None
    ring_pulse = None
    rc = _section(raw, "ring_comparator", required=False)
    if rc is not None:
        q = rc.get("quality_factor")
        if isinstance(q, list):
            if len(q) != 3 or not all(_is_finite_number(x) for x in q):
                raise ConfigError("ring_comparator.quality_factor: expected a number or a list of 3 finite numbers")
            qval = tuple(float(x) for x in q)
        else:
            qval = _get(rc, "ring_comparator", "quality_factor", float)
        ring = wrap("ring_comparator", model.RingSpec,
                    radius=_get(rc, "ring_comparator", "radius_um", float) * 1e-6,
                    lambda_p=_get(rc, "ring_comparator", "pump_resonance_nm", float) * 1e-9,
                    lambda_s=_get(rc, "ring_comparator", "signal_resonance_nm", float) * 1e-9,
                    lambda_i=_get(rc, "ring_comparator", "idler_resonance_nm", float) * 1e-9,
                    quality_factor=qval,
                    group_index=_get(rc, "ring_comparator", "group_index", float,
                                     required=False, nullable=True))
        ring_pulse = _build_pulse(_get(rc, "ring_comparator", "pulse", dict),
                                  "ring_comparator.pulse", model)

    sp = _section(raw, "spectrum")
    start = _get(sp, "spectrum", "start_nm", float) * 1e-9
    stop = _get(sp, "spectrum", "stop_nm", float) * 1e-9
    step = _get(sp, "spectrum", "step_pm", float) * 1e-12
    if stop <= start or step <= 0:
        raise ConfigError("spectrum: needs stop_nm > start_nm and step_pm > 0")
    n_points = int(round((stop - start) / step)) + 1
    spectrum_args = (0.5 * (start + stop), stop - start, n_points)

    ps = _section(raw, "pump_sweep")
    sweep_args = (_get(ps, "pump_sweep", "start_nm", float) * 1e-9,
                  _get(ps, "pump_sweep", "stop_nm", float) * 1e-9,
                  _get(ps, "pump_sweep", "points", int),
                  _get(ps, "pump_sweep", "signal_nm", float) * 1e-9)
    if sweep_args[1] <= sweep_args[0] or sweep_args[2] < 2:
        raise ConfigError("pump_sweep: needs stop_nm > start_nm and points >= 2")

    cs = _section(raw, "contrast_sweep")
    contrasts = _get(cs, "contrast_sweep", "contrasts", list)
    if not contrasts or not all(_is_finite_number(x) for x in contrasts):
        raise ConfigError("contrast_sweep.contrasts: expected a nonempty list of finite numbers")

    jsd = _section(raw, "jsd", required=False) or {}
    jsd_points = _get(jsd, "jsd", "points", int, required=False, default=201)
    if jsd_points < 2:
        raise ConfigError("jsd.points: must be >= 2")
    ring_span = _get(jsd, "jsd", "ring_span_linewidths", float, required=False,
                     default=6.0)
    if ring_span <= 0:
        raise ConfigError("jsd.ring_span_linewidths: must be > 0")
    return ScenarioConfig(
        grating=grating,
        ring=ring,
        ring_pulse=ring_pulse,
        params=params,
        pulse=pulse,
        signal_window=signal_window,
        idler_window=idler_window,
        spectrum_grid_args=spectrum_args,
        pump_sweep_args=sweep_args,
        contrasts=tuple(float(x) for x in contrasts),
        target_rejection_db=_get(cs, "contrast_sweep", "target_rejection_db", float),
        compare_rejection_db=_get(cs, "contrast_sweep", "compare_rejection_db", float,
                                  required=False, nullable=True),
        jsd_points=jsd_points,
        ring_span_linewidths=ring_span,
    )


def _build_pulse(p: dict, path: str, model):
    shape_name = _get(p, path, "shape", str).lower()
    shapes = {"tophat": model.PulseShape.TOPHAT, "gaussian": model.PulseShape.GAUSSIAN}
    if shape_name not in shapes:
        raise ConfigError(f"{path}.shape: unknown pulse shape {shape_name!r}")
    has_ns = "duration_ns" in p
    has_ps = "duration_ps" in p
    if has_ns == has_ps:
        raise ConfigError(f"{path}: exactly one of duration_ns/duration_ps is required")
    if has_ns:
        duration = _get(p, path, "duration_ns", float) * 1e-9
    else:
        duration = _get(p, path, "duration_ps", float) * 1e-12
    try:
        return model.PumpPulse(
            shape=shapes[shape_name],
            duration=duration,
            peak_power=_get(p, path, "peak_power_mw", float) * 1e-3,
            center_wavelength=_get(p, path, "center_wavelength_nm", float) * 1e-9)
    except model.InvalidArgument as exc:
        raise ConfigError(f"{path}: {exc}")


# --------------------------------------------------------------------------
# output helpers


class _Out:
    """Collects output files for one subcommand run."""

    def __init__(self, directory: Path, force: bool, quiet: bool):
        self.dir = directory
        self.force = force
        self.quiet = quiet
        self.written = []

    def _prepare(self, name: str) -> Path:
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IOFailure(f"cannot create output directory {self.dir}: {exc}")
        target = self.dir / name
        if target.exists() and not self.force:
            raise IOFailure(f"refusing to overwrite {target} (use --force)")
        return target

    def write(self, name: str, text: str, blocks=()) -> Path:
        """Write `text`, then each string of `blocks` as it is produced, so a
        large table need never be held as one string."""
        target = self._prepare(name)
        try:
            with target.open("w") as f:
                f.write(text)
                f.writelines(blocks)
        except OSError as exc:
            raise IOFailure(f"cannot write {target}: {exc}")
        self.written.append(target)
        return target

    def sidecar(self, subcommand: str, config_path) -> None:
        """Run metadata; the only file allowed to differ between runs."""
        import datetime

        from . import __version__
        meta = {
            "tool": f"braggsim {__version__}",
            "subcommand": subcommand,
            "config": str(config_path),
            "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        target = self.dir / "run_meta.json"
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(meta, indent=2) + "\n")
        except OSError as exc:
            raise IOFailure(f"cannot write {target}: {exc}")

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)


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


def _run_spectrum(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
    from .model import make_wavelength_grid
    from .transfer import spectrum_stopband, transmission_spectrum
    center, span, n_points = cfg.spectrum_grid_args
    grid = make_wavelength_grid(center, span, points or n_points)
    sweep = transmission_spectrum(cfg.grating, grid)
    report = spectrum_stopband(sweep)
    summary = {
        "center_wavelength_nm": report.center_wavelength * 1e9,
        "rejection_db": report.rejection_db,
        "band_width_nm": None if report.band_width is None else report.band_width * 1e9,
    }
    if fmt == "csv":
        out.write("spectrum.csv", sweep.to_csv_text())
    else:
        out.write("spectrum.json", _json_text({"columns": sweep.to_json_obj(),
                                               "summary": summary}))
    out.say(f"stopband center {report.center_wavelength * 1e9:.3f} nm, "
            f"rejection {report.rejection_db:.2f} dB")


def _run_design(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
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
    out.write("design.json", _json_text(result))
    out.say(f"N={n}")


def _run_stim_sweep(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
    import numpy as np

    from .fwm import dip_report, pump_sweep
    start, stop, n_points, signal = cfg.pump_sweep_args
    lam = np.linspace(start, stop, points or n_points)
    sweep = pump_sweep(cfg.grating, cfg.params, lam, signal)
    if fmt == "csv":
        out.write("stim_sweep.csv", sweep.to_csv_text())
    else:
        obj = {"columns": sweep.to_json_obj()}
        if cfg.params.coupling_loss_db is not None:
            obj["external_per_internal_rate_factor"] = cfg.params.facet_transmission ** 2
        out.write("stim_sweep.json", _json_text(obj))
    dip = dip_report(sweep)
    out.say(f"idler dip at {dip.center_x:.3f} nm, "
            f"suppression {dip.suppression_db:.1f} dB vs off-band median")


def _run_spont_rate(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
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
        names = ("rate_per_s", "bandwidth_rad_s", "power_w",
                 "rate_per_s_per_mw2", "rate_per_s_per_mw2_external")
        row = [spont.rate, spont.bandwidth, spont.spont_power,
               spont.rate_per_mw2, spont.rate_per_mw2_external]
        text = ",".join(names) + "\n" + ",".join(
            "" if v is None else _FMT.format(v) for v in row) + "\n"
        out.write("spont_rate.csv", text)
    else:
        out.write("spont_rate.json", _json_text(result))
    out.say(f"spontaneous rate {spont.rate:.3f} pairs/s in the collection window")


def _run_contrast_sweep(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
    from .quantum import contrast_sweep
    report = contrast_sweep(cfg.grating, cfg.target_rejection_db, cfg.contrasts,
                            cfg.params, cfg.pulse, cfg.signal_window)
    comparison = None
    if cfg.compare_rejection_db is not None:
        dn = cfg.grating.delta_n

        def rate_at(rejection_db):
            single = contrast_sweep(cfg.grating, rejection_db, [dn], cfg.params,
                                    cfg.pulse, cfg.signal_window)
            return float(single.sweep.column("pair_rate_per_s")[0])

        # the main sweep already holds the target-rejection rate when the
        # grating's own contrast is among the swept ones
        swept = report.sweep.x.tolist()
        r0 = float(report.sweep.column("pair_rate_per_s")[swept.index(dn)]) \
            if dn in swept else rate_at(cfg.target_rejection_db)
        r1 = rate_at(cfg.compare_rejection_db)
        comparison = {
            "delta_n": dn,
            "target_rejection_db": cfg.target_rejection_db,
            "compare_rejection_db": cfg.compare_rejection_db,
            "target_rate_per_s": r0,
            "compare_rate_per_s": r1,
            "relative_difference": abs(r1 - r0) / r0,
        }
    if fmt == "csv":
        out.write("contrast_sweep.csv", report.sweep.to_csv_text())
    else:
        obj = {"columns": report.sweep.to_json_obj(), "slope": report.slope,
               "target_rejection_db": report.target_rejection_db}
        if comparison is not None:
            obj["rejection_comparison"] = comparison
        out.write("contrast_sweep.json", _json_text(obj))
    slope_text = "undefined (single point)" if report.slope is None \
        else f"{report.slope:.3f}"
    out.say(f"contrast-sweep slope {slope_text}")
    if comparison is not None:
        out.say(f"rate change {cfg.target_rejection_db:g} dB -> "
                f"{cfg.compare_rejection_db:g} dB designs: "
                f"{100 * comparison['relative_difference']:.2f}%")


_JSD_CSV_HEADER = "lambda_signal_nm,lambda_idler_nm,jsd_normalized\n"


def _jsd_csv(state):
    """The rows of the JSD CSV below _JSD_CSV_HEADER, one block of text per
    signal wavelength, ascending in wavelength on both axes (the grids
    ascend in frequency); each wavelength is formatted once, and each block
    with one % operation on a template that holds them."""
    from .model import _FMT
    lam1 = [_FMT.format(x) for x in (state.signal_grid.wavelengths[::-1] * 1e9).tolist()]
    lam2 = [_FMT.format(x) for x in (state.idler_grid.wavelengths[::-1] * 1e9).tolist()]
    value = _FMT.replace("{:", "%").replace("}", "")        # the same format, for %
    for l1, jsd_row in zip(lam1, state.jsd[::-1, ::-1]):
        template = "".join(f"{l1},{l2},{value}\n" for l2 in lam2)
        yield template % tuple(jsd_row.tolist())


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


def _run_jsd(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
    from .quantum import schmidt_analysis, two_photon_state_bw, two_photon_state_ring
    points = points or cfg.jsd_points
    bw = two_photon_state_bw(cfg.grating, cfg.params, cfg.pulse,
                             cfg.signal_window, cfg.idler_window,
                             n_points=points)
    bw_report = schmidt_analysis(bw)
    out.write("jsd_bw.csv", _JSD_CSV_HEADER, _jsd_csv(bw))
    out.write("jsd_bw.json", _json_text(_jsd_header(bw, bw_report)))
    out.say(f"waveguide pair state: beta_sq {bw.beta_sq:.4e}, "
            f"purity {bw_report.purity:.4f}")
    if cfg.ring is None:
        out.say("no ring_comparator configured; skipping ring state")
        return
    ring = two_photon_state_ring(cfg.ring, cfg.params, cfg.ring_pulse,
                                 n_points=points,
                                 span_linewidths=cfg.ring_span_linewidths)
    ring_report = schmidt_analysis(ring)
    out.write("jsd_ring.csv", _JSD_CSV_HEADER, _jsd_csv(ring))
    out.write("jsd_ring.json", _json_text(_jsd_header(ring, ring_report)))
    out.say(f"ring pair state: beta_sq {ring.beta_sq:.4e}, "
            f"purity {ring_report.purity:.4f}")


def _run_report(cfg: ScenarioConfig, out: _Out, fmt: str, points, rejection_db):
    # --points sets only the spectrum grid
    for name in ("spectrum", "design", "stim-sweep", "spont-rate",
                 "contrast-sweep", "jsd"):
        _RUNNERS[name](cfg, out, fmt, points if name == "spectrum" else None, None)


_RUNNERS = {
    "spectrum": _run_spectrum,
    "design": _run_design,
    "stim-sweep": _run_stim_sweep,
    "spont-rate": _run_spont_rate,
    "contrast-sweep": _run_contrast_sweep,
    "jsd": _run_jsd,
    "report": _run_report,
}


# --------------------------------------------------------------------------
# driver


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braggsim",
        description="Transfer-matrix and four-wave-mixing simulator for "
                    "corrugated-waveguide filters and microring pair sources.")
    parser.add_argument("subcommand", choices=_RUNNERS)
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
    if args.points is not None and args.points < 2:
        raise ConfigError("--points: must be >= 2")
    if args.rejection_db is not None and not math.isfinite(args.rejection_db):
        raise ConfigError(f"--rejection-db: must be a finite number, got {args.rejection_db}")

    out_dir = Path(args.out) if args.out else Path("out") / args.subcommand
    out = _Out(out_dir, force=args.force, quiet=args.quiet)

    _RUNNERS[args.subcommand](cfg, out, args.format, args.points, args.rejection_db)
    out.sidecar(args.subcommand, config_path)
    for path in out.written:
        out.say(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _apply_thread_env()
        return run_scenario(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # domain errors from the numeric modules
        from .model import InvalidArgument, OutOfDomain
        if isinstance(exc, (InvalidArgument, OutOfDomain)):
            print(f"domain error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        raise


if __name__ == "__main__":
    sys.exit(main())
