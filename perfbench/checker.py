"""Checks on the files one braggsim invocation wrote, and the headline
scalars read from them.

A check fails on a missing file, a wrong CSV header or row count, a file
that does not end in a newline, a number that does not parse or is not
finite, a transmission outside [0, 1], a joint spectral density that is
negative or does not integrate to 1, or a purity outside (0, 1]. The
headline scalars are recorded, not gated.
"""
from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

CSV_HEADERS = {
    "spectrum.csv": ("wavelength_nm", "transmission", "transmission_db"),
    "stim_sweep.csv": ("pump_wavelength_nm", "idler_rate_per_s_per_mw2", "idler_power_w"),
    "spont_rate.csv": ("rate_per_s", "bandwidth_rad_s", "power_w",
                       "rate_per_s_per_mw2", "rate_per_s_per_mw2_external"),
    "contrast_sweep.csv": ("delta_n", "n_periods", "pair_rate_per_s"),
    "jsd_bw.csv": ("lambda_signal_nm", "lambda_idler_nm", "jsd_normalized"),
    "jsd_ring.csv": ("lambda_signal_nm", "lambda_idler_nm", "jsd_normalized"),
}

SIDECAR = "run_meta.json"
JSD_NORM_TOL = 1e-3      # header grid bounds carry 9 significant digits
UNIT_TOL = 1e-9
# the CLI's dip summary takes the baseline beyond this distance from the minimum
DIP_EXCLUDE_NM = 1.0


class CheckError(Exception):
    """One output file fails a check."""


def digest(out_dir: Path) -> dict:
    """sha256 of every data file; the sidecar carries a timestamp and is left out."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != SIDECAR}


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {text!r}")
    return value


def read_csv(path: Path, rows: int) -> dict:
    """Columns of a CSV output as lists of floats (None for an empty cell,
    which the CLI writes for an undefined value)."""
    header = CSV_HEADERS[path.name]
    text = path.read_text()
    if not text.endswith("\n"):
        raise CheckError(f"{path.name}: truncated (no final newline)")
    lines = text.splitlines()
    if tuple(lines[0].split(",")) != header:
        raise CheckError(f"{path.name}: header {lines[0]!r}, expected {','.join(header)!r}")
    if len(lines) - 1 != rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} data rows, expected {rows}")
    cols = [[] for _ in header]
    for n, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckError(f"{path.name}:{n}: {len(cells)} cells, expected {len(header)}")
        for col, cell in zip(cols, cells):
            col.append(None if cell == "" else _number(cell, f"{path.name}:{n}"))
    return dict(zip(header, cols))


def read_json(path: Path) -> dict:
    """A JSON output; every number in it, and every string that parses as a
    number (the CLI writes floats as formatted strings), must be finite."""
    obj = json.loads(path.read_text())

    def walk(value, where):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{where}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, f"{where}[{i}]")
        elif isinstance(value, float) and not math.isfinite(value):
            raise CheckError(f"{where}: non-finite value {value!r}")
        elif isinstance(value, str):
            try:
                number = float(value)
            except ValueError:
                return
            if not math.isfinite(number):
                raise CheckError(f"{where}: non-finite value {value!r}")

    walk(obj, path.name)
    return obj


def _in_range(values, lo, hi, what: str) -> None:
    for v in values:
        if v is not None and not lo <= v <= hi:
            raise CheckError(f"{what}: {v!r} outside [{lo}, {hi}]")


def _grid_spacing(grid: dict) -> float:
    return (float(grid["stop"]) - float(grid["start"])) / (int(grid["points"]) - 1)


def _dip_suppression_db(x, y) -> float | None:
    imin = min(range(len(y)), key=y.__getitem__)
    off = [v for xv, v in zip(x, y) if abs(xv - x[imin]) > DIP_EXCLUDE_NM]
    if not off or y[imin] <= 0:
        return None
    return 10.0 * math.log10(statistics.median(off) / y[imin])


def _loglog_slope(x, y) -> float | None:
    pts = [(math.log(a), math.log(b)) for a, b in zip(x, y) if a > 0 and b > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def check_outputs(out_dir: Path, rows: dict, json_files=()) -> dict:
    """Check the files of one invocation; ``rows`` maps each expected CSV to
    its data row count. Returns the headline scalars; raises CheckError."""
    out_dir = Path(out_dir)
    for name in (*rows, *json_files, SIDECAR):
        if not (out_dir / name).is_file():
            raise CheckError(f"{name}: missing")
    headline = {}
    data = {name: read_csv(out_dir / name, n) for name, n in rows.items()}
    docs = {name: read_json(out_dir / name) for name in json_files}

    if "spectrum.csv" in data:
        col = data["spectrum.csv"]
        _in_range(col["transmission"], 0.0, 1.0 + UNIT_TOL, "spectrum.csv transmission")
        headline["rejection_db"] = -min(col["transmission_db"])
    if "stim_sweep.csv" in data:
        col = data["stim_sweep.csv"]
        _in_range(col["idler_rate_per_s_per_mw2"], 0.0, math.inf, "stim_sweep.csv rate")
        _in_range(col["idler_power_w"], 0.0, math.inf, "stim_sweep.csv power")
        headline["dip_suppression_db"] = _dip_suppression_db(
            col["pump_wavelength_nm"], col["idler_rate_per_s_per_mw2"])
    if "spont_rate.csv" in data:
        rate = data["spont_rate.csv"]["rate_per_s"]
        _in_range(rate, 0.0, math.inf, "spont_rate.csv rate_per_s")
        headline["spont_rate_per_s"] = rate[0]
    if "contrast_sweep.csv" in data:
        col = data["contrast_sweep.csv"]
        for n in col["n_periods"]:
            if n is None or n < 1 or n != int(n):
                raise CheckError(f"contrast_sweep.csv n_periods: {n!r} is not a positive integer")
        _in_range(col["pair_rate_per_s"], 0.0, math.inf, "contrast_sweep.csv rate")
        headline["contrast_slope"] = _loglog_slope(col["delta_n"], col["pair_rate_per_s"])
    for state in ("bw", "ring"):
        csv_name, json_name = f"jsd_{state}.csv", f"jsd_{state}.json"
        if csv_name not in data:
            continue
        if json_name not in docs:
            raise CheckError(f"{json_name}: missing")
        head = docs[json_name]
        jsd = data[csv_name]["jsd_normalized"]
        _in_range(jsd, 0.0, math.inf, f"{csv_name} jsd_normalized")
        total = sum(jsd) * _grid_spacing(head["signal_grid_rad_s"]) \
            * _grid_spacing(head["idler_grid_rad_s"])
        if abs(total - 1.0) > JSD_NORM_TOL:
            raise CheckError(f"{csv_name}: integrates to {total!r}, expected 1")
        purity = float(head["purity"])
        if not 0.0 < purity <= 1.0 + UNIT_TOL:
            raise CheckError(f"{json_name}: purity {purity!r} outside (0, 1]")
        headline[f"{state}.beta_sq"] = float(head["beta_sq"])
        headline[f"{state}.purity"] = purity
    if "design.json" in docs:
        n = docs["design.json"].get("n_periods")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise CheckError(f"design.json n_periods: {n!r} is not a positive integer")
    return headline
