"""The output matrix whose data files `tests/golden/manifest.json` pins.

Seventeen CLI runs, 47 data files (`run_meta.json` is left out):
- `report` on the bundled reference config with `--format csv`,
  `--format json` and `--points 21`;
- `stim-sweep --points 1621` on the four `sweep-dense` configs and
  `contrast-sweep` on the four `contrast-many` configs in
  `tests/golden/configs/` (seeds 22–25 and 7–10 of the benchmark's
  workloads, committed so that the inputs stay put when the benchmark's
  generator changes);
- `spectrum`, `stim-sweep` and `jsd`, csv and json, on the reference config
  with a 50 µm lead-in and a 30 µm lead-out.

The manifest holds the sha256 of every data file and, for each of its
columns (a CSV column, or a JSON leaf under its dotted path), the cell
count, a digest and the text of up to SAMPLE evenly spaced cells, with the
numpy version and platform it was made on. On that numpy and platform the
files must match byte for byte; elsewhere the sampled cells must match at
rel VALUE_RTOL. A mismatch is summarised per column: the count of changed
sampled cells and the largest relative change among them.

Re-pin, after a change that moves outputs on purpose, with

    PYTHONPATH=src python tests/golden_matrix.py

which prints that summary against the committed manifest, then rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from braggsim import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
SAMPLE = 41           # cells kept per column
VALUE_RTOL = 1e-8     # one unit in the ninth printed digit


def _runs(leads_config: Path):
    """(run name, CLI arguments) of every run of the matrix."""
    configs = GOLDEN / "configs"
    runs = [("report-csv", ["report"]),
            ("report-json", ["report", "--format", "json"]),
            ("report-points-21", ["report", "--points", "21"])]
    runs += [(f"sweep-dense-{seed}", ["stim-sweep", "--points", "1621", "--config",
                                      str(configs / f"sweep-dense-{seed}.json")])
             for seed in range(22, 26)]
    runs += [(f"contrast-many-{seed}", ["contrast-sweep", "--config",
                                        str(configs / f"contrast-many-{seed}.json")])
             for seed in range(7, 11)]
    runs += [(f"leads-{sub}-{fmt}", [sub, "--format", fmt, "--config", str(leads_config)])
             for sub in ("spectrum", "stim-sweep", "jsd") for fmt in ("csv", "json")]
    return runs


def run_matrix(directory: Path) -> dict:
    """{run: {data file name: bytes}} of every run, each written under `directory`."""
    raw = json.loads(cli.bundled_config_path().read_text())
    raw["structure"].update(lead_in_um=50.0, lead_out_um=30.0)
    leads_config = directory / "leads.json"
    leads_config.write_text(json.dumps(raw))
    outputs = {}
    for name, args in _runs(leads_config):
        out = directory / name
        code = cli.main([*args, "--out", str(out), "--quiet"])
        if code != 0:
            raise RuntimeError(f"{name}: braggsim {' '.join(args)} exited {code}")
        outputs[name] = {path.name: path.read_bytes() for path in sorted(out.iterdir())
                         if path.name != "run_meta.json"}
    return outputs


def build() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def same_build(manifest: dict) -> bool:
    """Whether the manifest was made on this numpy and platform, so that
    bytes are compared and not values."""
    return all(manifest[key] == value for key, value in build().items())


def _columns(name: str, data: bytes) -> dict:
    """{column: [cell text]} of a CSV table by header, or of a JSON file by leaf path."""
    text = data.decode()
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        cells = [row.split(",") for row in rows]
        return {col: [row[j] for row in cells] for j, col in enumerate(header.split(","))}
    columns = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            columns[path] = [v if isinstance(v, str) else json.dumps(v) for v in value]
        else:
            columns[path] = [value if isinstance(value, str) else json.dumps(value)]

    walk(json.loads(text), "")
    return columns


def _digest(cells) -> str:
    return hashlib.sha256("\n".join(cells).encode()).hexdigest()[:16]


def _sample_index(n: int):
    return sorted({round(i * (n - 1) / (SAMPLE - 1)) for i in range(SAMPLE)}) if n > SAMPLE \
        else list(range(n))


def record(outputs: dict) -> dict:
    """The manifest of `outputs`; a column's cells are kept once, by digest."""
    runs, columns = {}, {}
    for run, files in outputs.items():
        runs[run] = {}
        for name, data in files.items():
            names = {}
            for col, cells in _columns(name, data).items():
                key = names[col] = _digest(cells)
                columns[key] = {"cells": len(cells),
                                "sample": [cells[i] for i in _sample_index(len(cells))]}
            runs[run][name] = {"sha256": hashlib.sha256(data).hexdigest(), "columns": names}
    return {**build(), "runs": runs, "columns": columns}


def _relative_change(new: str, old: str) -> float:
    """|new − old| / |old| of two cells, inf where only one parses as a number
    or old is 0, and 0 or inf for two texts that are not numbers."""
    try:
        a, b = float(new), float(old)
    except ValueError:
        return 0.0 if new == old else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / abs(b) if b != 0 else math.inf


def differences(manifest: dict, outputs: dict, exact: bool) -> list:
    """One line per file that does not match the manifest, followed by one
    line per column that moved. With `exact`, any change of bytes counts;
    otherwise a sampled cell counts when it moved by more than VALUE_RTOL."""
    lines = []
    for run in sorted(set(manifest["runs"]) | set(outputs)):
        pinned, written = manifest["runs"].get(run, {}), outputs.get(run, {})
        for name in sorted(set(pinned) | set(written)):
            where = f"{run}/{name}"
            if name not in written:
                lines.append(f"{where}: pinned, but not written")
                continue
            if name not in pinned:
                lines.append(f"{where}: written, but not pinned")
                continue
            if exact and hashlib.sha256(written[name]).hexdigest() == pinned[name]["sha256"]:
                continue
            cols = _columns(name, written[name])
            moved = []
            for col in sorted(set(pinned[name]["columns"]) | set(cols)):
                if col not in cols or col not in pinned[name]["columns"]:
                    moved.append(f"  {col}: {'not written' if col not in cols else 'not pinned'}")
                    continue
                key = pinned[name]["columns"][col]
                if exact and _digest(cols[col]) == key:
                    continue
                old = manifest["columns"][key]
                cells = cols[col]
                if len(cells) != old["cells"]:
                    moved.append(f"  {col}: {len(cells)} cells, pinned {old['cells']}")
                    continue
                index = _sample_index(len(cells))
                rel = [_relative_change(cells[i], text) for i, text in zip(index, old["sample"])]
                changed = [r for r, i, text in zip(rel, index, old["sample"])
                           if (cells[i] != text if exact else r > VALUE_RTOL)]
                if changed or exact:
                    moved.append(f"  {col}: {len(changed)} of {len(index)} sampled cells "
                                 f"changed ({len(cells)} cells), largest relative change "
                                 f"{max(rel):.3g}")
            if moved or exact:
                lines += [f"{where}: {'bytes differ' if exact else 'values differ'}", *moved]
    return lines


def main() -> int:
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else None
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_matrix(Path(tmp))
    new = record(outputs)
    files = sum(len(f) for f in outputs.values())
    print(f"{len(outputs)} runs, {files} data files, numpy {new['numpy']}, {new['platform']}")
    if manifest is None:
        print("no manifest yet")
    else:
        exact = same_build(manifest)
        lines = differences(manifest, outputs, exact)
        print(f"against the committed manifest (numpy {manifest['numpy']}, "
              f"{manifest['platform']}; {'bytes' if exact else f'values at rel {VALUE_RTOL:g}'}):")
        print("\n".join(lines) if lines else "no file differs")
    MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
