"""The three workloads and their seeded scenario configs.

The seed changes values only, never sizes: grid and sweep point counts and
period counts are fixed per workload, so the work counts of the traced run
(``.cells``, ``.points``, ``.structures``) are the same for every seed.
"""
from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass

SWEEP_POINTS = 1621
CONTRAST_RANGE = (1.5e-3, 8e-3)
N_CONTRASTS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    extra_args: tuple = ()


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("report-ref", "report"),
    Workload("sweep-dense", "stim-sweep", ("--points", str(SWEEP_POINTS))),
    Workload("contrast-many", "contrast-sweep"),
)}


def design_periods(target_db: float, n_lo: float, delta_n: float) -> int:
    """The closed-form period-count rule N = ceil(C / (2 ln(1 + dn/n_lo)))."""
    return math.ceil(_rule_constant(target_db) / (2.0 * math.log1p(delta_n / n_lo)))


def _rule_constant(target_db: float) -> float:
    return math.log(4.0) + target_db * math.log(10.0) / 10.0


def _same_periods_interval(target_db: float, n_lo: float, delta_n: float):
    """[lo, hi): the contrasts that the design rule maps to the same N as delta_n."""
    n = design_periods(target_db, n_lo, delta_n)
    c = _rule_constant(target_db)
    lo = n_lo * math.expm1(c / (2.0 * n))
    hi = n_lo * math.expm1(c / (2.0 * (n - 1)))
    return lo, hi


def _jitter_keeping_periods(rng: random.Random, delta_n: float, n_lo: float,
                            targets) -> float:
    """A contrast drawn from the middle half of the interval on which every
    target's designed period count equals that of ``delta_n``."""
    lo, hi = 0.0, math.inf
    for target in targets:
        a, b = _same_periods_interval(target, n_lo, delta_n)
        lo, hi = max(lo, a), min(hi, b)
    return lo + (hi - lo) * rng.uniform(0.25, 0.75)


def _bragg_nm(structure: dict) -> float:
    n_lo, dn, duty = structure["n_lo"], structure["delta_n"], structure["duty_cycle"]
    mean = duty * n_lo + (1.0 - duty) * (n_lo + dn)
    return 2.0 * mean * structure["period_nm"]


def make_config(name: str, seed: int, reference: dict) -> dict | None:
    """The scenario config of workload ``name`` for ``seed``; None means the
    bundled reference config is used verbatim."""
    if name == "report-ref":
        return None
    rng = random.Random(f"{name}:{seed}")
    cfg = copy.deepcopy(reference)
    s = cfg["structure"]
    s["period_nm"] = round(s["period_nm"] * rng.uniform(0.997, 1.003), 6)
    if name == "sweep-dense":
        s["delta_n"] = round(s["delta_n"] * rng.uniform(0.85, 1.15), 9)
        center = _bragg_nm(s)
        cfg["pump_sweep"] = {
            "start_nm": round(center - rng.uniform(3.8, 4.4), 6),
            "stop_nm": round(center + rng.uniform(3.6, 4.2), 6),
            "points": SWEEP_POINTS,
            "signal_nm": round(1560.0 + rng.uniform(-1.0, 1.0), 6),
        }
    elif name == "contrast-many":
        cs = cfg["contrast_sweep"]
        targets = (cs["target_rejection_db"], cs["compare_rejection_db"])
        s["delta_n"] = _jitter_keeping_periods(rng, s["delta_n"], s["n_lo"], targets)
        lo, hi = CONTRAST_RANGE
        grid = [lo * (hi / lo) ** (i / (N_CONTRASTS - 1)) for i in range(N_CONTRASTS)]
        cs["contrasts"] = [_jitter_keeping_periods(rng, dn, s["n_lo"], targets[:1])
                           for dn in grid]
        cfg["windows"]["signal"]["center_nm"] = round(1560.05 + rng.uniform(-1.0, 1.0), 6)
    else:
        raise KeyError(name)
    return cfg


def expected_outputs(subcommand: str, cfg: dict, points: int | None):
    """(data rows of each CSV, JSON files) that ``subcommand`` writes for ``cfg``."""
    sp = cfg["spectrum"]
    spectrum = int(round((sp["stop_nm"] - sp["start_nm"]) / (sp["step_pm"] * 1e-3))) + 1
    sweep = cfg["pump_sweep"]["points"]
    jsd = cfg.get("jsd", {}).get("points", 201)
    contrasts = len(cfg["contrast_sweep"]["contrasts"])
    if subcommand == "report":
        rows = {"spectrum.csv": points or spectrum, "stim_sweep.csv": sweep,
                "spont_rate.csv": 1, "contrast_sweep.csv": contrasts,
                "jsd_bw.csv": jsd * jsd}
        docs = ["design.json", "jsd_bw.json"]
        if cfg.get("ring_comparator") is not None:
            rows["jsd_ring.csv"] = jsd * jsd
            docs.append("jsd_ring.json")
        return rows, tuple(docs)
    if subcommand == "stim-sweep":
        return {"stim_sweep.csv": points or sweep}, ()
    if subcommand == "contrast-sweep":
        return {"contrast_sweep.csv": contrasts}, ()
    if subcommand == "design":
        return {}, ("design.json",)
    raise KeyError(subcommand)


def config_text(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"
