"""Seeded workload configs: deterministic, valid, and of fixed size."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from braggsim import cli  # noqa: E402
from braggsim.transfer import design_periods  # noqa: E402
from perfbench import run, traced, workloads  # noqa: E402

REFERENCE = json.loads((ROOT / "src" / "braggsim" / "data" / "reference.json").read_text())
SEEDS = list(range(12))
HELD_OUT = 918273645


@pytest.mark.parametrize("name", ["sweep-dense", "contrast-many"])
def test_same_seed_same_config(name):
    a = workloads.make_config(name, 7, REFERENCE)
    b = workloads.make_config(name, 7, REFERENCE)
    assert workloads.config_text(a) == workloads.config_text(b)
    assert a != workloads.make_config(name, 8, REFERENCE)
    assert REFERENCE == json.loads((ROOT / "src" / "braggsim" / "data"
                                    / "reference.json").read_text())


def test_report_uses_the_reference_verbatim():
    assert workloads.make_config("report-ref", 3, REFERENCE) is None


def _sizes(name, cfg):
    """The quantities that fix the traced work counts of a workload."""
    s = cfg["structure"]
    cs = cfg["contrast_sweep"]
    if name == "sweep-dense":
        return (s["n_periods"], s.get("lead_in_um"), s.get("lead_out_um"),
                workloads.SWEEP_POINTS)
    periods = [design_periods(cs["target_rejection_db"], s["n_lo"], c)
               for c in sorted(cs["contrasts"])]
    compare = [design_periods(t, s["n_lo"], s["delta_n"])
               for t in (cs["target_rejection_db"], cs["compare_rejection_db"])]
    return len(cs["contrasts"]), tuple(periods), tuple(compare)


@pytest.mark.parametrize("name", ["sweep-dense", "contrast-many"])
def test_seed_changes_values_not_sizes(name):
    sizes = {_sizes(name, workloads.make_config(name, seed, REFERENCE))
             for seed in [*SEEDS, HELD_OUT]}
    assert len(sizes) == 1
    values = {workloads.config_text(workloads.make_config(name, seed, REFERENCE))
              for seed in SEEDS}
    assert len(values) == len(SEEDS)


@pytest.mark.parametrize("name", ["sweep-dense", "contrast-many"])
def test_configs_are_valid_scenarios(name):
    for seed in [*SEEDS, HELD_OUT]:
        cfg = workloads.make_config(name, seed, REFERENCE)
        scenario = cli.build_scenario(json.loads(workloads.config_text(cfg)))
        if name == "contrast-many":
            lo, hi = workloads.CONTRAST_RANGE
            assert len(scenario.contrasts) == workloads.N_CONTRASTS
            assert all(lo * 0.999 < c < hi * 1.001 for c in scenario.contrasts)
        else:
            start, stop, _, _ = scenario.pump_sweep_args
            assert start < scenario.grating.bragg_wavelength < stop


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}
    assert set(traced.KERNEL_SPANS) <= set(traced.SPAN_NAMES)
