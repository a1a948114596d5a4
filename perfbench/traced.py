"""Run one braggsim command in-process, with a span around each layer's
public entry points, and write the spans to a JSON file.

    python3 perfbench/traced.py --spans FILE [--memory FILE] -- <braggsim arguments>

The program is not modified: the wrappers are set on module and class
attributes before ``braggsim.cli.main`` runs. A function that another module
imports by name (``_segment_amplitudes`` in ``fwm`` and ``quantum``,
``overlap_elements`` in ``quantum``) is patched in every module that binds
it. With ``--memory FILE`` (a JSON map of span name to call ordinals), the
named kernel calls record their peak allocation under tracemalloc; that pass
is slower, so only its memory figures are used.
"""
from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import Tracer, count_beneath  # noqa: E402


def _written_bytes(args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[2]
    return len(text.encode())


def _cells(args, kwargs, result):
    return result[3].size           # A has shape (segments, frequencies)


def _points(args, kwargs, result):
    return result.size


def _grid_points(args, kwargs, result):
    return result.jsd.size


# (span name, module, attribute, work count key, work count)
TARGETS = (
    ("cli.build_scenario", "braggsim.cli", "build_scenario", None, None),
    ("cli.serialize", "braggsim.cli", "_jsd_csv", None, None),
    ("cli.serialize", "braggsim.cli", "_json_text", None, None),
    ("cli.write", "braggsim.cli", "_Out.write", "bytes", _written_bytes),
    ("model.serialize", "braggsim.model", "SweepResult.to_csv_text", None, None),
    ("model.serialize", "braggsim.model", "SweepResult.to_json_obj", None, None),
    ("transfer.segment_amplitudes", "braggsim.transfer", "_segment_amplitudes", "cells", _cells),
    ("transfer.transmission_spectrum", "braggsim.transfer", "transmission_spectrum", None, None),
    ("transfer.stopband_report", "braggsim.transfer", "stopband_report", None, None),
    ("fwm.overlap_elements", "braggsim.fwm", "overlap_elements", "points", _points),
    ("fwm.pump_sweep", "braggsim.fwm", "pump_sweep", None, None),
    ("fwm.stimulated_idler", "braggsim.fwm", "stimulated_idler", None, None),
    ("quantum.two_photon_state_bw", "braggsim.quantum", "two_photon_state_bw",
     "grid_points", _grid_points),
    ("quantum.two_photon_state_ring", "braggsim.quantum", "two_photon_state_ring", None, None),
    ("quantum.schmidt_analysis", "braggsim.quantum", "schmidt_analysis", None, None),
    ("quantum.spont_from_stim", "braggsim.quantum", "spont_from_stim", None, None),
    ("quantum.contrast_sweep", "braggsim.quantum", "contrast_sweep", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# spans whose peak allocation the memory pass records
KERNEL_SPANS = ("transfer.segment_amplitudes", "fwm.overlap_elements",
                "quantum.two_photon_state_bw", "quantum.two_photon_state_ring")

# span -> (descendant span, count key): calls of the descendant beneath it
COUNTED_BENEATH = {"quantum.contrast_sweep": ("fwm.overlap_elements", "structures")}

# span -> its work count keys
COUNT_KEYS = {name: key for name, _, _, key, _ in TARGETS if key}
COUNT_KEYS.update((name, key) for name, (_, key) in COUNTED_BENEATH.items())


def install(tracer: Tracer) -> None:
    """Replace every target with its traced wrapper."""
    for name, module, attr, key, count in TARGETS:
        mod = importlib.import_module(module)
        owner_name, _, leaf = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, leaf, tracer.wrap(getattr(owner, leaf), name, key, count))
            continue
        original = getattr(mod, leaf)
        wrapped = tracer.wrap(original, name, key, count)
        for other_name, other in list(sys.modules.items()):
            if other_name.split(".")[0] == "braggsim" and getattr(other, leaf, None) is original:
                setattr(other, leaf, wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write")
    parser.add_argument("--run-id", default="traced")
    parser.add_argument("--memory", default=None,
                        help="JSON file: span name -> call ordinals whose peak "
                             "allocation tracemalloc records")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from braggsim import cli
    cli._apply_thread_env()         # before numpy is imported by the modules below
    for module in {t[1] for t in TARGETS}:
        importlib.import_module(module)

    memory_calls = json.loads(Path(args.memory).read_text()) if args.memory else None
    tracer = Tracer(args.run_id, memory_calls)
    install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(command)
    finally:
        main_s = time.perf_counter() - start
        for ancestor, (name, key) in COUNTED_BENEATH.items():
            count_beneath(tracer.spans, ancestor, name, key)
        Path(args.spans).write_text(json.dumps(
            {"run": args.run_id, "main_s": main_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main())
