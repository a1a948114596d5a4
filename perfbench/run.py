"""Benchmark of the braggsim CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is run from ``src/``
with ``python3 -m braggsim``, one fresh process per invocation, one after
another. Children get an explicit environment: ``BRAGGSIM_THREADS`` set to
the number of usable cores, ``PYTHONPATH`` set to ``src``, and nothing
inherited such as ``OPENBLAS_*`` or ``OMP_*``.

A run writes the workload's config for the seed, makes one discarded
warm-up invocation, times ``braggsim design`` several times (``setup_s``),
then times the workload's command until ``--seconds`` is used up. Every
timed invocation's files are checked and must be byte-identical to the
first one's. With ``--trace 1`` it also runs the command twice in-process
under ``perfbench/traced.py``: once for span times and counts, once with
tracemalloc for kernel peak allocations.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Lines before it
print the same figures for people, and a full record (samples, environment,
headline scalars, problems) goes to ``.perfbench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import checker, spans, traced, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROGRAM = SRC / "braggsim" / "cli.py"
REFERENCE = SRC / "braggsim" / "data" / "reference.json"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 15
# a run must exit within 180 s; invocations are cut when this is reached
DEADLINE_S = 170.0


@dataclass
class Invocation:
    label: str
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    timed_out: bool
    problem: str | None = None


def child_env(threads: int) -> dict:
    return {"PATH": os.environ.get("PATH", os.defpath),
            "PYTHONPATH": str(SRC),
            "BRAGGSIM_THREADS": str(threads),
            "PYTHONHASHSEED": "0",
            "LC_ALL": "C"}


def invoke(label: str, argv, env: dict, log: Path, timeout: float) -> Invocation:
    """Run one child to completion; wall time from start to exit, peak RSS
    from the child's own rusage. The child is killed after ``timeout`` s."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            kill()
            raise
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(label, wall, usage.ru_maxrss / 1024.0,
                      usage.ru_utime + usage.ru_stime, proc.returncode, state["killed"])


class Session:
    """The invocations of one benchmark run and the checks on their files."""

    def __init__(self, workload: workloads.Workload, cfg_path: Path, cfg: dict,
                 threads: int, deadline: float):
        self.workload = workload
        self.cfg_path = cfg_path
        self.cfg = cfg
        self.env = child_env(threads)
        self.deadline = deadline
        self.work = WORK / "current"
        self.invocations = []
        self.digests = {}
        self.headline = {}

    def run(self, label: str, subcommand: str, extra=(), prefix=(), checked=True):
        """One invocation of ``subcommand`` into a fresh output directory;
        ``prefix`` replaces ``-m braggsim`` (used for the traced driver)."""
        out = self.work / "out" / label
        shutil.rmtree(out, ignore_errors=True)
        argv = [sys.executable, *(prefix or ("-m", "braggsim")), subcommand,
                "--config", str(self.cfg_path), "--out", str(out), "--quiet", *extra]
        inv = invoke(label, argv, self.env, self.work / "logs" / f"{label}.log",
                     self.deadline - time.monotonic())
        if checked:
            inv.problem = self._check(inv, subcommand, extra, out)
            self.invocations.append(inv)
        return inv

    def _check(self, inv: Invocation, subcommand: str, extra, out: Path):
        if inv.timed_out:
            return "timed out"
        if inv.exit_code != 0:
            return f"exit code {inv.exit_code}"
        points = int(extra[extra.index("--points") + 1]) if "--points" in extra else None
        rows, docs = workloads.expected_outputs(subcommand, self.cfg, points)
        try:
            headline = checker.check_outputs(out, rows, docs)
        except checker.CheckError as exc:
            return str(exc)
        if headline:
            self.headline.setdefault(subcommand, headline)
        digest = checker.digest(out)
        first = self.digests.setdefault(subcommand, digest)
        if digest != first:
            changed = sorted(k for k in first.keys() | digest.keys()
                             if first.get(k) != digest.get(k))
            return f"data files differ from this session's first run: {changed}"
        return None


def _median(values):
    return statistics.median(values) if values else float("nan")


def environment_record(threads: int) -> dict:
    record = {"nproc": threads, "BRAGGSIM_THREADS": threads,
              "python": platform.python_version(),
              "page_cache": "not dropped (that needs privileges the benchmark "
                            "lacks); a discarded warm-up invocation runs first"}
    try:
        import numpy
        record["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:     # the record is informative; never fail a run on it
        record.setdefault("numpy", f"unavailable ({exc})")
    for key, path, field in (("cpu_model", "/proc/cpuinfo", "model name"),
                             ("mem_total", "/proc/meminfo", "MemTotal")):
        try:
            lines = Path(path).read_text().splitlines()
            record[key] = next(l.split(":", 1)[1].strip() for l in lines
                               if l.startswith(field))
        except (OSError, StopIteration):
            record[key] = None
    record["commit"] = None          # not a git checkout
    if (ROOT / ".git").exists():
        try:
            record["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return record


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in traced.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.errors"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        key = traced.COUNT_KEYS.get(name)
        if key:
            units[f"{name}.{key}"] = "bytes" if key == "bytes" else "count"
        if name in traced.KERNEL_SPANS:
            units[f"{name}.peak_alloc_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


def per_layer_values(timing: dict, memory: dict, overhead_s: float) -> dict:
    """Per-layer metric values from the aggregated spans of the two traced
    passes; a layer that was not called reads 0."""
    values = {}
    for name in traced.SPAN_NAMES:
        agg = timing.get(name, {"calls": 0, "errors": 0, "s": 0.0, "self_s": 0.0,
                                "counts": {}})
        for field in ("calls", "errors", "s", "self_s"):
            values[f"{name}.{field}"] = agg[field]
        key = traced.COUNT_KEYS.get(name)
        if key:
            values[f"{name}.{key}"] = agg["counts"].get(key, 0)
        if name in traced.KERNEL_SPANS:
            values[f"{name}.peak_alloc_mb"] = memory.get(name, {}).get("peak_alloc", 0) / 2**20
    values["trace.overhead_s"] = overhead_s
    return values


def traced_pass(session: Session, memory_calls=None):
    """One in-process traced run; returns (invocation, aggregated spans, span
    records, main_s). With ``memory_calls`` it records those calls' peak
    allocations."""
    label = "traced" if memory_calls is None else "traced-memory"
    span_file = session.work / f"{label}.json"
    span_file.unlink(missing_ok=True)
    prefix = [str(ROOT / "perfbench" / "traced.py"), "--spans", str(span_file),
              "--run-id", f"{session.workload.name}:{label}"]
    if memory_calls is not None:
        calls_file = session.work / "memory-calls.json"
        calls_file.write_text(json.dumps(memory_calls))
        prefix += ["--memory", str(calls_file)]
    prefix.append("--")
    inv = session.run(label, session.workload.subcommand, session.workload.extra_args,
                      prefix=prefix)
    if not span_file.is_file():
        return inv, {}, [], float("nan")
    data = json.loads(span_file.read_text())
    return inv, spans.aggregate(data["spans"]), data["spans"], data["main_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the braggsim CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not PROGRAM.is_file() or not REFERENCE.is_file():
        print(f"perfbench: braggsim sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))

    work = WORK / "current"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    reference = json.loads(REFERENCE.read_text())
    cfg = workloads.make_config(workload.name, args.seed, reference)
    if cfg is None:
        cfg, cfg_path = reference, REFERENCE
    else:
        cfg_path = work / "config.json"
        cfg_path.write_text(workloads.config_text(cfg))

    session = Session(workload, cfg_path, cfg, threads, deadline)
    session.run("warm-up", "spont-rate", checked=False)
    setup = [session.run(f"setup-{i}", "design") for i in range(SETUP_REPEATS)]

    timed = []
    loop_start = time.monotonic()
    while True:
        timed.append(session.run(f"timed-{len(timed)}", workload.subcommand,
                                 workload.extra_args))
        typical = _median([i.wall_s for i in timed])
        now = time.monotonic()
        if now - loop_start + typical > args.seconds or now + 1.5 * typical > deadline:
            break

    ok = [i for i in timed if i.problem is None] or timed
    end_to_end = {
        "wall_s": (_median([i.wall_s for i in ok]), "s"),
        "peak_rss_mb": (_median([i.peak_rss_mb for i in ok]), "MB"),
        "setup_s": (_median([i.wall_s for i in setup if i.problem is None]
                            or [i.wall_s for i in setup]), "s"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    layer = None
    if args.trace:
        inv, timing, records, main_s = traced_pass(session)
        overhead = inv.wall_s - end_to_end["wall_s"][0]
        # tracemalloc only on each kernel's largest call: on every call the
        # pass would take several times the untraced run
        _, memory, _, _ = traced_pass(
            session, spans.largest_calls(records, traced.KERNEL_SPANS, "cells"))
        units = per_layer_units()
        values = per_layer_values(timing, memory, overhead)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        layer = {"main_s": main_s, "spans": timing, "memory_spans": memory}

    attempted = len(session.invocations)
    failed = sum(i.problem is not None for i in session.invocations)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": str(cfg_path),
        "environment": environment_record(threads),
        "end_to_end": {k: {"median": v, "unit": u,
                           "samples": len(setup) if k == "setup_s" else len(ok)}
                       for k, (v, u) in end_to_end.items()},
        "fail_frac": failed / attempted,
        "headline": session.headline,
        "invocations": [asdict(i) for i in session.invocations],
        "layers": layer,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(record["environment"]))
    for key, entry in record["end_to_end"].items():
        print(f"{key} {entry['median']:.6g} {entry['unit']} "
              f"(median of {entry['samples']})")
    print(f"fail_frac {record['fail_frac']:.6g} ({failed} of {attempted} invocations failed)")
    for inv in session.invocations:
        if inv.problem:
            print(f"FAILED {inv.label}: {inv.problem}")
    print("headline " + json.dumps(session.headline, sort_keys=True))
    if layer is not None:
        compute = layer["main_s"]
        for name, field in (("transfer.segment_amplitudes", "s"),
                            ("fwm.overlap_elements", "self_s"),
                            ("quantum.two_photon_state_bw", "self_s")):
            share = metrics[f"{name}.{field}"]["value"] / compute
            print(f"share {name}.{field} {share:.3f} of {compute:.3f} s in cli.main")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
