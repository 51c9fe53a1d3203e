"""One benchmark child process, started by run.py in a per-run working
directory.

Modes:
  setup    import shortsight and write the workload's inputs, timed
  measure  set up, then run untraced passes for --seconds
  trace    set up, install the tracer, run traced passes for --seconds
  record   set up the whole input pool, run every operation once and keep
           its exit code, report sha256 and enumerated-policy count

Times are reported twice: as measured, and rescaled to the reference speed
by speed.SpeedProbe. Every mode prints nothing on stdout; the result is one
JSON file at --out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

from speed import SpeedProbe
from tracer import ENUMERATE, Tracer
from workloads import make_plan


def _import_shortsight(root: str):
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    ss = importlib.import_module("shortsight")
    importlib.import_module("shortsight.cli")
    importlib.import_module("shortsight.serialize")
    return ss


def _sha(report: bytes) -> str:
    return hashlib.sha256(report).hexdigest()


def _run_op(op, ss, state):
    """(start, end, (exit code, report) or None, error text or None)."""
    start = time.perf_counter()
    try:
        raw = op.call(ss, state)
    except Exception:  # a crash in the program under test is a failed operation
        return start, time.perf_counter(), None, traceback.format_exc(limit=3)
    end = time.perf_counter()
    return start, end, op.render(raw), None


def run_passes(plan, ss, state, goldens: dict, seconds: float, tracer: Tracer | None) -> dict:
    """Repeat the pass until another one would overrun `seconds` (at least one)."""
    out = {"passes": [], "raw_passes": [], "layers": [], "attempted": 0, "failed": 0, "mismatches": []}
    probe = SpeedProbe()
    begin = time.perf_counter()
    with probe:
        while True:
            gc.collect()
            probe.sample(3)
            if tracer is not None:
                tracer.begin_pass()
            intervals = []
            for op in plan.ops:
                start, end, result, error = _run_op(op, ss, state)
                intervals.append((start, end))
                probe.sample(2)
                out["attempted"] += 1
                golden = goldens.get(op.key)
                if error is None and golden is not None:
                    code, report = result
                    if code == golden["exit"] and _sha(report) == golden["sha256"]:
                        continue
                    error = f"exit {code}, sha256 {_sha(report)}; golden exit {golden['exit']}, sha256 {golden['sha256']}"
                elif error is None:
                    error = "no golden recorded for this operation"
                out["failed"] += 1
                if len(out["mismatches"]) < 20:
                    out["mismatches"].append({"op": op.key, "error": error})
            if tracer is not None:
                out["layers"].append(tracer.end_pass())
            probe.sample(3)
            own = [end - start - probe.inside(start, end) for start, end in intervals]
            out["raw_passes"].append(sum(own))
            out["passes"].append(sum(t * probe.scale(*iv) for t, iv in zip(own, intervals)))
            done = time.perf_counter() - begin
            if done + done / len(out["passes"]) > seconds:
                break
    out["probe_median_s"] = statistics.median(probe.durations)
    out["policies_per_pass"] = sum(goldens.get(op.key, {}).get("policies", 0) for op in plan.ops)
    out["trajectories_per_pass"] = plan.trajectories
    return out


def record(plan, ss, state) -> dict:
    tracer = Tracer()
    tracer.install(ss)
    goldens = {}
    for op in plan.ops:
        before = tracer.counts[ENUMERATE]
        _, _, result, error = _run_op(op, ss, state)
        if error is not None:
            raise RuntimeError(f"{op.key} raised while recording goldens:\n{error}")
        code, report = result
        goldens[op.key] = {"exit": code, "sha256": _sha(report), "policies": tracer.counts[ENUMERATE] - before}
        tracer.spans.clear()
    return goldens


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace", "record"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--goldens")
    p.add_argument("--spans")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    plan = make_plan(args.workload, args.seed, tiny=args.tiny, everything=args.mode == "record")
    probe = SpeedProbe()
    probe.sample(5)
    start = time.perf_counter()
    ss = _import_shortsight(args.root)
    state = plan.setup(ss)
    end = time.perf_counter()
    probe.sample(5)
    result = {"raw_setup_s": end - start, "setup_s": (end - start) * probe.scale(start, end)}

    if args.mode == "record":
        result["goldens"] = record(plan, ss, state)
    elif args.mode in ("measure", "trace"):
        with open(args.goldens, encoding="utf-8") as fh:
            goldens = json.load(fh)["ops"]
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install(ss)
        result.update(run_passes(plan, ss, state, goldens, args.seconds, tracer))
        if tracer is not None and args.spans:
            tracer.write(args.spans)
    result["rss_peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
