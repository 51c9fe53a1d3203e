"""Benchmark for shortsight: four CLI workloads, end-to-end metrics from
untraced runs and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `shortsight` from
`src/`. The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones:
  wall_s        seconds per pass of the workload's operations (median pass)
  setup_s       seconds to import shortsight and write the inputs (median of
                SETUP_REPEATS fresh processes)
  rss_peak_mib  peak RSS of the process that ran the passes
Both times are rescaled to a fixed reference speed (see speed.py), because
this kind of shared machine changes speed by up to 1.7x within seconds.
With `--trace 1` the metrics are the per-layer ones from a traced run
(tracer.UNITS), plus, from an untraced run beside it, `measured_wall_s`
(the median pass as measured, not rescaled), `policies_per_s`,
`trajectories_per_s` and `trace.overhead_s`. `failed / attempted` is the
fail rate: an operation fails when its exit code or its report's sha256
differs from the golden recorded in goldens.json, or when it raises.

Each run works in its own directory under `.perfbench/work/`, so the input
paths embedded in reports are the same relative paths every time. The
workload itself runs in child processes, one at a time: SETUP_REPEATS
set-up-only children (the median is `setup_s`), then one measuring child.
The children get SHORTSIGHT_POLICY_CAP removed, every enumerating command
gets an explicit --cap, and PYTHONHASHSEED is fixed. Run metadata (Python
version, nproc, git sha, every pass time, any mismatches) is written to
`.perfbench/results/`, and the spans of a traced run to
`.perfbench/trace-<workload>.jsonl`.

Other entry points:
    python3 perfbench/run.py --record      re-record goldens.json
    python3 perfbench/selftest.py          check the benchmark itself

`--tiny` runs a small version of a workload; its goldens are recorded too.
The default seed is 0 and the held-out seed is 1; goldens cover every
input the workloads can draw, so any seed is checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

GOLDENS = HERE / "goldens.json"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the whole run, children included, ends within this

END_TO_END = {"wall_s": "s", "setup_s": "s", "rss_peak_mib": "MiB"}
PER_LAYER = dict(UNITS, **{"measured_wall_s": "s", "policies_per_s": "1/s", "trajectories_per_s": "1/s",
                           "trace.overhead_s": "s"})


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SHORTSIGHT_POLICY_CAP"}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Starts worker processes one at a time within the run's time limit."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def __call__(self, mode: str, workload: str, *extra: str) -> dict:
        self.count += 1
        out = self.workdir / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--mode", mode,
               "--workload", workload, "--out", str(out), *extra]
        remaining = self.deadline - time.monotonic()
        proc = subprocess.run(cmd, cwd=self.workdir, env=_child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {mode} {workload} exited {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(run: Runner, args, common: list[str]) -> tuple[dict, dict]:
    """End-to-end metrics: the median of SETUP_REPEATS set-ups, then one untraced child."""
    setups = [run("setup", args.workload, *common)["setup_s"] for _ in range(SETUP_REPEATS)]
    res = run("measure", args.workload, *common, "--seconds", str(args.seconds))
    values = {
        "wall_s": statistics.median(res["passes"]),
        "setup_s": statistics.median(setups),
        "rss_peak_mib": res["rss_peak_mib"],
    }
    return values, dict(res, setup_samples=setups)


def trace(run: Runner, args, common: list[str]) -> tuple[dict, dict, dict]:
    """Per-layer metrics: an untraced and a traced child, half the seconds each."""
    half = str(args.seconds / 2)
    base = run("measure", args.workload, *common, "--seconds", half)
    spans = STATE / f"trace-{args.workload}.jsonl"
    traced = run("trace", args.workload, *common, "--seconds", half, "--spans", str(spans))
    wall = statistics.median(base["passes"])
    values = {name: statistics.median(layer[name] for layer in traced["layers"]) for name in UNITS}
    values["measured_wall_s"] = statistics.median(base["raw_passes"])
    values["policies_per_s"] = base["policies_per_pass"] / wall
    values["trajectories_per_s"] = base["trajectories_per_pass"] / wall
    values["trace.overhead_s"] = statistics.median(traced["passes"]) - wall
    return values, base, traced


def record(run: Runner) -> int:
    ops = {}
    for workload in WORKLOADS:
        for tiny in ((), ("--tiny",)):
            started = time.monotonic()
            got = run("record", workload, *tiny)["goldens"]
            print(f"recorded {len(got)} operations of {workload}{' (tiny)' if tiny else ''} "
                  f"in {time.monotonic() - started:.1f} s", file=sys.stderr)
            ops.update(got)
    doc = {"python": platform.python_version(), "git_sha": _git_sha(), "ops": dict(sorted(ops.items()))}
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="shortsight benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="run a small version of the workload")
    p.add_argument("--goldens", default=str(GOLDENS), help="goldens file to check reports against")
    p.add_argument("--record", action="store_true", help="re-record goldens.json from the current source")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "shortsight" / "__init__.py").is_file():
        return _fail(f"no shortsight source under {ROOT / 'src'}; run from a source checkout")
    if not args.record and args.workload is None:
        return _fail("--workload is required")
    if not args.record and not Path(args.goldens).is_file():
        return _fail(f"goldens file {args.goldens} is missing")

    workdir = STATE / "work" / f"{args.workload or 'record'}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (STATE / "results").mkdir(exist_ok=True)
    run = Runner(workdir, time.monotonic() + (3600 if args.record else RUN_LIMIT_S))
    try:
        if args.record:
            return record(run)
        common = ["--seed", str(args.seed), "--goldens", str(Path(args.goldens).resolve())]
        if args.tiny:
            common.append("--tiny")
        if args.trace:
            values, *children = trace(run, args, common)
            units = PER_LAYER
        else:
            values, *children = measure(run, args, common)
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": _git_sha(),
        "attempted": attempted, "failed": failed, "fail_rate": failed / attempted if attempted else None,
        "values": values, "children": children,
    }
    with open(STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
    for child in children:
        for bad in child["mismatches"]:
            print(f"perfbench: FAILED {bad['op']}: {bad['error']}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} operations, {failed} failed "
          f"(fail_rate {meta['fail_rate']:.4f}); python {meta['python']}, nproc {meta['nproc']}, git {meta['git_sha']}",
          file=sys.stderr)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": _metrics(values, units)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
