"""Run the benchmark on several seeds and summarise each metric, run from
the root of a source checkout:

    python3 perfbench/repeat.py --seeds 0-9 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs are sequential. For every workload and metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the quartile spread as a share
of the median, and with --out writes the same summary plus every run's
values as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git_sha() -> str | None:
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)

    summary = {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": _git_sha(),
               "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
                         "values": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["values"].items()), file=sys.stderr, flush=True)
        metrics = {}
        for name in runs[0]["values"]:
            values = [r["values"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            metrics[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                             "runs": len(values)}
            print(f"{workload:15s} {name:26s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {metrics[name]['spread'] if med else float('nan'):.4f}  n={len(values)}")
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
