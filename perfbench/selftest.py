"""Self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that
- a tiny version of each workload completes, traced and untraced, and
  prints exactly the metric names and units BENCHMARK.json declares;
- the traced counts on check-families hold observation.calls = mdp.policies
  and evaluate.calls = 2 * mdp.policies;
- a tampered golden makes the run report failed operations;
- a golden equals the sha256 of the CLI's own stdout, run as a program;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SCRATCH = ROOT / ".perfbench" / "selftest"

failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def declared(section: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    for name in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, res = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny")
            ok = code == 0 and res is not None and set(res) == {"correct", "attempted", "failed", "metrics"}
            check(ok and res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"tiny {name} --trace {trace} completes with every report matching its golden")
            units = {k: v["unit"] for k, v in res["metrics"].items()} if ok else {}
            check(units == declared(section), f"tiny {name} --trace {trace} prints every {section} metric with its unit")
            if ok and trace and name == "check-families":
                m = {k: v["value"] for k, v in res["metrics"].items()}
                check(m["observation.calls"] == m["mdp.policies"] > 0 and m["evaluate.calls"] == 2 * m["mdp.policies"],
                      "check-families counts: observation.calls = mdp.policies, evaluate.calls = 2 x mdp.policies")

    with open(HERE / "goldens.json", encoding="utf-8") as fh:
        goldens = json.load(fh)
    key = "verify-grid/p1-H1"
    goldens["ops"][key]["sha256"] = "0" * 64
    tampered = SCRATCH / "tampered-goldens.json"
    tampered.write_text(json.dumps(goldens), encoding="utf-8")
    code, res = bench("--workload", "verify-grid", "--seconds", "1", "--tiny", "--goldens", str(tampered))
    check(code == 0 and res is not None and res["failed"] > 0 and not res["correct"],
          "a tampered golden is reported as a failed operation")

    argv = ["verify", "--prop", "1", "--H", "1", "--cap", "1000000"]
    env = {k: v for k, v in os.environ.items() if k != "SHORTSIGHT_POLICY_CAP"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "shortsight.cli", *argv], cwd=SCRATCH, env=env,
                          capture_output=True, timeout=60)
    with open(HERE / "goldens.json", encoding="utf-8") as fh:
        golden = json.load(fh)["ops"][key]
    check(proc.returncode == golden["exit"] and hashlib.sha256(proc.stdout).hexdigest() == golden["sha256"],
          f"golden of {key} equals the CLI's own stdout")

    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, res = bench("--workload", "verify-grid", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    check(code != 0 and res is None, "without the source tree the benchmark exits non-zero and prints no result")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
