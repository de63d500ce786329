"""Peak memory and wall time of each step of a config's staged CLI chain.

    PYTHONPATH=src python3 scripts/step_peaks.py --config CONFIG [--out DIR]
        [--steps gen refdb fit sweep calibrate report]

Runs each step as its own process, in order, into one output directory
(a temporary one unless --out is given): a fresh interpreter runs
`anchorcal.cli.main(STEP --config CONFIG --out DIR)` and, as it ends, reads
its own peak resident set (VmHWM in /proc/self/status, which starts afresh
at exec). Prints one JSON object: per step its exit code, VmHWM in MiB and
wall time in seconds (measured around the process, so interpreter start-up
is included), and the highest VmHWM of the chain. Stops at the first step
that fails, and then exits 1.

The benchmark's large staged chain is the `stage_chain` workload; its
config at seed 0 can be written with

    python3 -c "import json, sys; sys.path.insert(0, 'perfbench');
    from workloads import stage_chain; print(json.dumps(stage_chain(0)))" > chain.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPS = ("gen", "refdb", "fit", "sweep", "calibrate", "report")

# the child prints its record as the last line of its output
CHILD = """
import json, sys
from anchorcal.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit_code": code, "vmhwm_kb": hwm_kb}))
"""


def run_step(step: str, config: Path, out: Path) -> dict:
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, step, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    wall_s = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"exit_code": proc.returncode, "vmhwm_kb": None}
    return {
        "step": step,
        "exit_code": record["exit_code"],
        "vmhwm_mib": None if record["vmhwm_kb"] is None else record["vmhwm_kb"] / 1024.0,
        "wall_s": wall_s,
        **({"stderr": proc.stderr.strip()} if record["exit_code"] else {}),
    }


def run_chain(config: Path, out: Path, steps) -> dict:
    results = []
    for step in steps:
        results.append(run_step(step, config, out))
        if results[-1]["exit_code"]:
            break
    peaks = [r["vmhwm_mib"] for r in results if r["vmhwm_mib"] is not None]
    return {
        "config": str(config),
        "steps": results,
        "peak_mib": max(peaks) if peaks else None,
        "ok": len(results) == len(steps) and not any(r["exit_code"] for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path, help="run configuration JSON")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default: a temporary one, removed after)")
    parser.add_argument("--steps", nargs="+", default=list(STEPS),
                        help=f"CLI steps to run in order (default: {' '.join(STEPS)})")
    args = parser.parse_args(argv)
    config = args.config.resolve()
    if args.out is not None:
        summary = run_chain(config, args.out.resolve(), args.steps)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            summary = run_chain(config, Path(tmp), args.steps)
    print(json.dumps(summary, indent=2))
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
