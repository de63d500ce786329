import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
    )


@pytest.mark.parametrize(
    "script",
    ["refdb_size_study.py", "run_shift_demo.py", "step_peaks.py", "sweep_quality_curves.py"],
)
def test_study_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_step_peaks_reports_every_step_of_a_staged_chain(tmp_path):
    config = {
        "seed": 3,
        "source": {"size_mean": [2.1, 4.8, 1.8], "size_std": [0.04, 0.05, 0.03],
                   "clutter_rate": 800.0, "n_frames": 4},
        "target": {"size_mean": [1.6, 3.9, 1.5], "size_std": [0.04, 0.05, 0.03],
                   "clutter_rate": 800.0, "n_frames": 3},
        "em": {"k": 2},
        "sweep": {"steps": 3},
        "de": {"population": 4, "max_iters": 2},
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(config))
    proc = run_script("step_peaks.py", "--config", path, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    steps = summary["steps"]
    assert [s["step"] for s in steps] == ["gen", "refdb", "fit", "sweep", "calibrate", "report"]
    for s in steps:
        assert s["exit_code"] == 0 and s["vmhwm_mib"] > 1.0 and s["wall_s"] > 0.0
    assert summary["ok"] and summary["peak_mib"] == max(s["vmhwm_mib"] for s in steps)
    assert (tmp_path / "out" / "report.txt").exists()
    # a failing step stops the chain and the script exits 1
    proc = run_script("step_peaks.py", "--config", path, "--steps", "report", "fit")
    assert proc.returncode == 1
    summary = json.loads(proc.stdout)
    assert [s["exit_code"] for s in summary["steps"]] == [3] and not summary["ok"]
