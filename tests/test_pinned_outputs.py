"""Pinned sha256s of the artifacts the CLI writes.

A change that must leave outputs alone proves it here: every hash below is
the one the code wrote when it was pinned, with numpy 2.4.6. A numpy upgrade
may move them; then this test says which file moved and to what, and the
pins are updated on purpose, never silently.

The bundled config's fit gives the same bits at 1 and 2 BLAS threads, so its
pins hold on a multi-core host. A config whose EM fit depends on the BLAS
thread count (such as the benchmark's wide_features) is not pinned.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from anchorcal.cli import main

ROOT = Path(__file__).resolve().parents[1]
BUNDLED_CONFIG = ROOT / "configs" / "waymo_like_to_kitti_like.json"

# the config of test_acceptance's test_09_byte_determinism chain
CHAIN_CONFIG = {
    "seed": 3,
    "source": {
        "size_mean": [2.1, 4.8, 1.8],
        "size_std": [0.04, 0.05, 0.03],
        "clutter_rate": 800.0,
        "n_frames": 6,
    },
    "target": {
        "size_mean": [1.6, 3.9, 1.5],
        "size_std": [0.04, 0.05, 0.03],
        "clutter_rate": 800.0,
        "n_frames": 5,
    },
    "em": {"k": 2},
    "sweep": {"steps": 5},
    "de": {"population": 4, "max_iters": 6, "stall_generations": 3},
}

CHAIN_HASHES = {
    "domains/source/frames.bin": "ce594ef10ea76627ac0bcdd211ca98bab3d547a7c486949a779e8a48cc44e45f",
    "domains/source/manifest.json": "5b7ce9a5b1a12405a1d093a7f312787e8aa4fcd80352d8e06e4fc7fd96d4247c",
    "domains/target/frames.bin": "d6ec7538bab4dcc493397f7d3ec11701cc94878a90c780c765cf65d0c2597661",
    "domains/target/manifest.json": "bcbdf0eb01d5f2a88b51d412b2a532c9929de5352e0a60076cb2b1b045a70a0d",
    "report.txt": "142df196ff9b9b082713ed5b838c9b8ba32e52ef8eacb53fd7e5b45c6c3d613f",
    "result.json": "9bcada5103f73816ac25a2c22b402ae36cea2258fac70186dd2c4056b4eca768",
    "sweep_h.csv": "3d7168bc796a2a3ab3c792ae2228283f83203f9a8a81eded310f47cb1885f24c",
    "sweep_l.csv": "48610a57d77142e508ab371f158038f9846b69110e5be857fb35d1c1e63dcef6",
    "sweep_w.csv": "cffc96b8c70f1703221dd3ea5890e81ba02f172293fa1f36adf82ca22e5cb931",
    "trace.csv": "e4f4d3b140ffc8cf7629a50b4e57e314501389e81bf90f2ed8350fe752fbe3ab",
}

# the same config run one stage per process; calibrate reads the stored curves
# and skips the sweep's evaluations, so its result and report differ
STAGED_HASHES = {
    **CHAIN_HASHES,
    "model.json": "bb7da52a16a6b359246a4f20c9dca85a2daa1d590a4f86c5f90648b6b1f6a32a",
    "reference.sfdb": "106650b197774b5fe2c99ed99860f92bbac315c3eda028674d0deb397da0d94d",
    "report.txt": "4ef7bfe2c316600c2f6f68940f078c40956b0639e56998f24bde8dc9de08bcbb",
    "result.json": "771788da79bb38308e5aa65547aed63f06711ccc77bb5a08e60098a826f48587",
}

BUNDLED_HASHES = {
    "result.json": "468877430233f5ab569f829b6dafd59ad8da81ce95d0d7cdb610303279232977",
    "sweep_h.csv": "8dbf8e4ceaf5240bd16d30b08bb9a903f3d2fbba8586d6279f0aed5121bf12e1",
    "sweep_l.csv": "4d2bc2408be24c2025864a334039dce03685f549ba0b7f3844d3548b1d9e70a2",
    "sweep_w.csv": "3a175e26d9814952bd0edd736695a4ab59f05b1be6b098206b6b454af607797b",
    "trace.csv": "0fade5332aff85b0fc5535c0c84d072069915ee58cbdd39489a325ab02dcae61",
}


def assert_tree_matches(root: Path, pinned: dict[str, str]) -> None:
    found = {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
    mismatches = [
        f"{name}: pinned {want}, got {found.get(name, 'no such file')}"
        for name, want in pinned.items()
        if found.get(name) != want
    ]
    mismatches += [f"{name}: not pinned, got {found[name]}" for name in found.keys() - pinned]
    assert not mismatches, "artifacts differ from the pinned hashes:\n" + "\n".join(mismatches)


def test_gen_calibrate_report_chain_matches_pinned_hashes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({**CHAIN_CONFIG, "out_dir": str(out)}))
    for command in ("gen", "calibrate", "report"):
        assert main([command, "--config", str(cfg)]) == 0, command
    assert_tree_matches(out, CHAIN_HASHES)


def test_staged_chain_matches_pinned_hashes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({**CHAIN_CONFIG, "out_dir": str(out)}))
    for command in ("gen", "refdb", "fit", "sweep", "calibrate", "report"):
        assert main([command, "--config", str(cfg)]) == 0, command
    assert_tree_matches(out, STAGED_HASHES)


def test_bundled_calibrate_matches_pinned_hashes(tmp_path):
    out = tmp_path / "out"
    assert main(["calibrate", "--config", str(BUNDLED_CONFIG), "--out", str(out)]) == 0
    assert_tree_matches(out, BUNDLED_HASHES)


def _cut_w_curve(out: Path) -> None:
    path = out / "sweep_w.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))


@pytest.mark.parametrize(
    "sweep, edit",
    [({}, _cut_w_curve), ({"sweep": {"steps": 7}}, lambda out: None)],
    ids=["cut_curve", "other_steps"],
)
def test_calibrate_sweeps_again_over_curves_of_another_grid(tmp_path, sweep, edit):
    """Stored curves whose values are not this config's grid are not reused:
    calibrate sweeps again and writes the one-shot chain's bytes."""
    out = tmp_path / "out"
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({**CHAIN_CONFIG, "out_dir": str(out)}))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**CHAIN_CONFIG, **sweep, "out_dir": str(out)}))
    assert main(["gen", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(other)]) == 0
    edit(out)
    for command in ("calibrate", "report"):
        assert main([command, "--config", str(cfg)]) == 0, command
    assert_tree_matches(out, CHAIN_HASHES)


def test_chain_under_python_O_matches_pinned_hashes(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({**CHAIN_CONFIG, "out_dir": str(out)}))
    script = (
        "import sys\n"
        "from anchorcal.cli import main\n"
        "if sys.flags.optimize < 1:\n"
        "    sys.exit('asserts are not stripped')\n"
        "for command in ('gen', 'calibrate', 'report'):\n"
        "    code = main([command, '--config', sys.argv[1]])\n"
        "    if code:\n"
        "        sys.exit(f'{command} exited {code}')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, str(cfg)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert_tree_matches(out, CHAIN_HASHES)
