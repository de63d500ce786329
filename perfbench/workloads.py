"""The benchmark's workloads: the config each one hands the program, and the
CLI steps one round runs.

Every workload pins its domains (`source.seed`, `target.seed`) and its EM
seed to the values the bundled config derives from its own `"seed": 0`, and
takes the benchmark seed as the DE seed (`de.seed = 202 + seed`, so seed 0
reproduces the bundled config's search). The domains and the EM seed stay
fixed because drawing them from the seed changes which optimum the search
finds, and so the work of a run, by about 20 %. Stall termination is off
(`stall_tolerance` 0) so that every seed runs the whole DE budget.
"""

from __future__ import annotations

import copy

SOURCE_SEED = 1  # the bundled config's seed 0 plus cli.SOURCE_SEED_OFFSET
TARGET_SEED = 2  # ... plus cli.TARGET_SEED_OFFSET
EM_SEED = 101  # ... plus cli.EM_SEED_OFFSET
DE_SEED_BASE = 202  # ... plus cli.DE_SEED_OFFSET

# configs/waymo_like_to_kitti_like.json, copied so that the workload does not
# change when that file does.
BUNDLED = {
    "seed": 0,
    "out_dir": "out",
    "source": {"size_mean": [2.1, 4.8, 1.8], "size_std": [0.04, 0.05, 0.03], "n_frames": 40},
    "target": {"size_mean": [1.6, 3.9, 1.5], "size_std": [0.04, 0.05, 0.03], "n_frames": 30},
    "gate": {"tau": 0.6},
    "em": {"k": 8},
    "sweep": {"relative_range": 0.5, "steps": 21},
    "de": {"population": 16, "max_iters": 60, "stall_generations": 12},
}

CALIBRATE = ("calibrate",)
CHAIN = ("gen", "refdb", "fit", "sweep", "calibrate", "report", "calibrate")


def _pinned(config: dict, seed: int) -> dict:
    config = copy.deepcopy(config)
    config["source"]["seed"] = SOURCE_SEED
    config["target"]["seed"] = TARGET_SEED
    config["em"]["seed"] = EM_SEED
    config["de"]["seed"] = DE_SEED_BASE + seed
    config["de"]["stall_tolerance"] = 0.0
    return config


def calibrate_bundled(seed: int) -> dict:
    return _pinned(BUNDLED, seed)


def wide_features(seed: int) -> dict:
    config = copy.deepcopy(BUNDLED)
    config["source"].update(n_frames=100, clutter_rate=2000, grid_resolution=6)
    config["target"].update(
        n_frames=10, objects_per_frame=10, points_per_object=10, clutter_rate=200,
        frame_extent=[50.0, 50.0, 4.0], grid_resolution=6,
    )
    config["em"]["k"] = 16
    config["de"]["max_iters"] = 30
    return _pinned(config, seed)


def stage_chain(seed: int) -> dict:
    config = copy.deepcopy(BUNDLED)
    config["source"]["n_frames"] = 250
    config["target"]["n_frames"] = 100
    config["sweep"]["steps"] = 7
    config["de"].update(population=8, max_iters=6)
    return _pinned(config, seed)


# name -> (config builder, CLI steps of one round, calibrate steps that reuse
# stored sweep curves, whether the calibrated sizes must land within 8 % of
# the target's generating means)
WORKLOADS = {
    "calibrate_bundled": (calibrate_bundled, CALIBRATE, (), True),
    "wide_features": (wide_features, CALIBRATE, (), True),
    "stage_chain": (stage_chain, CHAIN, (4, 6), False),
}
