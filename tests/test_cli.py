import hashlib
import json
import math
import shutil
import struct
import subprocess
import sys
import tracemalloc

import pytest

from anchorcal.cli import main
from anchorcal.synthdet import SyntheticExtractor
from anchorcal.storage import _SFDB_HEADER, load_curve, load_feature_db, load_gmm, load_result


def small_config(out_dir, **tweaks):
    cfg = {
        "seed": 3,
        "out_dir": str(out_dir),
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
        "gate": {"tau": 0.6},
        "em": {"k": 2},
        "sweep": {"relative_range": 0.5, "steps": 5},
        "de": {"population": 4, "max_iters": 6, "stall_generations": 3},
    }
    for key, value in tweaks.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def tree_hashes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_gen_writes_manifests(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("gen", "--config", cfg) == 0
    assert (out / "domains" / "source" / "manifest.json").exists()
    assert (out / "domains" / "target" / "frames.bin").exists()


def test_gen_rejects_negative_field(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        small_config(tmp_path / "out", source={"objects_per_frame": -1.0}),
    )
    assert run("gen", "--config", cfg) == 2
    assert "objects_per_frame" in capsys.readouterr().err


def test_gen_is_byte_deterministic(tmp_path):
    cfg1 = write_config(tmp_path, small_config(tmp_path / "a"), "a.json")
    cfg2 = write_config(tmp_path, small_config(tmp_path / "b"), "b.json")
    assert run("gen", "--config", cfg1) == 0
    assert run("gen", "--config", cfg2) == 0
    assert tree_hashes(tmp_path / "a") == tree_hashes(tmp_path / "b")


def test_refdb_fit_sweep_calibrate_chain(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("gen", "--config", cfg) == 0
    assert run("refdb", "--config", cfg) == 0
    db = load_feature_db(out / "reference.sfdb")
    assert len(db) > 0 and db.dim == 64

    assert run("fit", "--config", cfg) == 0
    model = load_gmm(out / "model.json")
    assert model.k == 2 and model.dim == 64

    assert run("sweep", "--config", cfg) == 0
    for axis in ("w", "l", "h"):
        assert len(load_curve(out / f"sweep_{axis}.csv")) == 5

    assert run("calibrate", "--config", cfg) == 0
    result = load_result(out / "result.json")
    assert result.fitness_calibrated >= result.fitness_source
    assert all(b >= a for a, b in zip(result.de_trace, result.de_trace[1:]))
    assert (out / "trace.csv").exists()


def test_calibrate_reuses_sweep_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, small_config(out_a), "a.json")
    cfg_b = write_config(tmp_path, small_config(out_b), "b.json")
    # chain a: sweep first, then calibrate (reuses the curves)
    assert run("sweep", "--config", cfg_a) == 0
    assert run("calibrate", "--config", cfg_a) == 0
    # chain b: calibrate from scratch
    assert run("calibrate", "--config", cfg_b) == 0
    res_a = load_result(out_a / "result.json")
    res_b = load_result(out_b / "result.json")
    assert res_a.calibrated == res_b.calibrated
    assert res_a.sweep_curves == res_b.sweep_curves
    assert res_a.evaluations == res_b.evaluations - 15


def test_calibrate_without_priors_is_self_contained(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("calibrate", "--config", cfg) == 0
    assert (out / "result.json").exists()
    for axis in ("w", "l", "h"):
        assert (out / f"sweep_{axis}.csv").exists()


def test_stage_outputs_are_idempotent(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    for command in ("gen", "refdb", "fit", "sweep", "calibrate", "report"):
        assert run(command, "--config", cfg) == 0
    first = tree_hashes(out)
    for command in ("gen", "refdb", "fit", "sweep", "calibrate", "report"):
        assert run(command, "--config", cfg) == 0
    assert tree_hashes(out) == first


def test_sweep_and_calibrate_with_a_stored_model_read_no_source_frame(tmp_path, capsys):
    # sweep needs only the source's sizes, and calibrate with a stored model
    # too, so a cut source frames file goes unread until the model is gone
    trees = {}
    for name in ("intact", "cut"):
        out = tmp_path / name
        cfg = write_config(tmp_path, small_config(out), f"{name}.json")
        for command in ("gen", "refdb", "fit"):
            assert run(command, "--config", cfg) == 0
        frames = out / "domains" / "source" / "frames.bin"
        if name == "cut":
            frames.write_bytes(frames.read_bytes()[:100])
        for command in ("sweep", "calibrate"):
            assert run(command, "--config", cfg) == 0, f"{name}: {command}"
        trees[name] = tree_hashes(out)
        del trees[name]["domains/source/frames.bin"]
    assert trees["cut"] == trees["intact"]
    (tmp_path / "cut" / "model.json").unlink()
    capsys.readouterr()
    assert run("calibrate", "--config", tmp_path / "cut.json") == 3
    assert "truncated frames file" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["cut_mid_frame", "trailing_byte"])
def test_refdb_on_a_damaged_source_exits_three_and_writes_nothing(
    tmp_path, capsys, monkeypatch, damage
):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("gen", "--config", cfg) == 0
    frames = out / "domains" / "source" / "frames.bin"
    data = frames.read_bytes()
    # 9 bytes short of the end cuts the last frame's clutter block
    frames.write_bytes(data[:-9] if damage == "cut_mid_frame" else data + b"\0")
    calls = []
    kernel = SyntheticExtractor.gated_features
    monkeypatch.setattr(
        SyntheticExtractor, "gated_features",
        lambda self, *args: calls.append(1) or kernel(self, *args),
    )
    capsys.readouterr()
    assert run("refdb", "--config", cfg) == 3
    err = capsys.readouterr().err
    assert ("truncated frames file" if damage == "cut_mid_frame" else "1 trailing bytes") in err
    assert not (out / "reference.sfdb").exists()
    # the reader fails mid-build, after the frames before the damage were gated
    assert len(calls) == (5 if damage == "cut_mid_frame" else 6)


def test_calibrate_without_a_model_writes_the_same_bytes_from_a_staged_and_a_generated_source(
    tmp_path,
):
    staged, generated = tmp_path / "staged", tmp_path / "generated"
    cfg_staged = write_config(tmp_path, small_config(staged), "staged.json")
    cfg_generated = write_config(tmp_path, small_config(generated), "generated.json")
    assert run("gen", "--config", cfg_staged) == 0
    assert run("calibrate", "--config", cfg_staged) == 0
    assert run("calibrate", "--config", cfg_generated) == 0
    trees = {name: tree_hashes(out) for name, out in (("s", staged), ("g", generated))}
    trees["s"] = {k: v for k, v in trees["s"].items() if not k.startswith("domains/")}
    assert trees["s"] == trees["g"]
    assert {"result.json", "trace.csv", "sweep_w.csv"} <= set(trees["g"])


def _traced_peak(*argv):
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_and_refdb_hold_no_whole_source_domain(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        small_config(out, source={"clutter_rate": 6000.0, "n_frames": 60},
                     target={"n_frames": 2}),
    )
    gen_peak = _traced_peak("gen", "--config", cfg)
    source_bytes = (out / "domains" / "source" / "frames.bin").stat().st_size
    assert source_bytes > 8_000_000
    refdb_peak = _traced_peak("refdb", "--config", cfg)
    assert gen_peak < source_bytes / 4, (gen_peak, source_bytes)
    assert refdb_peak < source_bytes / 4, (refdb_peak, source_bytes)


def test_report_prints_summary(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("calibrate", "--config", cfg) == 0
    capsys.readouterr()
    assert run("report", "--config", cfg) == 0
    text = capsys.readouterr().out
    assert "calibrated sizes" in text and "fitness" in text
    assert (out / "report.txt").read_text() == text


def test_report_without_result_is_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(tmp_path / "out"))
    assert run("report", "--config", cfg) == 3


@pytest.mark.parametrize("corruption", ["dim_zero", "non_finite_row"])
def test_corrupt_reference_db_is_io_error(tmp_path, capsys, corruption):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("refdb", "--config", cfg) == 0
    path = out / "reference.sfdb"
    data = bytearray(path.read_bytes())
    magic, version, _, count = _SFDB_HEADER.unpack_from(data)
    if corruption == "dim_zero":
        data = _SFDB_HEADER.pack(magic, version, 0, count)
    else:
        data[_SFDB_HEADER.size : _SFDB_HEADER.size + 4] = struct.pack("<f", math.nan)
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run("fit", "--config", cfg) == 3
    assert "reference.sfdb" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [lambda spec: spec.pop("size_mean"), lambda spec: spec.update(grid_resolution=0)],
    ids=["no_size_mean", "grid_resolution_zero"],
)
def test_corrupt_domain_manifest_is_io_error(tmp_path, capsys, edit):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("gen", "--config", cfg) == 0
    path = out / "domains" / "target" / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["spec"])
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("sweep", "--config", cfg) == 3
    assert "bad domain spec" in capsys.readouterr().err


def test_full_gate_yields_zero_feature_exit(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(tmp_path / "out"))
    assert run("refdb", "--config", cfg, "--tau", 1.0) == 4
    assert "gate" in capsys.readouterr().err


def test_fit_with_too_few_samples_exits_four(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(tmp_path / "out", em={"k": 10_000}))
    assert run("fit", "--config", cfg) == 4


def test_dimension_mismatch_exits_five(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, small_config(out))
    assert run("fit", "--config", cfg) == 0
    # replant a model of the wrong dimension where calibrate will find it
    model = load_gmm(out / "model.json")
    from anchorcal.gmm import Gmm
    from anchorcal.storage import save_gmm

    small = Gmm(model.weights, model.means[:, :8], model.variances[:, :8])
    save_gmm(small, out / "model.json")
    assert run("calibrate", "--config", cfg) == 5
    assert "dim" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path):
    assert run("gen", "--config", tmp_path / "nope.json") == 3


def test_malformed_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run("gen", "--config", path) == 2


def test_unknown_domain_field_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(tmp_path / "out", source={"bogus": 1}))
    assert run("gen", "--config", cfg) == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_top_level_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(tmp_path / "out", threads=4))
    assert run("gen", "--config", cfg) == 2
    assert "threads" in capsys.readouterr().err


def test_frame_subset_gate_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, small_config(tmp_path / "out", gate={"frame_subset": 0.5}))
    assert run("gen", "--config", cfg) == 2
    assert "frame_subset" in capsys.readouterr().err


def test_bad_sweep_axes_is_config_error(tmp_path):
    cfg = write_config(tmp_path, small_config(tmp_path / "out", sweep={"axes": ["w", "w"]}))
    assert run("gen", "--config", cfg) == 2


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("em", "restarts", 1),
        ("em", "max_iters", 200),
        ("em", "ll_tolerance", 1e-6),
        ("em", "variance_floor", 1e-6),
        ("de", "eta", 0.7),
        ("de", "crossover_rate", 0.7),
        ("de", "init_range", 0.3),
        ("sweep", "axes", ["w", "l", "h"]),
    ],
)
def test_a_fixed_setting_in_the_config_is_config_error(tmp_path, capsys, section, key, value):
    cfg = write_config(tmp_path, small_config(tmp_path / "out", **{section: {key: value}}))
    assert run("gen", "--config", cfg) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cache_only_section_loads_from_disk(tmp_path):
    staging = tmp_path / "stage"
    gen_cfg = write_config(tmp_path, small_config(staging), "gen.json")
    assert run("gen", "--config", gen_cfg) == 0
    reuse = small_config(tmp_path / "out2")
    reuse["source"] = {"cache": str(staging / "domains" / "source")}
    reuse["target"] = {"cache": str(staging / "domains" / "target")}
    reuse_cfg = write_config(tmp_path, reuse, "reuse.json")
    assert run("refdb", "--config", reuse_cfg) == 0
    assert (tmp_path / "out2" / "reference.sfdb").exists()
    # gen on a cache-only section has nothing to generate
    assert run("gen", "--config", reuse_cfg) == 2


def test_console_entry_point(tmp_path):
    script = shutil.which("anchorcal")
    cmd = [script] if script else [sys.executable, "-m", "anchorcal.cli"]
    cfg = write_config(tmp_path, small_config(tmp_path / "out"))
    proc = subprocess.run(
        cmd + ["gen", "--config", str(cfg)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "manifest" in proc.stdout


def test_seed_override_changes_domains(tmp_path):
    cfg1 = write_config(tmp_path, small_config(tmp_path / "a"), "a.json")
    cfg2 = write_config(tmp_path, small_config(tmp_path / "b"), "b.json")
    assert run("gen", "--config", cfg1) == 0
    assert run("gen", "--config", cfg2, "--seed", 99) == 0
    a = (tmp_path / "a" / "domains" / "source" / "frames.bin").read_bytes()
    b = (tmp_path / "b" / "domains" / "source" / "frames.bin").read_bytes()
    assert a != b


def test_bundled_example_config_parses(tmp_path):
    import pathlib

    bundled = pathlib.Path(__file__).resolve().parents[1] / "configs" / "waymo_like_to_kitti_like.json"
    from anchorcal.cli import build_parser, load_config

    args = build_parser().parse_args(
        ["calibrate", "--config", str(bundled), "--out", str(tmp_path / "o")]
    )
    cfg = load_config(bundled, args)
    assert cfg.em.k == 8
    assert cfg.source.n_frames == 40 and cfg.target.n_frames == 30
    assert all(sc.steps == 21 for sc in cfg.sweep_configs)
