"""Command-line driver for the calibration pipeline.

Each subcommand exposes one stage and reads earlier stages' artifacts from
the output directory when they exist, computing them in memory otherwise:

    gen        materialize the configured synthetic domains to disk
    refdb      build the gated source feature database (reference.sfdb)
    fit        fit the mixture model (model.json)
    sweep      per-axis fitness curves (sweep_<axis>.csv)
    calibrate  full pipeline (result.json, trace.csv, curves)
    report     human-readable summary of a stored result

Exit codes: 0 success, 2 invalid configuration, 3 I/O or file-format
failure, 4 a stage produced zero features (or too few samples), 5 feature
dimensions of stored artifacts disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import (
    SIZE_AXES,
    AnchorSizes,
    CalibrationError,
    DimensionMismatchError,
    EmptyDatabaseError,
    FeatureDatabase,
    InsufficientSamplesError,
)
from .extractor import GateConfig, build_reference_db
from .gmm import EmConfig, Gmm, fit_em
from .optimizer import (
    Curve,
    DeConfig,
    SweepConfig,
    calibrate,
    linear_sweep,
    make_target_fitness,
)
from .storage import (
    FormatError,
    MANIFEST_NAME,
    domain_spec_from_json,
    load_curve,
    load_domain,
    load_feature_db,
    load_gmm,
    load_result,
    open_domain,
    save_curve,
    save_domain,
    save_feature_db,
    save_gmm,
    save_result,
    save_text,
    save_trace,
)
from .synthdet import StreamedExtractor, SyntheticDomain, SyntheticExtractor, generate_domain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_DIMENSION = 5

# seed offsets keep every stage's stream independent of the others
SOURCE_SEED_OFFSET = 1
TARGET_SEED_OFFSET = 2
EM_SEED_OFFSET = 101
DE_SEED_OFFSET = 202

DEFAULT_N_FRAMES = 30

CONFIG_KEYS = {"seed", "out_dir", "source", "target", "gate", "em", "sweep", "de"}


@dataclass(frozen=True)
class DomainSection:
    """One side of the shift: either an inline spec or a cache directory."""

    cache: Path | None
    spec_fields: Mapping[str, object] | None
    n_frames: int


@dataclass(frozen=True)
class RunConfig:
    seed: int
    out_dir: Path
    source: DomainSection
    target: DomainSection
    gate: GateConfig
    em: EmConfig
    sweep_configs: tuple[SweepConfig, ...]
    de: DeConfig


def _section(raw: Mapping[str, object], name: str) -> Mapping[str, object]:
    value = raw.get(name, {})
    if not isinstance(value, Mapping):
        raise ValueError(f"config section {name!r} must be an object")
    return value


def _domain_section(
    raw: Mapping[str, object], name: str, default_seed: int, config_dir: Path
) -> DomainSection:
    section = dict(_section(raw, name))
    cache = section.pop("cache", None)
    n_frames = int(section.pop("n_frames", DEFAULT_N_FRAMES))
    if n_frames < 1:
        raise ValueError(f"{name}.n_frames must be >= 1")
    if cache is not None:
        if section:
            raise ValueError(f"{name}: a cache path excludes inline spec fields {sorted(section)}")
        return DomainSection(config_dir / str(cache), None, n_frames)
    if "size_mean" not in section or "size_std" not in section:
        raise ValueError(f"{name}: needs size_mean and size_std (or a cache path)")
    section.setdefault("seed", default_seed)
    domain_spec_from_json(section)  # validate eagerly so errors exit as config errors
    return DomainSection(None, section, n_frames)


def load_config(path: str | Path, overrides: argparse.Namespace) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")

    seed = int(raw.get("seed", 0)) if overrides.seed is None else overrides.seed
    out_dir = Path(raw.get("out_dir", "out")) if overrides.out is None else Path(overrides.out)

    gate_raw = dict(_section(raw, "gate"))
    if overrides.tau is not None:
        gate_raw["tau"] = overrides.tau
    gate = GateConfig(**gate_raw)

    em_raw = dict(_section(raw, "em"))
    em_raw.setdefault("seed", seed + EM_SEED_OFFSET)
    em = EmConfig(**em_raw)

    sweep_raw = _section(raw, "sweep")
    sweep_configs = tuple(SweepConfig(axis, **sweep_raw) for axis in SIZE_AXES)

    de_raw = dict(_section(raw, "de"))
    de_raw.setdefault("seed", seed + DE_SEED_OFFSET)
    de = DeConfig(**de_raw)

    config_dir = path.parent
    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        source=_domain_section(raw, "source", seed + SOURCE_SEED_OFFSET, config_dir),
        target=_domain_section(raw, "target", seed + TARGET_SEED_OFFSET, config_dir),
        gate=gate,
        em=em,
        sweep_configs=sweep_configs,
        de=de,
    )


def _domain_cache_dir(cfg: RunConfig, role: str) -> Path:
    return cfg.out_dir / "domains" / role


def _stored_domain(cfg: RunConfig, role: str) -> Path | None:
    """Where one role's domain is cached: the config's cache path, else the
    directory gen staged in the output directory; None if neither exists."""
    section = getattr(cfg, role)
    if section.cache is not None:
        return section.cache
    staged = _domain_cache_dir(cfg, role)
    return staged if (staged / MANIFEST_NAME).exists() else None


def _materialize(cfg: RunConfig, role: str) -> SyntheticExtractor:
    """Load the domain for one role, preferring caches over regeneration."""
    stored = _stored_domain(cfg, role)
    if stored is not None:
        return load_domain(stored)
    section = getattr(cfg, role)
    return generate_domain(domain_spec_from_json(section.spec_fields), section.n_frames)


def _drawn(spec: SyntheticDomain, n_frames: int) -> StreamedExtractor:
    """A domain drawn one frame at a time, each frame as a one-frame domain."""
    return StreamedExtractor(
        spec, n_frames, lambda: (generate_domain(spec, range(i, i + 1)) for i in range(n_frames))
    )


def _streamed(cfg: RunConfig, role: str) -> StreamedExtractor:
    """One role's domain served a frame at a time, from where _materialize
    would load it; nothing is read or drawn before the first query."""
    stored = _stored_domain(cfg, role)
    if stored is not None:
        return open_domain(stored)
    section = getattr(cfg, role)
    return _drawn(domain_spec_from_json(section.spec_fields), section.n_frames)


def cmd_gen(cfg: RunConfig) -> int:
    for role in ("source", "target"):
        section = getattr(cfg, role)
        if section.spec_fields is None:
            raise ValueError(f"{role}: cache-only section, nothing to generate")
        spec = domain_spec_from_json(section.spec_fields)
        out = _domain_cache_dir(cfg, role)
        # each frame is written as it is drawn
        save_domain(_drawn(spec, section.n_frames), out)
        print(f"wrote {out / MANIFEST_NAME} ({section.n_frames} frames)")
    return EXIT_OK


def _reference_path(cfg: RunConfig) -> Path:
    return cfg.out_dir / "reference.sfdb"


def _model_path(cfg: RunConfig) -> Path:
    return cfg.out_dir / "model.json"


def _curve_path(cfg: RunConfig, axis: str) -> Path:
    return cfg.out_dir / f"sweep_{axis}.csv"


def _get_reference(cfg: RunConfig) -> FeatureDatabase:
    path = _reference_path(cfg)
    if path.exists():
        return load_feature_db(path)
    source = _streamed(cfg, "source")
    return build_reference_db(source, list(source.frames()), cfg.gate)


def cmd_refdb(cfg: RunConfig) -> int:
    db = _get_reference(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_feature_db(db, _reference_path(cfg))
    print(f"wrote {_reference_path(cfg)} ({len(db)} features, dim {db.dim})")
    return EXIT_OK


def _get_model(cfg: RunConfig) -> Gmm:
    path = _model_path(cfg)
    if path.exists():
        return load_gmm(path)
    return fit_em(_get_reference(cfg), cfg.em)


def cmd_fit(cfg: RunConfig) -> int:
    model = _get_model(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_gmm(model, _model_path(cfg))
    print(f"wrote {_model_path(cfg)} (k={model.k}, dim={model.dim})")
    return EXIT_OK


def _check_dims(model: Gmm, extractor: SyntheticExtractor) -> None:
    if model.dim != extractor.feature_dim:
        raise DimensionMismatchError(
            f"stored model has dim {model.dim}, target features have dim {extractor.feature_dim}"
        )


def cmd_sweep(cfg: RunConfig) -> int:
    model = _get_model(cfg)
    source_sizes = _streamed(cfg, "source").source_sizes
    target = _materialize(cfg, "target")
    _check_dims(model, target)
    eval_fn = make_target_fitness(target, list(target.frames()), cfg.gate, model)
    _, curves = linear_sweep(eval_fn, source_sizes, cfg.sweep_configs)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    for axis, curve in curves.items():
        save_curve(curve, _curve_path(cfg, axis))
        print(f"wrote {_curve_path(cfg, axis)} ({len(curve)} points)")
    return EXIT_OK


def _stored_curves(cfg: RunConfig, source_sizes: AnchorSizes) -> dict[str, Curve] | None:
    """The stored sweep curves, or None unless every axis has one whose
    values are exactly this config's grid around the source sizes."""
    curves = {}
    for sweep_cfg in cfg.sweep_configs:
        path = _curve_path(cfg, sweep_cfg.axis)
        if not path.exists():
            return None
        curve = load_curve(path)
        grid = sweep_cfg.grid(source_sizes.axis(sweep_cfg.axis)).tolist()
        if [value for value, _ in curve] != grid:
            return None
        curves[sweep_cfg.axis] = curve
    return curves


def cmd_calibrate(cfg: RunConfig) -> int:
    model_path = _model_path(cfg)
    stored_model = load_gmm(model_path) if model_path.exists() else None
    # streamed, so a stored model, which skips the reference build, reads no
    # source frame, and a reference build holds one source frame at a time
    source = _streamed(cfg, "source")
    target = _materialize(cfg, "target")
    result = calibrate(
        source, target, list(source.frames()), list(target.frames()),
        gate=cfg.gate, em_config=cfg.em, sweep_configs=cfg.sweep_configs, de_config=cfg.de,
        sweep_curves=_stored_curves(cfg, source.source_sizes), model=stored_model,
    )

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_result(result, cfg.out_dir / "result.json")
    save_trace(result.de_trace, cfg.out_dir / "trace.csv")
    for axis, curve in result.sweep_curves.items():
        save_curve(curve, _curve_path(cfg, axis))
    c = result.calibrated
    print(f"wrote {cfg.out_dir / 'result.json'}")
    print(
        f"calibrated w={c.w:.4f} l={c.l:.4f} h={c.h:.4f} "
        f"fitness {result.fitness_source:.4f} -> {result.fitness_calibrated:.4f} "
        f"({result.termination}, {result.evaluations} evaluations)"
    )
    return EXIT_OK


def _format_report(result) -> str:
    src, cal = result.source_sizes, result.calibrated
    lines = ["calibration summary", ""]
    lines.append(f"  source sizes      w={src.w:.4f}  l={src.l:.4f}  h={src.h:.4f}")
    lines.append(f"  calibrated sizes  w={cal.w:.4f}  l={cal.l:.4f}  h={cal.h:.4f}")
    rel = [(getattr(cal, a) / getattr(src, a) - 1.0) * 100.0 for a in SIZE_AXES]
    lines.append(
        "  relative change   " + "  ".join(f"{a}={r:+.1f}%" for a, r in zip(SIZE_AXES, rel))
    )
    lines.append(
        f"  fitness           {result.fitness_source:.4f} -> {result.fitness_calibrated:.4f}"
    )
    lines.append(
        f"  termination       {result.termination} after {result.generations} generations,"
        f" {result.evaluations} evaluations"
    )
    for axis, curve in sorted(result.sweep_curves.items()):
        finite = [(v, f) for v, f in curve if f != float("-inf")]
        if finite:
            best_v, best_f = max(finite, key=lambda p: p[1])
            lines.append(f"  sweep {axis}           argmax {best_v:.4f} (fitness {best_f:.4f})")
    return "\n".join(lines) + "\n"


def cmd_report(cfg: RunConfig) -> int:
    result_path = cfg.out_dir / "result.json"
    result = load_result(result_path)
    text = _format_report(result)
    save_text(text, cfg.out_dir / "report.txt")
    print(text, end="")
    return EXIT_OK


COMMANDS = {
    "gen": cmd_gen,
    "refdb": cmd_refdb,
    "fit": cmd_fit,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorcal",
        description="Calibrate anchor-box sizes to an unlabeled target domain.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="global seed (overrides config)")
    parser.add_argument("--tau", type=float, default=None, help="score gate override")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (EmptyDatabaseError, InsufficientSamplesError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TypeError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
