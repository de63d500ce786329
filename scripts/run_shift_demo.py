"""Calibrate across the bundled car-size domain shift and print the outcome.

Generates both synthetic domains in memory, runs the full pipeline, and
compares the calibrated sizes against the target domain's true means.
"""
import argparse
import time

from anchorcal.core import AnchorSizes
from anchorcal.extractor import GateConfig
from anchorcal.gmm import EmConfig
from anchorcal.optimizer import DeConfig, calibrate
from anchorcal.synthdet import SyntheticDomain, generate_domain


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--source-frames", type=int, default=60)
    p.add_argument("--target-frames", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=16)
    p.add_argument("--max-iters", type=int, default=60)
    return p.parse_args()


def main() -> None:
    args = parse_args()
    source_spec = SyntheticDomain(
        size_mean=AnchorSizes(2.1, 4.8, 1.8),
        size_std=(0.04, 0.05, 0.03),
        seed=args.seed + 1,
    )
    target_spec = SyntheticDomain(
        size_mean=AnchorSizes(1.6, 3.9, 1.5),
        size_std=(0.04, 0.05, 0.03),
        seed=args.seed + 2,
    )
    source = generate_domain(source_spec, args.source_frames)
    target = generate_domain(target_spec, args.target_frames)

    t0 = time.perf_counter()
    result = calibrate(
        source, target, list(source.frames()), list(target.frames()),
        gate=GateConfig(tau=0.6),
        em_config=EmConfig(k=8, seed=args.seed + 101),
        de_config=DeConfig(
            population=args.population, max_iters=args.max_iters,
            stall_generations=12, seed=args.seed + 202,
        ),
    )
    elapsed = time.perf_counter() - t0

    cal, src = result.calibrated, result.source_sizes
    true = target_spec.size_mean
    print(f"source sizes      w={src.w:.3f} l={src.l:.3f} h={src.h:.3f}")
    print(f"calibrated sizes  w={cal.w:.3f} l={cal.l:.3f} h={cal.h:.3f}")
    print(f"target true means w={true.w:.3f} l={true.l:.3f} h={true.h:.3f}")
    for axis in ("w", "l", "h"):
        rel = abs(cal.axis(axis) / true.axis(axis) - 1.0)
        print(f"  {axis}: relative error vs true mean {rel:.1%}")
    print(
        f"fitness {result.fitness_source:.3f} -> {result.fitness_calibrated:.3f} "
        f"({result.termination} after {result.generations} generations, "
        f"{result.evaluations} evaluations, {elapsed:.0f}s)"
    )


if __name__ == "__main__":
    main()
