"""Self-test of the output checks: each must pass on a real result and fail
on a deliberately perturbed one.

    python3 perfbench/selftest.py

Runs one small calibration in this process (a few seconds), then applies
each check of checks.py to the real outputs and to perturbed copies. Exits 0
when every check passes on the real outputs and fails on every perturbation.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402


def real_outputs() -> dict:
    """One small calibrate run, with every input the checks take."""
    from anchorcal import AnchorSizes, DeConfig, EmConfig, GateConfig, SyntheticDomain
    from anchorcal import calibrate, generate_domain
    from anchorcal.cli import _format_report
    from anchorcal.extractor import build_reference_db
    from anchorcal.optimizer import default_sweep_configs
    from anchorcal.storage import save_result

    std = (0.04, 0.05, 0.03)
    source = generate_domain(
        SyntheticDomain(AnchorSizes(2.1, 4.8, 1.8), std, clutter_rate=2000, seed=1), 20)
    target = generate_domain(
        SyntheticDomain(AnchorSizes(1.6, 3.9, 1.5), std, clutter_rate=2000, seed=2), 15)
    gate = GateConfig(tau=0.6)
    de = DeConfig(population=6, max_iters=5, seed=202)
    result = calibrate(
        source, target, list(source.frames()), list(target.frames()), gate=gate,
        em_config=EmConfig(k=4, seed=101), sweep_configs=default_sweep_configs(steps=5),
        de_config=de,
    )
    path = ROOT / ".perfbench_runs" / "selftest" / "result.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_result(result, path)
    result_bytes = path.read_bytes()
    model = {
        "weights": result.model.weights.tolist(),
        "means": result.model.means.tolist(),
        "variances": result.model.variances.tolist(),
    }
    recomputed = {
        "fitness_source": checks.reference_fitness(
            checks.reference_features(target, result.source_sizes, gate.tau), model),
        "fitness_calibrated": checks.reference_fitness(
            checks.reference_features(target, result.calibrated, gate.tau), model),
    }
    reference = build_reference_db(source, list(source.frames()), gate).rows
    return {
        "result_bytes": result_bytes,
        "model": model,
        "recomputed": recomputed,
        "population": de.population,
        "report": _format_report(result),
        "reference": reference,
    }


def _result_with(outputs: dict, change) -> dict:
    result = json.loads(outputs["result_bytes"])
    change(result)
    return result


def cases(out: dict):
    """(check name, perturbation, check applied to the real outputs, and to
    the perturbed ones)."""
    real = json.loads(out["result_bytes"])
    calibrated = [real["calibrated"][a] for a in checks.AXES]

    def fitness(result):
        return checks.check_recomputed_fitness(result, out["recomputed"])

    def bump_fitness(r):
        r["fitness_calibrated"] *= 1.0 + 1e-7

    def swap_fitness(r):
        r["fitness_source"] = r["fitness_calibrated"] + 1.0

    def dip_trace(r):
        r["de_trace"][2] = r["de_trace"][1] - 1e-6

    def extra_eval(r):
        r["evaluations"] += 1

    def evaluations(result):
        return checks.check_evaluations(result, out["population"], curves_reused=False)

    skewed = copy.deepcopy(out["model"])
    skewed["weights"][0] += 1e-6
    wrong_rows = out["reference"].copy()
    wrong_rows[0, 0] += np.float32(1e-3)
    flipped = bytearray(out["result_bytes"])
    flipped[len(flipped) // 2] ^= 1
    report_lines = out["report"].splitlines()
    wrong_size = "\n".join(
        line.replace("w=", "w=9", 1) if "calibrated sizes" in line else line
        for line in report_lines)
    return [
        ("recomputed fitness", "fitness_calibrated off by 1e-7 relative",
         fitness(real), fitness(_result_with(out, bump_fitness))),
        ("fitness_calibrated >= fitness_source", "fitness_source above fitness_calibrated",
         checks.check_improves(real), checks.check_improves(_result_with(out, swap_fitness))),
        ("de_trace never decreases", "generation 2 below generation 1",
         checks.check_trace_monotone(real),
         checks.check_trace_monotone(_result_with(out, dip_trace))),
        ("evaluations = sweep + population x (1 + generations)", "one evaluation more",
         evaluations(real), evaluations(_result_with(out, extra_eval))),
        ("EM weights sum to 1", "one weight 1e-6 larger",
         checks.check_weights(out["model"]), checks.check_weights(skewed)),
        ("calibrated axes within 8 % of the target mean", "target mean 9 % below on w",
         checks.check_axes(real, calibrated),
         checks.check_axes(real, [calibrated[0] / 1.09] + calibrated[1:])),
        ("report.txt agrees with result.json", "calibrated w misprinted",
         checks.check_report(out["report"], real), checks.check_report(wrong_size, real)),
        ("report.txt agrees with result.json", "result.json one evaluation more",
         checks.check_report(out["report"], real),
         checks.check_report(out["report"], _result_with(out, extra_eval))),
        ("reuse result.json byte-identical", "one bit flipped",
         checks.check_same_bytes(out["result_bytes"], out["result_bytes"], "result.json"),
         checks.check_same_bytes(out["result_bytes"], bytes(flipped), "result.json")),
        ("reference.sfdb equals a fresh build", "one feature value changed",
         checks.check_reference_db(out["reference"], out["reference"].copy()),
         checks.check_reference_db(wrong_rows, out["reference"])),
        ("reference.sfdb equals a fresh build", "last row missing",
         checks.check_reference_db(out["reference"], out["reference"].copy()),
         checks.check_reference_db(out["reference"][:-1], out["reference"])),
    ]


def main() -> int:
    out = real_outputs()
    all_checks = checks.check_calibration(
        out["result_bytes"], out["model"], out["recomputed"], out["population"], False)
    ok = not all_checks
    print(f"{'pass' if ok else 'FAIL'}: every calibration check passes on the real result"
          + ("" if ok else f" ({all_checks})"))
    for name, perturbation, on_real, on_perturbed in cases(out):
        good = not on_real and bool(on_perturbed)
        ok &= good
        detail = on_perturbed[0] if on_perturbed else "not detected"
        if on_real:
            detail = f"fails on the real result: {on_real[0]}"
        print(f"{'pass' if good else 'FAIL'}: {name} / {perturbation}: {detail}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
