"""The anchorcal benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`, which must exist. One round runs the workload's CLI
steps, each in a fresh `python3 perfbench/child.py` process with one-thread
BLAS/OpenMP pools. Rounds repeat until S seconds have passed (at least
one). The outputs of the first round are checked apart from the program
(see checks.py); every later round must write the same bytes.

With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics (medians over rounds); with --trace 1 it holds the
per-layer metrics of BENCHMARK.json, from spans the child processes record
around each layer's public functions. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(CHILD_ENV)  # before numpy loads, for the checks run here

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))  # the checks import the checkout's anchorcal
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("gen", "refdb", "fit", "sweep", "calibrate", "report")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def run_step(run_dir: Path, command: str, index: int, trace: bool) -> dict:
    """One CLI step in a fresh process; returns the child's record plus the
    parent's spawn and exit stamps."""
    record_path = run_dir / f"step{index}.record.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    argv = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if trace else "0",
            "--", command, "--config", "config.json"]
    with open(run_dir / f"step{index}.log", "w") as log:
        spawn = time.monotonic()
        code = subprocess.call(argv, cwd=run_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        exit_ = time.monotonic()
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record.update(command=command, spawn=spawn, exit=exit_, code=code)
    return record


def run_round(run_dir: Path, steps, trace: bool) -> dict:
    """Run every step from an empty output directory; collect what the checks need."""
    out = run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    records, results, swept = [], [], 0
    for index, command in enumerate(steps):
        record = run_step(run_dir, command, index, trace)
        records.append(record)
        if record["code"] != 0:
            break
        if command == "calibrate":
            results.append((out / "result.json").read_bytes())
        if command == "sweep":
            swept += sum(len((out / f"sweep_{a}.csv").read_text().splitlines()) - 1
                         for a in "wlh")
    return {"records": records, "results": results, "swept": swept}


def round_times(rnd: dict) -> dict:
    """setup_s, solve_s, evals_per_s and peak_rss_mb of one round.

    Set-up is every process before the first fitness evaluation plus the
    part of that process before it; solving is the rest. The parent's own
    work between processes counts in neither."""
    setup = solve = 0.0
    seen_eval = False
    for record in rnd["records"]:
        if seen_eval:
            solve += record["exit"] - record["spawn"]
        elif record.get("first_eval") is not None:
            seen_eval = True
            setup += record["first_eval"] - record["spawn"]
            solve += record["exit"] - record["first_eval"]
        else:
            setup += record["exit"] - record["spawn"]
    evals = rnd["swept"] + sum(json.loads(r)["evaluations"] for r in rnd["results"])
    return {
        "setup_s": setup,
        "solve_s": solve,
        "evals_per_s": evals / solve,
        "peak_rss_mb": max(r["maxrss_kb"] for r in rnd["records"]) / 1024.0,
        "evaluations": evals,
    }


class Checker:
    """Checks the first round's outputs apart from the program and holds
    later rounds to the same bytes."""

    def __init__(self, run_dir: Path, workload: str) -> None:
        import checks
        from anchorcal.cli import load_config

        self.checks = checks
        self.run_dir = run_dir
        self.raw = json.loads((run_dir / "config.json").read_text())
        args = argparse.Namespace(out=None, seed=None, threads=None, tau=None)
        self.cfg = load_config(run_dir / "config.json", args)
        _, self.steps, self.reused, self.check_axes = WORKLOADS[workload]
        self.first: dict[str, str] | None = None

    def _artifacts(self) -> dict[str, str]:
        out = self.run_dir / "out"
        names = ["result.json", "trace.csv", "sweep_w.csv", "sweep_l.csv", "sweep_h.csv",
                 "reference.sfdb", "model.json", "report.txt"]
        return {n: sha256(out / n) for n in names if (out / n).exists()}

    def _target(self):
        from anchorcal.storage import domain_spec_from_json
        from anchorcal.synthdet import generate_domain

        spec = domain_spec_from_json(self.cfg.target.spec_fields)
        return generate_domain(spec, self.cfg.target.n_frames)

    def check_round(self, rnd: dict) -> list[str]:
        if self.first is not None:
            now = self._artifacts()
            return [f"{n} differs from the first round's" for n in self.first
                    if now.get(n) != self.first[n]]
        failures = self._check_first(rnd)
        self.first = self._artifacts()
        return failures

    def _check_first(self, rnd: dict) -> list[str]:
        from anchorcal.core import AnchorSizes

        c = self.checks
        tau = self.cfg.gate.tau
        target = self._target()
        failures = []
        calibrate_steps = [i for i, s in enumerate(self.steps) if s == "calibrate"]
        for step, result_bytes in zip(calibrate_steps, rnd["results"]):
            result = json.loads(result_bytes)
            recomputed = {
                key: c.reference_fitness(
                    c.reference_features(target, AnchorSizes(**result[sizes]), tau),
                    rnd["records"][step]["model"],
                )
                for key, sizes in (("fitness_source", "source_sizes"),
                                   ("fitness_calibrated", "calibrated"))
            }
            failures += c.check_calibration(
                result_bytes, rnd["records"][step]["model"], recomputed,
                self.cfg.de.population, step in self.reused,
                self.raw["target"]["size_mean"] if self.check_axes else None,
            )
        if "report" in self.steps:
            out = self.run_dir / "out"
            failures += c.check_same_bytes(rnd["results"][0], rnd["results"][-1],
                                           "result.json of the first and the reuse calibrate")
            failures += c.check_report((out / "report.txt").read_text(),
                                       json.loads(rnd["results"][0]))
            failures += self._check_reference(out)
        return failures

    def _check_reference(self, out: Path) -> list[str]:
        from anchorcal.extractor import build_reference_db
        from anchorcal.storage import load_domain, load_feature_db

        source = load_domain(out / "domains" / "source")
        fresh = build_reference_db(source, list(source.frames()), self.cfg.gate)
        stored = load_feature_db(out / "reference.sfdb")
        return self.checks.check_reference_db(stored.rows, fresh.rows)


def tail(values: list[float]) -> tuple[float, str]:
    """The p99 where at least ten samples lie beyond it; with fewer than 1000
    samples, the highest percentile that still has ten beyond it; with fewer
    than 40, the median."""
    n = len(values)
    if n < 40:
        return (statistics.median(values) if values else 0.0), "median"
    beyond = n // 100 if n >= 1000 else 10
    rank = n - beyond
    return sorted(values)[rank - 1], f"p{100.0 * rank / n:.4g}"


def layer_metrics(rounds: list[dict]) -> tuple[list[tuple[str, str, float, str]], dict]:
    """Per-layer metrics as (name, unit, value, sample note), and the self
    time of each layer, from the spans of every round. Busy times and counts
    are per round (median over rounds); per-call latencies pool every call of
    every round."""
    per_round, calls = [], {}
    for rnd in rounds:
        busy_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        layer_self: dict[str, float] = {}
        for record in rnd["records"]:
            spans = record.get("spans", [])
            in_children = [0.0] * len(spans)
            in_evals = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    in_children[parent] += end - start
                    if name == "optimizer.eval":
                        in_evals[parent] += end - start
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                dur = end - start
                busy_s[name] = busy_s.get(name, 0.0) + dur
                counts[name] = counts.get(name, 0) + 1
                calls.setdefault(name, []).append(dur)
                layer = name.split(".")[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + dur - in_children[i]
                if name in ("optimizer.linear_sweep", "optimizer.differential_evolution"):
                    busy_s["optimizer.self"] = busy_s.get("optimizer.self", 0.0) + dur - in_evals[i]
                for key, value in (attrs or {}).items():
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
                if name == "extractor.build_target_db" and attrs["rows"] == 0:
                    counts["empty_dbs"] = counts.get("empty_dbs", 0) + 1
        per_round.append((busy_s, counts, layer_self))
    n_rounds = f"rounds={len(rounds)}"

    def busy(name):
        return statistics.median(b.get(name, 0.0) for b, _, _ in per_round), n_rounds

    def count(key):
        values = [c.get(key, 0) for _, c, _ in per_round]
        if len(set(values)) != 1:
            raise RuntimeError(f"{key} differs between rounds: {values}")
        return values[0], n_rounds

    def per_call_ms(name):
        values = calls.get(name, [])
        return (statistics.median(values) * 1e3 if values else 0.0), f"calls={len(values)}"

    def tail_ms(name):
        values = calls.get(name, [])
        value, label = tail(values)
        return value * 1e3, f"{label} of calls={len(values)}"

    def mean_per_call(name, key):
        total, n = count(f"{name}.{key}")[0], count(name)[0]
        return (total / n if n else 0.0), f"calls/round={n}"

    evals = count("optimizer.eval")[0]
    empty = count("empty_dbs")[0]
    metrics = [
        ("synthdet.generate_s", "s", busy("synthdet.generate_domain")),
        ("synthdet.gated_features_calls", "count", count("synthdet.gated_features")),
        ("synthdet.gated_features_ms", "ms", per_call_ms("synthdet.gated_features")),
        ("synthdet.gated_features_p99_ms", "ms", tail_ms("synthdet.gated_features")),
        ("synthdet.gated_features_s", "s", busy("synthdet.gated_features")),
        ("synthdet.rows_per_call", "count", mean_per_call("synthdet.gated_features", "rows")),
        ("extractor.build_reference_db_s", "s", busy("extractor.build_reference_db")),
        ("extractor.build_target_db_ms", "ms", per_call_ms("extractor.build_target_db")),
        ("extractor.empty_dbs", "count", (empty, f"of evaluations={evals}")),
        ("extractor.nonempty_ratio", "ratio", ((evals - empty) / evals if evals else 0.0,
                                               f"nonempty={evals - empty} of evaluations={evals}")),
        ("gmm.fit_em_s", "s", busy("gmm.fit_em")),
        ("gmm.fitness_ms", "ms", per_call_ms("gmm.fitness")),
        ("gmm.fitness_s", "s", busy("gmm.fitness")),
        ("gmm.rows_scored", "count", mean_per_call("gmm.fitness", "rows")),
        ("optimizer.sweep_s", "s", busy("optimizer.linear_sweep")),
        ("optimizer.de_s", "s", busy("optimizer.differential_evolution")),
        ("optimizer.eval_ms", "ms", per_call_ms("optimizer.eval")),
        ("optimizer.eval_p99_ms", "ms", tail_ms("optimizer.eval")),
        ("optimizer.self_s", "s", busy("optimizer.self")),
        ("optimizer.evaluations", "count", count("optimizer.eval")),
        ("optimizer.generations", "count", count("optimizer.differential_evolution.generations")),
        ("storage.save_s", "s", busy("storage.save")),
        ("storage.load_s", "s", busy("storage.load")),
        ("storage.bytes_written", "B", count("storage.save.bytes")),
        ("storage.bytes_read", "B", count("storage.load.bytes")),
    ]
    metrics += [(f"cli.{c}_s", "s", busy(f"cli.{c}")) for c in COMMANDS]
    layers = sorted({layer for _, _, s in per_round for layer in s})
    self_times = {
        layer: statistics.median(s.get(layer, 0.0) for _, _, s in per_round) for layer in layers
    }
    return [(name, unit, value, note) for name, unit, (value, note) in metrics], self_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anchorcal" / "cli.py").is_file():
        print(f"error: no anchorcal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    build, steps, _, _ = WORKLOADS[args.workload]
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(build(args.seed), indent=2) + "\n")
    env = environment(args.seed)
    print("env " + json.dumps(env))

    checker = Checker(run_dir, args.workload)
    rounds, failures = [], []
    attempted = failed = 0
    measured = 0.0  # time spent in rounds; the checks between them do not count
    while True:
        started = time.monotonic()
        rnd = run_round(run_dir, steps, trace)
        measured += time.monotonic() - started
        attempted += len(steps)
        bad = [r for r in rnd["records"] if r["code"] != 0]
        if bad or len(rnd["records"]) < len(steps):
            failed += len(steps) - len(rnd["records"]) + len(bad)
            print(f"round {len(rounds) + 1}: step {bad[0]['command']} exited {bad[0]['code']}")
        else:
            for record in rnd["records"]:
                if not record.get("anchorcal_file", "").startswith(str(ROOT / "src")):
                    failures.append(f"child imported anchorcal from {record.get('anchorcal_file')}")
            failures += checker.check_round(rnd)
            rounds.append(rnd)
            times = round_times(rnd)
            print(f"round {len(rounds)}: " + " ".join(
                f"{k}={v:.6g}" for k, v in times.items()))
        if measured >= args.seconds:
            break
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    for failure in failures:
        print(f"check failed: {failure}")

    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": {}}
    if not rounds:
        print(json.dumps(result))
        return 1
    times = [round_times(r) for r in rounds]
    e2e = {k: statistics.median(t[k] for t in times)
           for k in ("setup_s", "solve_s", "evals_per_s", "peak_rss_mb")}
    units = {"setup_s": "s", "solve_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {units[name]} (median of {len(rounds)} rounds)")
    record = {"env": env, "config_sha256": sha256(run_dir / "config.json"),
              "rounds": [{k: t[k] for k in e2e} for t in times], "e2e": e2e,
              "result_sha256": checker.first.get("result.json") if checker.first else None}
    summary = RUNS / f"{args.workload}-seed{args.seed}.trace{args.trace}.json"
    if not trace:
        result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in e2e.items()}
    else:
        metrics, self_times = layer_metrics(rounds)
        for name, unit, value, note in metrics:
            print(f"{name} {value:.6g} {unit} ({note})")
        print(f"self time per layer, s (median of {len(rounds)} rounds): " + ", ".join(
            f"{layer} {value:.6g}" for layer, value in self_times.items()))
        untraced_path = RUNS / f"{args.workload}-seed{args.seed}.trace0.json"
        untraced = json.loads(untraced_path.read_text()) if untraced_path.exists() else {}
        if untraced.get("config_sha256") == record["config_sha256"]:
            base = untraced["e2e"]["setup_s"] + untraced["e2e"]["solve_s"]
            overhead = (e2e["setup_s"] + e2e["solve_s"]) / base - 1.0
            print(f"tracing overhead {overhead:+.2%} of setup_s + solve_s against "
                  f"the last untraced run of this config")
            if untraced["result_sha256"] != record["result_sha256"]:
                failures.append("result.json differs from the untraced run's")
                result["correct"] = False
                print(f"check failed: {failures[-1]}")
            else:
                print("result.json is byte-identical to the untraced run's")
        else:
            print("no untraced run of this config on record: overhead and result identity "
                  "not checked")
        result["metrics"] = {n: {"value": v, "unit": u} for n, u, v, _ in metrics}
    summary.write_text(json.dumps(dict(record, result=result), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
