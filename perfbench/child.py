"""Run one `anchorcal` subcommand in this process and record how it went.

    python3 perfbench/child.py RECORD TRACE -- ANCHORCAL_ARGS...

The command runs through `anchorcal.cli.main`, exactly as the `anchorcal`
console script runs it. Before it starts, the entry points of the sweep
(looked up by `cli` and by `optimizer.calibrate`) and of differential
evolution (which comes first when stored sweep curves are reused) are
wrapped to stamp the first fitness evaluation, and `cli.calibrate` to keep
the mixture model it used. Each is entered at most a few times per process,
so this costs nothing measurable. With TRACE=1 every public function a
layer's callers look up is wrapped as well and records a span.

RECORD (JSON) receives CLOCK_MONOTONIC stamps (`start`, `first_eval`,
`end`), the peak resident set (VmHWM), the exit code, where `anchorcal` was
imported from, the model of a calibrate call, and with TRACE=1 the spans as
[name, start, end, parent index, attrs].
"""

from __future__ import annotations

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import anchorcal.cli as cli  # noqa: E402
import anchorcal.optimizer as optimizer  # noqa: E402
from anchorcal.synthdet import SyntheticExtractor  # noqa: E402


class Spans:
    """In-memory span recorder: [name, start, end, parent index, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrapped(self, fn, name: str, attrs=None):
        """fn wrapped to record one span per call.

        attrs(args, result) runs after the span has ended, so its cost (a
        file stat, say) is not part of the span."""

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                record[1] = t0
                self._stack.pop()
            if attrs is not None:
                record[4] = attrs(args, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        setattr(owner, attr, self.wrapped(getattr(owner, attr), name, attrs))


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space.

    VmHWM starts afresh at exec. ru_maxrss does not: it keeps the peak of
    the address space exec replaced, which for a spawned child is the
    parent's."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _path_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size


def install_trace(spans: Spans, command: str) -> None:
    cli.COMMANDS[command] = spans.wrapped(cli.COMMANDS[command], f"cli.{command}")
    spans.wrap(cli, "generate_domain", "synthdet.generate_domain")
    spans.wrap(
        SyntheticExtractor, "gated_features", "synthdet.gated_features",
        lambda a, r: {"rows": int(r.shape[0])},
    )
    for owner in (cli, optimizer):
        spans.wrap(owner, "build_reference_db", "extractor.build_reference_db")
        spans.wrap(owner, "fit_em", "gmm.fit_em")
        spans.wrap(owner, "linear_sweep", "optimizer.linear_sweep")
    spans.wrap(
        optimizer, "build_target_db", "extractor.build_target_db",
        lambda a, r: {"rows": len(r)},
    )
    spans.wrap(optimizer, "fitness", "gmm.fitness", lambda a, r: {"rows": len(a[0])})
    spans.wrap(
        optimizer, "differential_evolution", "optimizer.differential_evolution",
        lambda a, r: {"generations": r.generations},
    )
    spans.wrap(cli, "calibrate", "optimizer.calibrate")
    for owner in (cli, optimizer):
        factory = owner.make_target_fitness

        def make(*args, _factory=factory, **kwargs):
            return spans.wrapped(_factory(*args, **kwargs), "optimizer.eval")

        owner.make_target_fitness = make
    for name in ("save_domain", "save_feature_db", "save_gmm", "save_curve",
                 "save_result", "save_trace"):
        spans.wrap(cli, name, "storage.save", lambda a, r: {"bytes": _path_bytes(a[1])})
    for name in ("load_domain", "load_feature_db", "load_gmm", "load_curve", "load_result"):
        spans.wrap(cli, name, "storage.load", lambda a, r: {"bytes": _path_bytes(a[0])})


def main(argv: list[str]) -> int:
    record_path, trace = Path(argv[0]), argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]
    stamps: dict[str, float] = {}

    def stamp_first_eval(owner, attr: str) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            stamps.setdefault("first_eval", time.monotonic())
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    stamp_first_eval(cli, "linear_sweep")
    stamp_first_eval(optimizer, "linear_sweep")
    stamp_first_eval(optimizer, "differential_evolution")

    models = []
    calibrate = cli.calibrate

    def keep_model(*args, **kwargs):
        result = calibrate(*args, **kwargs)
        models.append(result.model)
        return result

    cli.calibrate = keep_model
    spans = Spans()
    if trace:
        install_trace(spans, cli_args[0])

    code = cli.main(cli_args)
    end = time.monotonic()
    record = {
        "start": START,
        "first_eval": stamps.get("first_eval"),
        "end": end,
        "maxrss_kb": peak_rss_kb(),
        "exit_code": code,
        "anchorcal_file": cli.__file__,
        "model": None if not models or models[-1] is None else {
            "weights": models[-1].weights.tolist(),
            "means": models[-1].means.tolist(),
            "variances": models[-1].variances.tolist(),
        },
        "spans": spans.spans,
    }
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, record_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
