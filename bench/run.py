#!/usr/bin/env python3
"""Benchmark ipss-lab on one workload, end to end or per layer.

    python3 bench/run.py --workload converse --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload's experiments (see ``workloads.py``)
one after another through ``ipss_lab.cli_harness.run_experiment``, from
the ``src`` directory of this checkout, until the next round would pass
``--seconds``.  After each experiment the outputs are checked against
computations made in ``checks.py``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` first runs untraced rounds for half the time, then installs
the tracer of ``tracer.py`` and replays the same rounds, and reports the
per-layer metrics as per-round means plus ``trace.overhead_s``, the
traced minus the untraced median round time.  Spans go to
``.bench_trace/``; artifacts and a run record go to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys
import time

_ENTRY = time.perf_counter()

# one client, one thread: set before numpy is first imported
os.environ.pop("IPSS_LAB_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TRACE_DIR = ROOT / ".bench_trace"


def _process_age() -> float:
    """Seconds since this process started (script entry if /proc is unreadable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _ENTRY


def _import_program():
    """Import ipss_lab from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ipss_lab.cli_harness as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ipss_lab from {src}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: ipss_lab was imported from {cli.__file__}, not from {src}")
    return cli


class Tally:
    """Attempted and failed operations; ``correct`` drops on any unexpected failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = {}

    def record(self, name: str, problems: list, known_fault: bool = False) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if not known_fault:
            self.correct = False
        if name not in self.problems:
            self.problems[name] = problems
            tag = "known fault" if known_fault else "FAILED"
            print(f"[{tag}] {name}: " + "; ".join(problems), file=sys.stderr)


def run_round(cli, experiments, out_dir: Path, tally: Tally) -> tuple:
    """Run one round; return (summed experiment seconds, slowest experiment seconds)."""
    wall = slowest = 0.0
    for exp in experiments:
        cfg = cli.ExperimentConfig(raw=exp.config)
        t0 = time.perf_counter()
        try:
            artifacts = cli.run_experiment(cfg, out_dir)
        except Exception as exc:  # an experiment that raises is a failed operation
            for name in [exp.label] + [op.name for op in exp.extra]:
                tally.record(name, [f"run_experiment raised {type(exc).__name__}: {exc}"])
            continue
        dt = time.perf_counter() - t0
        wall += dt
        slowest = max(slowest, dt)
        outputs = checks.load_outputs(artifacts, exp.prefix)
        problems = []
        if artifacts.exit_status != exp.expected_status:
            problems.append(f"exit status {artifacts.exit_status}, expected {exp.expected_status}")
        tally.record(exp.label, problems + exp.check(outputs))
        for op in exp.extra:
            tally.record(op.name, op.check(outputs), known_fault=op.known_fault)
        # the next round writes fresh files: truncating and rewriting an
        # existing file forces a writeback on ext4 that costs 70-220 ms
        for path in artifacts.paths:
            Path(path).unlink()
    return wall, slowest


def measure(cli, round_fn, seed: int, first, seconds: float, out_dir: Path, tally: Tally,
            tracer=None) -> list:
    """Rounds 0, 1, ... until the next round would end past ``seconds``; at least one."""
    rounds, durations = [], []
    begin = time.perf_counter()
    experiments, rnd = first, 0
    while True:
        start = time.perf_counter()
        if tracer is not None:
            tracer.round = rnd
        rounds.append(run_round(cli, experiments, out_dir, tally))
        durations.append(time.perf_counter() - start)
        rnd += 1
        if time.perf_counter() - begin + statistics.median(durations) > seconds:
            return rounds
        experiments = round_fn(seed, rnd)


def _emit(tally: Tally, specs: list, values: dict) -> None:
    metrics = {}
    for spec in specs:
        val = float(values.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": val, "unit": spec["unit"]}
        print(f"{spec['name']:58s} {val:.6g} {spec['unit']}")
    print(f"attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    round_fn = workloads.WORKLOADS[args.workload]
    first = round_fn(args.seed, 0)
    for exp in first:
        errors = cli.validate_config(exp.config)
        if errors:
            raise SystemExit(f"bench: generated config {exp.label} is invalid: {errors}")
    setup_s = _process_age()

    out_dir = OUT_DIR / args.workload
    tally = Tally()
    if not args.trace:
        rounds = measure(cli, round_fn, args.seed, first, args.seconds, out_dir, tally)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r[0] for r in rounds),
            "slowest_experiment_s": statistics.median(r[1] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        specs = bench["end_to_end"]
    else:
        from tracer import Tracer

        t_begin = time.perf_counter()
        plain = measure(cli, round_fn, args.seed, first, args.seconds / 2, out_dir, tally)
        tracer = Tracer()
        tracer.install()
        remaining = args.seconds - (time.perf_counter() - t_begin)
        traced = measure(cli, round_fn, args.seed, first, remaining, out_dir, tally, tracer)
        values = tracer.metrics(len(traced))
        values["trace.overhead_s"] = (statistics.median(r[0] for r in traced)
                                      - statistics.median(r[0] for r in plain))
        specs = bench["per_layer"]
        missing = sorted(s["name"] for s in specs if s["name"] not in values)
        if missing:
            print(f"bench: absent from the program, reported as 0: {missing}", file=sys.stderr)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}", {
            "workload": args.workload, "seed": args.seed,
            "untraced_round_s": [r[0] for r in plain], "traced_round_s": [r[0] for r in traced],
            "metrics": {s["name"]: values.get(s["name"], 0.0) for s in specs},
            "absent_metrics": missing,
        })
        rounds = plain + traced
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s": setup_s, "round_s": [r[0] for r in rounds],
              "slowest_s": [r[1] for r in rounds], "problems": tally.problems}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    _emit(tally, specs, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
