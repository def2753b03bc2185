#!/usr/bin/env python3
"""Count the RK4 integrations of every bundled config, by caller.

    python3 tools/step_census.py [seed ...]

Runs each config of ``src/ipss_lab/configs`` in-process, as
``ipss-lab run <config> --seed <seed>`` would, once per seed (default: 1),
in a temporary directory that is removed afterwards, with the simulator's
step loop ``_rk4`` wrapped.  Prints one ``seed config caller calls steps
member_steps one_row_steps`` line per caller and a ``total`` line per config:

- ``caller`` is the first function above the integrator's entry points
  (``simulate``, ``simulate_batch`` and their private helpers);
- ``calls`` counts step loops: a lockstep batch is one, and a lone run is
  a batch of one;
- ``steps`` counts Python RK4 steps, which set the integrator's run time;
- ``member_steps`` counts the steps each row took: a row leaves the batch
  when its grid ends, and a row that blew up or turned nonfinite counts
  up to its stop only, though it is held at zero in the batch until its
  grid ends;
- ``one_row_steps`` counts the Python steps taken with a single row left in
  the batch: those past the second-longest row's step count (all steps of a
  lone run), up to where the loop stopped.  On a scalar system whose ``rhs``
  takes scalars they run on Python floats rather than ``(1, 1)`` arrays.

A step loop whose ``rhs`` raises counts as a call with no steps.
"""

from __future__ import annotations

import collections
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ipss_lab import cli_harness as cli  # noqa: E402
from ipss_lab import simulator as sm  # noqa: E402

DEFAULT_SEEDS = (1,)
ENTRY_POINTS = {"_simulate_members", "simulate_batch", "simulate"}


def census(seeds) -> list:
    tally = collections.defaultdict(lambda: [0, 0, 0, 0])  # (run, caller) -> the four columns
    rk4 = sm._rk4
    run = [None]

    def counted(rhs, x, counts, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name in ENTRY_POINTS and frame.f_back is not None:
            frame = frame.f_back
        module = frame.f_globals.get("__name__", "?").removeprefix("ipss_lab.")
        row = tally[(run[0], f"{module}.{frame.f_code.co_name}")]
        row[0] += 1
        states, stops, errors = rk4(rhs, x, counts, *args, **kwargs)
        steps = max(len(row_states) for row_states in states) - 1
        row[1] += steps
        row[2] += sum(len(row_states) - 1 for row_states in states)
        row[3] += max(0, steps - (int(counts[-2]) if len(counts) > 1 else 0))
        return states, stops, errors

    configs = sorted((ROOT / "src" / "ipss_lab" / "configs").glob("*.json"))
    sm._rk4 = counted
    try:
        with tempfile.TemporaryDirectory(prefix="ipss-census-") as tmp:
            for seed in seeds:
                for path in configs:
                    run[0] = (seed, path.name)
                    raw = dict(json.loads(path.read_text()), seed=seed)
                    out = Path(tmp) / f"{seed}-{path.stem}"
                    cli.run_experiment(cli.ExperimentConfig(raw=raw), out)
    finally:
        sm._rk4 = rk4

    lines = []
    for seed in seeds:
        for path in configs:
            rows = sorted((caller, vals) for (key, caller), vals in tally.items()
                          if key == (seed, path.name))
            totals = [sum(vals[i] for _, vals in rows) for i in range(4)]
            for caller, vals in rows + [("total", totals)]:
                lines.append(f"{seed} {path.name} {caller} " + " ".join(str(v) for v in vals))
    return lines


def main(argv) -> int:
    seeds = [int(a) for a in argv] or list(DEFAULT_SEEDS)
    print("seed config caller calls steps member_steps one_row_steps")
    print("\n".join(census(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
