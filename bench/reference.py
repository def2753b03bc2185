#!/usr/bin/env python3
"""Time each bundled config in-process, as ``ipss-lab run`` would run it.

    python3 bench/reference.py [repeats]

Prints one line per config of ``src/ipss_lab/configs``: the median of
``repeats`` (default 3) calls of ``run_experiment`` and the exit status.
Artifacts are deleted after each call, so every call writes fresh files.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ipss_lab import cli_harness as cli  # noqa: E402


def main(repeats: int = 3) -> int:
    out_dir = ROOT / ".bench_out" / "reference"
    for path in sorted((ROOT / "src" / "ipss_lab" / "configs").glob("*.json")):
        cfg = cli.ExperimentConfig(raw=json.loads(path.read_text()))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            artifacts = cli.run_experiment(cfg, out_dir)
            times.append(time.perf_counter() - t0)
            for p in artifacts.paths:
                Path(p).unlink()
        print(f"{path.name:32s} {statistics.median(times):8.3f} s  exit {artifacts.exit_status}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*(int(a) for a in sys.argv[1:])))
