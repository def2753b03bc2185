#!/usr/bin/env python3
"""Print a SHA-256 digest of every artifact of the bundled configs.

    python3 tools/artifact_digests.py [seed ...]

Runs each config of ``src/ipss_lab/configs`` in-process, as
``ipss-lab run <config> --seed <seed>`` would, once per seed (default:
1, 7 and 123), in a temporary directory that is removed afterwards.
Prints one ``seed config exit file sha256`` line per artifact, ordered by
seed, config and file, so two checkouts can be byte-compared with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ipss_lab import cli_harness as cli  # noqa: E402

DEFAULT_SEEDS = (1, 7, 123)


def digests(seeds) -> list:
    lines = []
    configs = sorted((ROOT / "src" / "ipss_lab" / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory(prefix="ipss-digests-") as tmp:
        for seed in seeds:
            for path in configs:
                raw = dict(json.loads(path.read_text()), seed=seed)
                out = Path(tmp) / f"{seed}-{path.stem}"
                artifacts = cli.run_experiment(cli.ExperimentConfig(raw=raw), out)
                for p in sorted(artifacts.paths):
                    digest = hashlib.sha256(Path(p).read_bytes()).hexdigest()
                    lines.append(f"{seed} {path.name} {artifacts.exit_status} "
                                 f"{Path(p).name} {digest}")
    return lines


def main(argv) -> int:
    seeds = [int(a) for a in argv] or list(DEFAULT_SEEDS)
    print("\n".join(digests(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
