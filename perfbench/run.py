"""The benchmark's one command.

    python3 perfbench/run.py --workload live --seed 2017 --seconds 30 --trace 0

Runs one seeded workload (``live``, ``crawl`` or ``cluster``) against the
program built from ``src/`` in this checkout, checks its outputs and
prints the metrics; the last line is the JSON result.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
