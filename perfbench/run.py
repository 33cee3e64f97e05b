"""Benchmark of splatlab: time per blend mode, accuracy against the ss oracle,
and stage timings.

    python3 perfbench/run.py --workload zoom --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; splatlab is imported from its `src/`.
Workloads: zoom, hires, sweeps (see splatbench.py). --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones. The second last
line of standard output is a JSON report (environment, image hashes, problems);
the last line is the result:

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("zoom", "hires", "sweeps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "splatlab" / "__init__.py").is_file():
        print(f"error: no splatlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import splatbench  # imports numpy, scipy and splatlab
    import_s = time.perf_counter() - t0
    if Path(splatbench.splatlab.__file__).resolve().parent != SRC / "splatlab":
        print(f"error: splatlab was imported from {splatbench.splatlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    result, report = splatbench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                    import_s=import_s, workroot=str(HERE / ".work"))
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
