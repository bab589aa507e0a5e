"""Every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of a checkout. Each workload runs in its own
``run.py`` process, so no process carries peak memory over to the next.
Prints a table with the median, quartiles and sample count of each
metric, the raw (unscaled) times behind them, ``error_rate`` and, for
evaluate_sfs, ``cv_auc``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args(argv)

    print(f"{'workload':<14} {'metric':<16} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<14} run failed with exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        for metric, m in {**record["metrics"], **record["raw"]}.items():
            print(f"{name:<14} {metric:<16} {m['unit']:<6} {m['median']:>12.6g} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>4}")
        print(f"{name:<14} {'error_rate':<16} {'ratio':<6} {record['error_rate']:>12.6g} "
              f"{'':>12} {'':>12} {record['attempted']:>4}")
        if "cv_auc" in record:
            print(f"{name:<14} {'cv_auc':<16} {'ratio':<6} {record['cv_auc']:>12.6g}")
        status = status or int(record["failed"] > 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
