"""Benchmark of the codereadability CLI, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``
there and writes only under ``.perfbench_work/``, which it removes.

The seed picks the workload's inputs (see ``inputs.py``). After an
untimed warm-up process and the workload's preparation, the run repeats
the workload's CLI commands, each in a fresh process (``child.py``), until
``--seconds`` would be exceeded, and reports medians over repetitions.

The end-to-end times are scaled to a fixed machine speed. The speed of a
small shared machine drifts by up to 2x over minutes, which moves raw
times far more than any bound a regression check could use. So every
command process also times a fixed pure-Python ``reference_loop`` (it
does not touch the program) at its start and just before and after the
command, and each time is multiplied by ``REFERENCE_S`` over the mean
loop time around it. The raw times, per process, stay in the record.

Every command's outputs are checked against the digests frozen in
``references.json``. With ``--trace 0`` the last line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
``metrics.json``, measured by repetitions with every layer wrapped,
alternating with untraced ones so that the tracing overhead is measured
too. The line before it holds the full record: every metric's median,
quartiles and sample count, the inputs and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import workloads

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
MIN_TRACE_REPS = 2
# typical time of child.reference_loop on a 2-vCPU x86-64 VM under Python 3.11,
# so that scaled times read close to raw ones there
REFERENCE_S = 0.07
COMMAND_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Runner:
    """Spawns the child processes of one run and keeps the failure count."""

    def __init__(self, checkout: Path, work: Path, workload: workloads.Workload,
                 reference: dict[str, str]):
        self.work = work
        self.workload = workload
        self.reference = reference
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        src = str(checkout / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                         if self.env.get("PYTHONPATH") else "")
        for var in THREAD_VARS:
            self.env[var] = str(self.threads)
        self.package_dir = checkout / "src" / "codereadability"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # messages; one operation may have several

    def spawn(self, mode: str, argv=(), model: str | None = None) -> dict:
        """One child process; its record, with ``setup_s`` and ``ok`` added."""
        record_path = self.work / ".record.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(record_path)]
        if model:
            cmd += ["--model", model]
        cmd += ["--", *argv]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"timed out after {COMMAND_TIMEOUT_S} s"}
        if proc.returncode != 0 or not record_path.is_file():
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return {"ok": False, "error": f"child exited {proc.returncode}: {tail}"}
        record = json.loads(record_path.read_text(encoding="utf-8"))
        # the reference loop at process start is not part of set-up
        record["setup_s"] = record["ready"] - start - sum(record["reference_s"][:1])
        record["ok"] = Path(record["package"]).resolve().parent == self.package_dir.resolve()
        if not record["ok"]:
            record["error"] = f"imported {record['package']}, not the checkout's package"
        return record

    def command(self, mode: str, command: workloads.Command) -> dict:
        """Run one CLI command and check its outputs; counts one operation."""
        for name in command.outputs:
            (self.work / name).unlink(missing_ok=True)
        record = self.spawn(mode, command.argv, "model.json" if command.loads_model else None)
        problems = []
        if not record["ok"]:
            problems.append(f"{command.name}: {record['error']}")
        elif record["exit"] != 0:
            problems.append(f"{command.name}: exit code {record['exit']}")
        else:
            problems = workloads.check_outputs(self.work, command, self.reference)
        self.count(problems)
        record["ok"] = not problems
        return record

    def count(self, problems: list[str]) -> None:
        """One attempted operation, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(problems)

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def rep(self, mode: str) -> list[dict]:
        """Every command of the workload once; the allocation pass only
        needs the commands that featurize."""
        return [self.command(mode, c) for c in self.workload.commands
                if mode != "alloc" or c.featurizes]


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def at_reference_speed(seconds: float, reference_s: list[float]) -> float:
    """``seconds`` as they would read on a machine where ``reference_loop``
    takes REFERENCE_S, given its times measured around the interval."""
    return seconds * REFERENCE_S / statistics.mean(reference_s)


def end_to_end(reps: list[list[dict]], work_per_rep: tuple[int, int]) -> dict[str, list[float]]:
    """Samples of every end-to-end metric from untraced repetitions, and
    the raw (unscaled) times behind them."""
    snippets, lines = work_per_rep
    samples: dict[str, list[float]] = {name: [] for name in (
        "setup_s", "wall_s", "lines_per_s", "snippets_per_s", "peak_rss_mb",
        "raw_setup_s", "raw_wall_s", "reference_s")}
    for rep in reps:
        if not all(r["ok"] for r in rep):
            continue
        wall = sum(at_reference_speed(r["main_s"], r["reference_s"][1:]) for r in rep)
        samples["setup_s"].extend(at_reference_speed(r["setup_s"], r["reference_s"][:2])
                                  for r in rep)
        samples["wall_s"].append(wall)
        samples["lines_per_s"].append(lines / wall)
        samples["snippets_per_s"].append(snippets / wall)
        samples["peak_rss_mb"].append(max(r["peak_rss_mb"] for r in rep))
        samples["raw_setup_s"].extend(r["setup_s"] for r in rep)
        samples["raw_wall_s"].append(sum(r["main_s"] for r in rep))
        samples["reference_s"].extend(t for r in rep for t in r["reference_s"])
    return samples


def merge_traces(rep: list[dict]) -> dict:
    """Layer aggregates of one traced repetition, summed over its processes."""
    layers: dict[str, dict] = {}
    merged = {"layers": layers, "lookups": 0, "distinct_terms": 0,
              "wall_s": sum(r["main_s"] for r in rep),
              "scaled_wall_s": sum(at_reference_speed(r["main_s"], r["reference_s"][1:])
                                   for r in rep)}
    for record in rep:
        trace = record["trace"]
        merged["lookups"] += trace["lookups"]
        merged["distinct_terms"] += trace["distinct_terms"]
        for name, stats in trace["layers"].items():
            into = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "durations": [], "units": 0})
            for key in ("calls", "total_s", "self_s", "units"):
                into[key] += stats[key]
            into["durations"].extend(stats["durations"])
    return merged


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_value(spec: dict, trace: dict) -> float:
    """One per-layer metric of one traced repetition, as ``metrics.json`` defines it."""
    quantity = spec["quantity"]
    if quantity == "lookups":
        return float(trace["lookups"])
    if quantity == "hit_ratio":
        lookups = trace["lookups"]
        return (lookups - trace["distinct_terms"]) / lookups if lookups else 0.0
    if quantity == "attributed_share":
        attributed = sum(s["self_s"] for s in trace["layers"].values())
        return attributed / trace["wall_s"] if trace["wall_s"] else 0.0
    stats = trace["layers"].get(spec["layer"])
    if stats is None or not stats["calls"]:
        return 0.0
    if quantity in ("total_s", "self_s", "calls", "units"):
        return float(stats[quantity])
    if quantity == "units_per_s":
        return stats["units"] / stats["total_s"] if stats["total_s"] else 0.0
    if quantity == "us_per_call":
        return stats["total_s"] / stats["calls"] * 1e6
    if quantity == "samples":
        return float(len(stats["durations"]))
    if quantity == "p50_ms":
        return _percentile_ms(stats["durations"], 50)
    if quantity == "p95_ms":
        return _percentile_ms(stats["durations"], 95)
    raise ValueError(f"unknown quantity {quantity!r} in metrics.json")


def self_times(merged: list[dict]) -> dict[str, dict]:
    """Every wrapped layer's self time, total time and calls: medians over
    the traced repetitions."""
    names = sorted({name for m in merged for name in m["layers"]})
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    return {name: {key: statistics.median(m["layers"].get(name, empty)[key] for m in merged)
                   for key in ("self_s", "total_s", "calls")} | {"n": len(merged)}
            for name in names}


def per_layer(specs: list[dict], merged: list[dict], untraced: list[list[dict]],
              alloc: list[dict]) -> dict[str, list[float]]:
    """Samples of every per-layer metric from the merged traced repetitions."""
    walls = [sum(at_reference_speed(r["main_s"], r["reference_s"][1:]) for r in rep)
             for rep in untraced if all(r["ok"] for r in rep)]
    samples: dict[str, list[float]] = {}
    for spec in specs:
        quantity = spec["quantity"]
        if quantity == "overhead_s":
            overhead = (statistics.median([m["scaled_wall_s"] for m in merged])
                        - statistics.median(walls)) if merged and walls else 0.0
            samples[spec["name"]] = [overhead]
        elif quantity == "peak_alloc_mb":
            samples[spec["name"]] = [max((r["alloc"]["concept_count_peak_alloc_mb"]
                                          for r in alloc if r["ok"]), default=0.0)]
        else:
            samples[spec["name"]] = [layer_value(spec, m) for m in merged]
    return samples


def machine_facts(checkout: Path, probe: dict, threads: int) -> dict:
    """Where and on what the run measured."""
    sha = None
    if (checkout / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                                 text=True, timeout=30)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": threads,
        "versions": probe.get("versions"),
        "blas": probe.get("blas"),
        "thread_env": {var: str(threads) for var in THREAD_VARS},
    }


def run(args, checkout: Path, bench: dict, specs: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    workload = workloads.WORKLOADS[args.workload]
    work = checkout / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        input_set = workload.build(work, args.seed)
        summary = input_set.summary()
        reference = workloads.expected(workloads.load_references(), args.workload, args.seed)
        runner = Runner(checkout, work, workload, reference)
        if summary["digest"] != reference["input"]:
            runner.count(["inputs differ from the frozen inputs of this variant"])

        probe = runner.spawn("setup")    # warms the file cache and bytecode; not measured
        if not probe["ok"]:
            raise RuntimeError(f"set-up probe failed: {probe['error']}")
        for command in workload.prepare:
            runner.command("cli", command)

        snippets = lines = 0
        for command in workload.commands:
            s, n = workloads.featurized(input_set, command)
            snippets, lines = snippets + s, lines + n

        # trace runs alternate traced and untraced repetitions, so the
        # overhead is measured under the same conditions
        reps: dict[str, list[list[dict]]] = {"cli": [], "trace": []}
        minimum = {"trace": MIN_TRACE_REPS, "cli": 1} if args.trace else {"cli": MIN_REPS}
        cycle = list(minimum)
        deadline = time.monotonic() + args.seconds
        longest = 0.0
        while True:
            mode = cycle[sum(map(len, reps.values())) % len(cycle)]
            start = time.monotonic()
            reps[mode].append(runner.rep(mode))
            longest = max(longest, time.monotonic() - start)
            enough = all(len(reps[m]) >= n for m, n in minimum.items())
            if enough and time.monotonic() + longest > deadline:
                break
        untraced, traced = reps["cli"], reps["trace"]
        alloc = runner.rep("alloc") if args.trace else []

        merged = [merge_traces(rep) for rep in traced if all(r["ok"] for r in rep)]
        if args.trace:
            samples = per_layer(specs["per_layer"], merged, untraced, alloc)
            wanted = bench["per_layer"]
        else:
            samples = end_to_end(untraced, (snippets, lines))
            wanted = bench["end_to_end"]
        metrics = {m["name"]: {**summarize(samples[m["name"]]), "unit": m["unit"]} for m in wanted}
        raw = {name: {**summarize(samples[name]), "unit": "s"}
               for name in ("raw_setup_s", "raw_wall_s", "reference_s") if name in samples}

        failed = runner.failed
        record = {
            "workload": args.workload, "seed": args.seed, "variant": inputs.variant(args.seed),
            "trace": args.trace, "seconds": args.seconds, "inputs": summary,
            "repetitions": {"untraced": len(untraced), "traced": len(traced), "alloc": len(alloc) > 0},
            "attempted": runner.attempted, "failed": failed,
            "error_rate": runner.error_rate(), "failures": runner.failures[:20],
            "metrics": metrics, "raw": raw, "layers": self_times(merged),
            "processes": [[{k: r.get(k) for k in ("setup_s", "main_s", "reference_s", "peak_rss_mb")}
                           for r in rep] for rep in untraced],
            "machine": machine_facts(checkout, probe, runner.threads),
        }
        if args.workload == "evaluate_sfs" and (work / "report.json").is_file():
            record["cv_auc"] = json.loads((work / "report.json").read_text())["auc"]
        result = {
            "correct": failed == 0,
            "attempted": runner.attempted,
            "failed": failed,
            "metrics": {name: {"value": m["median"], "unit": m["unit"]} for name, m in metrics.items()},
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "codereadability" / "cli.py").is_file():
        print(f"no program to measure: {checkout}/src/codereadability is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))

    result, record = run(args, checkout, bench, specs)
    for name, m in {**record["metrics"], **record["raw"]}.items():
        print(f"{args.workload:>14} {name:<44} {m['median']:>14.6g} {m['unit']:<6} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']}")
    print(f"{args.workload:>14} {'error_rate':<44} {record['error_rate']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    if "cv_auc" in record:
        print(f"{args.workload:>14} {'cv_auc':<44} {record['cv_auc']:>14.6g} ratio")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    share = record["metrics"].get("trace.attributed_share", {}).get("median", 1.0)
    if share < 0.8:
        print(f"WARNING layer self times cover only {share:.0%} of the traced wall time; "
              "wrap the functions the rest is spent in", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
