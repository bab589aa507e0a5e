"""Write references.json: digests of every workload's inputs and outputs.

    python3 perfbench/freeze.py [WORKLOAD ...]

Run from the root of a checkout. For each workload (all, or those named,
whose entries are replaced in the existing file) and each of the
``inputs.VARIANTS`` seed variants it generates the inputs, runs the
workload's commands through ``codereadability.cli.main`` and records the
sha256 of the inputs and of every output file. The references pin the
program's outputs byte for byte; regenerate them only for an output
change that is named and justified.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import inputs
import workloads


def freeze_variant(cli, workload: workloads.Workload, work: Path, seed: int) -> dict[str, str]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    input_set = workload.build(work, seed)
    digests = {"input": input_set.digest()}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in workload.prepare + workload.commands:
            code = cli.main(list(command.argv))
            if code != 0:
                raise RuntimeError(f"{workload.name} seed {seed}: {command.name} exited {code}")
            for name in command.outputs:
                digests[name] = workloads.digest(work / name)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    return digests


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    checkout = Path.cwd()
    sys.path.insert(0, str(checkout / "src"))
    from codereadability import cli

    work = checkout / ".perfbench_work" / "freeze"
    doc = {"variants": inputs.VARIANTS, "workloads": {}}
    if argv:
        doc = workloads.load_references()
    for name in names:
        workload = workloads.WORKLOADS[name]
        doc["workloads"][name] = {
            str(v): freeze_variant(cli, workload, work, v) for v in range(inputs.VARIANTS)
        }
        print(f"{name}: {inputs.VARIANTS} variants frozen", file=sys.stderr)
    work.parent.rmdir()
    workloads.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
