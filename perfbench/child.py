"""One CLI command in its own process, timed from inside.

    python3 child.py MODE RECORD [--model PATH] [-- CLI ARGS...]

MODE is ``setup`` (set up and exit), ``cli`` (untraced command),
``trace`` (command with every layer wrapped) or ``alloc`` (command with
tracemalloc around ``concept_count`` only). Set-up is what every command
pays before its first input: interpreter start, ``import
codereadability.cli``, ``load_dictionary`` and, for commands that score,
``load_model``. It ends at ``ready``, a ``time.monotonic`` reading the
parent compares with its own reading taken just before the spawn. The
command's own time is the span of ``cli.main``. The record is written as
JSON to RECORD; the command's output files are the parent's to check.

In ``cli`` and ``trace`` modes the process also times ``reference_loop``, a fixed piece
of pure-Python work that does not involve the program, at its start and
just before and after ``cli.main``. The parent uses these to express the
command's times at a fixed machine speed (see ``run.py``).
"""

import json
import resource
import sys
import time


_REFERENCE_LINES = [f"    value_{i} = compute(items[{i}], scale={i % 7}) + offset  # step {i}"
                    for i in range(200)]


def reference_loop(rounds: int = 160) -> float:
    """Seconds taken by a fixed amount of string, dict and loop work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(rounds):
        for line in _REFERENCE_LINES:
            for word in line.replace("(", " ").replace(")", " ").split():
                counts[word] = counts.get(word, 0) + 1
            line.strip().startswith("#")
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    mode, record_path, rest = argv[0], argv[1], argv[2:]
    model_path = None
    if rest[:1] == ["--model"]:
        model_path, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest
    timed = mode in ("cli", "trace")
    record = {"reference_s": [reference_loop()] if timed else []}

    import codereadability
    import codereadability.cli as cli
    from codereadability.dictionary import load_dictionary
    from codereadability.model import load_model

    load_dictionary()
    if model_path:
        load_model(model_path)
    ready = time.monotonic()

    record.update(ready=ready, package=codereadability.__file__)
    if mode == "setup":
        import numpy
        import scipy
        record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}
        blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        record["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    else:
        tracer = probe = None
        if mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        elif mode == "alloc":
            import tracing
            probe = tracing.AllocProbe()
            probe.install()
        if timed:
            record["reference_s"].append(reference_loop())
        start = time.perf_counter()
        record["exit"] = cli.main(cli_args)
        record["main_s"] = time.perf_counter() - start
        if timed:
            record["reference_s"].append(reference_loop())
        if tracer is not None:
            record["trace"] = tracer.to_dict()
        if probe is not None:
            record["alloc"] = probe.to_dict()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
