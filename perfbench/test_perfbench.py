"""Tests of the benchmark itself: frozen inputs, output checks, tracing."""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    build = workloads.WORKLOADS[name].build
    first = build(tmp_path / "first", 7).summary()
    second = build(tmp_path / "second", 7).summary()
    assert first == second
    reference = workloads.expected(workloads.load_references(), name, 7)
    assert first["digest"] == reference["input"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_inputs_of_the_same_shape(tmp_path, name):
    build = workloads.WORKLOADS[name].build
    one = build(tmp_path / "one", 3).summary()
    other = build(tmp_path / "other", 4).summary()
    assert one["digest"] != other["digest"]
    assert one["snippets"] == other["snippets"]
    assert one["languages"] == other["languages"]
    if name == "long_snippet":
        assert one["lines"] == other["lines"] == sum(inputs.LONG_LINES)


def test_seed_selects_a_frozen_variant(tmp_path):
    build = workloads.WORKLOADS["evaluate_sfs"].build
    assert (build(tmp_path / "a", 5).digest()
            == build(tmp_path / "b", 5 + inputs.VARIANTS).digest())
    references = workloads.load_references()
    assert references["variants"] == inputs.VARIANTS
    for name in workloads.WORKLOADS:
        assert len(references["workloads"][name]) == inputs.VARIANTS


def _in_process(work: Path):
    """Stand-in for Runner.spawn that runs the command in this process."""
    from codereadability import cli

    def spawn(mode, argv=(), model=None):
        cwd = os.getcwd()
        os.chdir(work)
        try:
            return {"ok": True, "exit": cli.main(list(argv))}
        finally:
            os.chdir(cwd)

    return spawn


def test_perturbed_output_cell_makes_error_rate_nonzero(tmp_path):
    workload = workloads.WORKLOADS["corpus_score"]
    workload.build(tmp_path, 0)
    reference = workloads.expected(workloads.load_references(), "corpus_score", 0)
    runner = run.Runner(ROOT, tmp_path, workload, reference)
    featurize = workload.commands[0]
    spawn = _in_process(tmp_path)

    runner.spawn = spawn
    assert runner.command("cli", featurize)["ok"]
    assert runner.error_rate() == 0.0

    def perturbed(mode, argv=(), model=None):
        record = spawn(mode, argv, model)
        matrix = tmp_path / "matrix.csv"
        rows = matrix.read_text(encoding="utf-8").split("\n")
        cells = rows[1].split(",")
        cells[5] = repr(float(cells[5]) + 1e-9)
        rows[1] = ",".join(cells)
        matrix.write_text("\n".join(rows), encoding="utf-8")
        return record

    runner.spawn = perturbed
    assert not runner.command("cli", featurize)["ok"]
    assert runner.attempted == 2
    assert runner.error_rate() == 0.5
    assert "matrix.csv differs" in runner.failures[0]


def test_missing_output_and_nonzero_exit_are_failures(tmp_path):
    workload = workloads.WORKLOADS["corpus_score"]
    runner = run.Runner(ROOT, tmp_path, workload, {})
    runner.spawn = lambda mode, argv=(), model=None: {"ok": True, "exit": 3}
    runner.command("cli", workload.commands[3])
    assert workloads.check_outputs(tmp_path, workload.commands[3], {}) == [
        "compare: compare.json was not written"]
    assert runner.failures == ["compare: exit code 3"]
    assert runner.failed == runner.attempted == 1


def test_benchmark_json_matches_metric_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = json.loads((Path(run.__file__).parent / "metrics.json").read_text(encoding="utf-8"))
    assert bench["end_to_end"] == [
        {**{k: m[k] for k in ("name", "unit", "better")}, "bound": b["bound"]}
        for m, b in zip(specs["end_to_end"], bench["end_to_end"])]
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in specs["per_layer"]]
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
    empty = {"layers": {}, "lookups": 0, "distinct_terms": 0, "wall_s": 0.0}
    for spec in specs["per_layer"]:
        if spec["quantity"] not in ("overhead_s", "peak_alloc_mb"):
            assert run.layer_value(spec, empty) == 0.0
        for target in spec["targets"]:
            assert target["workload"] in workloads.WORKLOADS


def test_times_scale_with_the_reference_loop():
    assert run.at_reference_speed(2.0, [run.REFERENCE_S] * 2) == pytest.approx(2.0)
    slow = [2 * run.REFERENCE_S, 2 * run.REFERENCE_S]
    assert run.at_reference_speed(2.0, slow) == pytest.approx(1.0)


def test_self_times_partition_the_outer_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda n: sum(range(n)))
    outer = tracer.wrap("outer", lambda n: inner(n) + inner(n))
    recursive = tracer.wrap("outer", lambda n: outer(n))
    recursive(10000)
    layers = tracer.to_dict()["layers"]
    assert layers["inner"]["calls"] == 2
    assert layers["outer"]["calls"] == 2
    total = layers["outer"]["total_s"]
    assert layers["outer"]["self_s"] + layers["inner"]["self_s"] == pytest.approx(total)
    assert layers["inner"]["total_s"] < total


def test_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "long_snippet", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
