"""Fast tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload(
    name="tiny", nodes=40, clusters=2, p_in=0.5, p_out=0.05, noise_fraction=0.1, epochs=2,
    importance_threshold=0.0, no_contraction=False, graphs=1, min_passes=1, short_reps=1,
    acc_floor=0.0, scale_to_reference=True,
)


def _result_line(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tmp_path, capsys, trace):
    assert run.run(TINY, seed=3, seconds=0.1, trace=trace, work=tmp_path) == 0
    out = capsys.readouterr().out
    result = _result_line(out)
    units = tracing.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert result["correct"] is True, out
    assert result["failed"] == 0 and result["attempted"] >= 5
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    lines = out.splitlines()
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name


def test_spans_nest_and_self_times_add_up():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass
    names = [s.name for s in tracer.spans]
    parents = [s.parent for s in tracer.spans]
    assert names == ["root", "child", "grandchild", "child"]
    assert parents == [-1, 0, 1, 0]
    root = tracer.spans[0]
    assert sum(tracer.self_times()) == pytest.approx(root.end - root.start)
    assert all(t >= 0 for t in tracer.self_times())


def test_installed_wrappers_are_removed_afterwards():
    cli = run.import_wgclust_cli()
    original = cli.train
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert cli.train is not original
    assert cli.train is original


def _inputs(tmp_path):
    inputs, times = run.set_up(TINY, 5, tmp_path, reps=2)
    assert len(times) == 2 and all(t > 0 for t in times)
    return inputs


def test_a_failing_command_is_counted_not_dropped(tmp_path):
    cli = run.import_wgclust_cli()
    inputs = _inputs(tmp_path)

    def broken_train(argv):
        if argv[0] == "train":
            raise FloatingPointError("forced failure")
        return cli.main(argv)

    tally = run.Tally()
    run.run_pass(broken_train, TINY, inputs, {}, 0, 5, tmp_path / "pass", tally)
    # contract succeeds; train fails; infer, eval and attention-dump cannot run
    assert tally.attempted == 5
    assert len(tally.failures) == 4
    assert "forced failure" in tally.failures[0]
    assert "train" not in tally.samples


def test_a_failed_output_check_is_counted(tmp_path, capsys):
    strict = dataclasses.replace(TINY, acc_floor=1.01)  # no accuracy can pass
    assert run.run(strict, seed=3, seconds=0.1, trace=False, work=tmp_path) == 0
    out = capsys.readouterr().out
    result = _result_line(out)
    assert result["correct"] is False and result["failed"] == 1
    assert "acc" in result["metrics"]
    assert "below the floor" in out


def test_assignment_check_rejects_rows_that_do_not_sum_to_one(tmp_path):
    path = tmp_path / "assignment.csv"
    path.write_text("node,label,Y_0,Y_1\n0,0,0.6,0.4\n1,1,0.3,0.6\n", encoding="utf-8")
    with pytest.raises(run.OutputCheckError, match="row sum"):
        run.check_assignment(path, n=2, k=2)


def test_set_up_is_reproducible_and_stored_by_workload_and_seed(tmp_path):
    first = _inputs(tmp_path)
    again = _inputs(tmp_path)
    assert first == again and first.parent == tmp_path / "inputs"
    assert first.name.startswith("tiny-seed5-")
    assert (first / "g0" / "edges.tsv").is_file() and (first / "train.cfg").is_file()
