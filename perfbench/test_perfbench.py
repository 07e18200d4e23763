"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``.

They check the benchmark, not the program: the traced work counts repeat
exactly, the checker rejects a wrong output, and ``BENCHMARK.json`` names
exactly the metrics the benchmark prints.
"""

import json
import os

import pytest

import run
import tracer
import workloads
from checks import Checker, parse_dense, parse_output

KINDS = {"evolve", "qpe", "prepare", "choi"}


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("inputs"))
    calls, inputs = workloads.build("startup", 11, workdir)
    env = run.child_env()
    run.warm_up(workdir, env)
    return calls, inputs, workdir, env


def _counting_subset(calls):
    """One call of each kind that feeds a work count (fast and slow qpe both)."""
    picked, seen = [], set()
    for call in calls:
        key = (call.kind, call.info.get("method"), call.info.get("route"))
        if call.kind in KINDS and key not in seen:
            seen.add(key)
            picked.append(call)
    return picked


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if k in run.COUNTS or k.endswith(".calls") or k == "fastforward.ledgers_per_evolve"}


def test_traced_counts_repeat_exactly(startup):
    calls, inputs, workdir, env = startup
    subset = _counting_subset(calls)
    checker = Checker(inputs)
    seen = []
    for _ in range(2):
        untraced = run.run_round(subset, workdir, env, checker)
        traced = run.run_round(subset, workdir, env, checker, traced=True)
        assert not any(r.failed for r in untraced + traced)
        seen.append(_counts(run.per_layer(untraced, traced)))
    assert seen[0] == seen[1]
    for name in run.COUNTS:
        assert seen[0][name] > 0, name


def test_checker_rejects_rho_perturbed_by_two_eps(startup):
    calls, inputs, workdir, env = startup
    call = next(c for c in calls if c.kind == "evolve" and c.info["method"] == "ff")
    checker = Checker(inputs)
    result = run.run_call(call, workdir, env, checker, 0)
    assert result.code == 0 and result.verdict.ok

    records, _ = parse_output(result.stdout)
    rho = parse_dense(records[0]["outputs"]["rho_out"])
    eps = call.info["eps"]
    # traceless Hermitian shift with trace norm 4 eps: trace distance 2 eps
    rho[0, 0] += 2 * eps
    rho[1, 1] -= 2 * eps
    records[0]["outputs"]["rho_out"] = workloads._format_dense(rho)
    verdict = checker.check(call, json.dumps(records[0]) + "\n")
    assert not verdict.ok and "exceeds eps" in verdict.reason


def test_benchmark_json_matches_printed_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_targets_are_the_reported_functions():
    traced = {f"{mod}.{fn}" for mod, fn, *_ in tracer.TARGETS}
    assert traced == {n for names in run.LAYERS.values() for n in names}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    calls_a, _ = workloads.build(workload, 5, str(a))
    calls_b, _ = workloads.build(workload, 5, str(b))
    calls_c, _ = workloads.build(workload, 6, str(tmp_path))
    assert [c.argv for c in calls_a] == [c.argv for c in calls_b]
    names = sorted(os.listdir(a))
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    # another seed changes the values, never the kinds of calls or the files
    assert [c.kind for c in calls_a] == [c.kind for c in calls_c]
    assert names == sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert any((a / n).read_bytes() != (tmp_path / n).read_bytes() for n in names)
