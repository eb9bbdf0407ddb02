"""Seeded batches, parameter validity and failure accounting."""

import json
import random

import pytest

import checks
import run
import workloads
from rahman.params import ParameterSet, validate


def take(workload, seed, workdir):
    return workloads.batch(workload, seed, str(workdir))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_batch(workload, tmp_path):
    assert take(workload, 7, tmp_path) == take(workload, 7, tmp_path)
    assert take(workload, 7, tmp_path) != take(workload, 8, tmp_path)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_parameters_pass_validate(workload, tmp_path):
    for seed in range(15):
        for request in take(workload, seed, tmp_path):
            if request.p is not None:
                validate(ParameterSet(*request.p))


def test_parameters_include_negative_and_non_integer(tmp_path):
    values = [x for r in take("queries", 3, tmp_path) if r.p for x in r.p]
    assert any(x < 0 for x in values)
    assert any(x.denominator != 1 for x in values)


def test_queries_composition_is_fixed(tmp_path):
    for batch in (take("queries", seed, tmp_path) for seed in (11, 12, 13)):
        kinds = [r.kind for r in batch]
        assert len(batch) == 100
        assert kinds.count("eval") == len(workloads.EVAL_DEGREES)
        assert kinds.count("invalid") == len(workloads.INVALID_KINDS)
        assert sorted(r.n for r in batch if r.kind == "eval") == sorted(workloads.EVAL_DEGREES)
        for r in batch:
            if r.kind == "eval":
                a, b, c, d = r.detail
                assert a + b <= r.n and c + d <= r.n


def small_table(fmt="json"):
    p = workloads.draw_params(random.Random(1))
    argv = ("table", "--p", workloads.p_option(p), "--N", "2", "--format", fmt)
    return workloads.Request("table", argv, p=p, n=2, detail=(fmt,))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_true_table_passes_and_altered_entry_fails(fmt):
    request = small_table(fmt)
    checker = checks.Checker(seed=5)
    code, out, tb = run.invoke(request.argv)
    assert checker.judge(request, (code, out, tb)) is None

    i, j = checker.table_sample(request)[0]
    if fmt == "json":
        data = json.loads(out)
        data["values"][i][j] = data["values"][i][j] + "1"
        corrupted = json.dumps(data)
    else:
        lines = out.splitlines()
        cells = lines[1 + i].split(",")
        cells[2 + j] += "1"
        lines[1 + i] = ",".join(cells)
        corrupted = "\n".join(lines)
    assert "entry" in checker.judge(request, (code, corrupted, tb))


def test_failed_report_and_wrong_count_fail():
    p = (1, 2, 3, 5)
    request = workloads.Request("verify", ("verify",), p=p, n=3)
    reports = [{"name": name, "status": "pass", "checked": count}
               for name, count in checks.EXPECTED_REPORTS[3]]
    checker = checks.Checker(seed=0)
    assert checker.judge(request, (0, json.dumps(reports), None)) is None
    reports[-1]["status"] = "fail"
    assert checker.judge(request, (1, json.dumps(reports), None)) == "exit 1, expected 0"
    assert "failed reports" in checker.judge(request, (0, json.dumps(reports), None))
    reports[-1]["status"] = "pass"
    reports[0]["checked"] -= 1
    assert "differ" in checker.judge(request, (0, json.dumps(reports), None))


def test_suite_request_is_checked_against_its_own_reports():
    p = (1, 2, 3, 5)
    argv = ("verify", "operators", "--p", workloads.p_option(p), "--N", "1")
    request = workloads.Request("verify", argv, p=p, n=1, detail=("operators",))
    outcome = run.invoke(argv)
    checker = checks.Checker(seed=0)
    assert checker.judge(request, outcome) is None
    other = workloads.Request("verify", argv, p=p, n=1, detail=("form",))
    assert "differ" in checker.judge(other, outcome)


def test_verify_batch_covers_every_suite(tmp_path):
    batch = take("verify", 2, tmp_path)
    suites = [r.detail[0] for r in batch]
    assert sorted(set(suites)) == sorted(workloads.VERIFY_SUITES)
    assert len(batch) == len(workloads.VERIFY_SUITES) * workloads.VERIFY_PARAMETER_SETS


def test_corrupted_outputs_count_in_error_rate(monkeypatch):
    table = small_table()
    true_out = run.invoke(table.argv)
    data = json.loads(true_out[1])
    i, j = checks.Checker(seed=0).table_sample(table)[0]
    data["values"][i][j] = "0/1" if data["values"][i][j] != "0/1" else "1"
    outcomes = {
        "good": true_out,
        "altered": (0, json.dumps(data), None),
        "traceback": (1, "", "ZeroDivisionError: boom"),
    }
    requests = [workloads.Request("table", table.argv + (key,), p=table.p, n=2, detail=("json",))
                for key in outcomes]
    monkeypatch.setattr(run, "invoke", lambda argv: outcomes[argv[-1]])
    monkeypatch.setattr(checks.Checker, "table_sample", lambda self, request: [(i, j)])
    [result] = run.run_pass(requests, checks.Checker(seed=0))
    assert result.rounds == run.MIN_ROUNDS and result.attempted == 3 * run.MIN_ROUNDS
    assert sorted(r.argv[-1] for r, _ in result.failures) == (
        ["altered"] * run.MIN_ROUNDS + ["traceback"] * run.MIN_ROUNDS)


def test_later_round_with_other_output_is_judged(monkeypatch):
    table = small_table()
    good = run.invoke(table.argv)
    data = json.loads(good[1])
    i, j = checks.Checker(seed=0).table_sample(table)[0]
    data["values"][i][j] = "0/1" if data["values"][i][j] != "0/1" else "1"
    outcomes = iter([good, (0, json.dumps(data), None)])
    monkeypatch.setattr(run, "invoke", lambda argv: next(outcomes))
    [result] = run.run_pass([table], checks.Checker(seed=0))
    assert [reason for _, reason in result.failures] == [checks.Checker(seed=0).judge(
        table, (0, json.dumps(data), None))]


def test_timings_are_medians_at_reference_speed():
    class Accept:
        @staticmethod
        def judge(request, outcome):
            return None

    batch = [workloads.Request("check", ("a",)), workloads.Request("check", ("b",))]
    result = run.Pass(batch, Accept())
    for latencies, slowness in [((1.0, 2.0), (1.0, 2.0)),
                                ((3.0, 3.0), (1.5, 1.0)),
                                ((9.0, 1.0), (1.0, 1.0))]:
        result.record([(0, "ok\n", None)] * 2, latencies, slowness)
    assert result.scaled() == [[1.0, 2.0, 9.0], [1.0, 3.0, 1.0]]
    metrics = run.end_to_end(result, setup_s=0.5)
    assert metrics["wall_s"][0] == 5.0            # rounds sum to 2, 5 and 10
    assert metrics["work_per_s"][0] == 2 / 5.0
    assert metrics["request_p50_ms"][0] == 1e3    # request medians are 2 and 1
    assert metrics["request_p90_ms"][0] == 2e3
    assert run.raw_timings(result, [(0.3, 0.5)])["raw_wall_s"] == 6.0  # 3, 6, 10


def test_invalid_inputs_expect_exit_2(tmp_path):
    batch = take("queries", 1, tmp_path)
    invalid = [r for r in batch if r.kind == "invalid"]
    assert {r.detail[0] for r in invalid} == set(workloads.INVALID_KINDS)
    checker = checks.Checker(seed=1)
    for request in invalid:
        assert checker.judge(request, (2, "", None)) is None
        assert checker.judge(request, (1, "", "ValueError: x")) is not None
        assert checker.judge(request, (0, "ok\n", None)) is not None
    # only the six known defects may fail and leave ``correct`` true
    known = [r.detail[0] for r in batch if workloads.known_defect(r)]
    assert sorted(known) == sorted(workloads.KNOWN_DEFECT_KINDS) and len(known) == 6


def test_pair_repeat_share():
    make = lambda p, n: workloads.Request("eval", (), p=p, n=n)
    requests = [make("a", 1), make("a", 1), make("a", 2), make("b", 1), make("a", 2)]
    assert workloads.pair_repeat_share(requests) == pytest.approx(2 / 5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([3.0, 1.0, 2.0], 0.9) == 3.0
