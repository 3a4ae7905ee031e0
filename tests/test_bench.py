import itertools
import math
import types

import pytest

import poolblend.bench as bench

from poolblend import GapSpec, performance_profile, run_batch, shifted_geomean
from poolblend.bench import (
    ProfilePoint,
    RunRecord,
    profile_to_csv,
    profile_to_step_data,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
)
from poolblend.errors import EmptyInput, MissingRecord, NonPositiveShifted
from poolblend.instances import haverly


def test_shifted_geomean_pair():
    assert shifted_geomean([0.9, 1.9], 0.1) == pytest.approx(math.sqrt(2.0) - 0.1, abs=1e-12)


def test_shifted_geomean_single_value_identity():
    for x in (0.0, 0.5, 7.0):
        assert shifted_geomean([x], 0.1) == pytest.approx(x, abs=1e-12)


def test_shifted_geomean_constant():
    assert shifted_geomean([3.0, 3.0, 3.0], 2.0) == pytest.approx(3.0, abs=1e-12)


def test_shifted_geomean_errors():
    with pytest.raises(EmptyInput):
        shifted_geomean([], 0.1)
    with pytest.raises(NonPositiveShifted):
        shifted_geomean([-1.0], 0.5)


def rec(instance, config, time, solved=True):
    status = "optimal" if solved else "feasible"
    return RunRecord(instance, config, status, time, -1.0, -1.0, 0.0)


def test_profile_two_configs_hand_example():
    records = [rec("p1", "fast", 2.0), rec("p1", "slow", 4.0)]
    series = performance_profile(records)
    fast = {p.tau: p.rho for p in series["fast"]}
    slow = {p.tau: p.rho for p in series["slow"]}
    assert fast[1.0] == 1.0
    assert slow[1.0] == 0.0
    assert slow[2.0] == 1.0


def test_profile_loser_is_flat_zero():
    records = [
        rec("p1", "good", 1.0), rec("p1", "bad", 10.0, solved=False),
        rec("p2", "good", 2.0), rec("p2", "bad", 1.0, solved=False),
    ]
    series = performance_profile(records)
    assert all(p.rho == 0.0 for p in series["bad"])
    assert series["good"][-1].rho == 1.0


def test_profile_matches_brute_force_counting():
    times = {
        ("p1", "a"): 1.0, ("p1", "b"): 3.0,
        ("p2", "a"): 4.0, ("p2", "b"): 2.0,
        ("p3", "a"): 5.0, ("p3", "b"): 5.0,
    }
    records = [rec(p, s, t) for (p, s), t in times.items()]
    series = performance_profile(records)
    instances = ["p1", "p2", "p3"]
    for config in ("a", "b"):
        for point in series[config]:
            expected = sum(
                1
                for p in instances
                if times[(p, config)] / min(times[(p, "a")], times[(p, "b")]) <= point.tau
            ) / len(instances)
            assert point.rho == pytest.approx(expected, abs=1e-15)


def test_profile_rho_nondecreasing_and_bounded():
    records = [
        rec(f"p{k}", cfg, t)
        for k, (cfg, t) in enumerate(
            itertools.product(["a", "b"], [1.0, 2.0, 8.0])
        )
    ]
    # make it rectangular: every (instance, config) pair
    records = []
    for k, base in enumerate([1.0, 2.0, 8.0]):
        records.append(rec(f"p{k}", "a", base))
        records.append(rec(f"p{k}", "b", 10.0 - base))
    series = performance_profile(records)
    for config, points in series.items():
        rhos = [p.rho for p in points]
        assert all(b >= a for a, b in zip(rhos, rhos[1:]))
        assert all(0.0 <= r <= 1.0 for r in rhos)


def test_profile_missing_record_raises():
    records = [rec("p1", "a", 1.0), rec("p1", "b", 2.0), rec("p2", "a", 1.0)]
    with pytest.raises(MissingRecord):
        performance_profile(records)


def test_records_csv_json_round_trip():
    records = [
        RunRecord("h1", "cuts", "optimal", 0.25, -400.0, -400.0, 0.0),
        RunRecord("x", "default", "feasible", 120.0, -500.0, -400.0, 20.0),
        RunRecord("y", "default", "error: ValueError", 0.0, -math.inf, math.inf, math.inf),
    ]
    text = records_to_csv(records)
    assert text.splitlines()[0] == "instance,config,status,time,lower,upper,gap"
    assert records_from_csv(text) == records
    assert records_from_json(records_to_json(records)) == records
    assert records_from_csv(records_to_csv(records_from_json(records_to_json(records)))) == records


def test_run_batch_shape_and_heuristic_value():
    instances = [("h1", haverly())]
    gap = GapSpec(rel_tol=1e-5, abs_tol=1e-8, time_limit=30.0)
    records = run_batch(instances, ["heuristic", "cuts+heuristic"], gap)
    assert len(records) == 2
    by_config = {r.config: r for r in records}
    assert by_config["heuristic"].upper == pytest.approx(-400.0, abs=1e-3)
    for r in records:
        assert r.status == "optimal"
        assert r.gap == pytest.approx(100.0 * abs(r.lower - r.upper) / max(abs(r.lower), abs(r.upper)) if r.lower != 0 and r.upper != 0 else r.gap, abs=1e-12)


def test_run_batch_error_record_keeps_message(monkeypatch):
    calls = []

    def fake_branch_and_cut(pq, gap, options):
        calls.append(options)
        if len(calls) == 2:
            raise ValueError("row r7 has no finite bound, try again")
        return types.SimpleNamespace(
            status="optimal", lower=-400.0, upper=-400.0, heuristic_seconds=0.0, root_cut_seconds=0.0
        )

    monkeypatch.setattr(bench, "branch_and_cut", fake_branch_and_cut)
    records = run_batch([("h1", haverly())], ["default", "cuts"])
    assert [r.status for r in records] == [
        "optimal",
        "error: ValueError: row r7 has no finite bound, try again",
    ]
    # the comma in the message survives the CSV round trip
    assert [r.status for r in records_from_csv(records_to_csv(records))] == [r.status for r in records]


def test_oracle_mode_excludes_heuristic_time():
    instances = [("h1", haverly())]
    gap = GapSpec(rel_tol=1e-5, abs_tol=1e-8, time_limit=30.0)
    plain = run_batch(instances, ["cuts+heuristic"], gap, oracle_mode=False)[0]
    oracle = run_batch(instances, ["cuts+heuristic"], gap, oracle_mode=True)[0]
    assert oracle.time < plain.time


def test_profile_emission_formats():
    series = {
        "a": [ProfilePoint(1.0, 0.5), ProfilePoint(2.0, 1.0)],
        "b": [ProfilePoint(1.0, 0.5), ProfilePoint(2.0, 0.5)],
    }
    csv_text = profile_to_csv(series)
    assert csv_text.splitlines()[0] == "config,tau,rho"
    assert "a,1,0.5" in csv_text
    step = profile_to_step_data(series)
    assert "# a" in step and "# b" in step
    assert "1 0.5" in step
