"""tools/bench_pairs.py counts wins per pair in each metric's better direction
and judges each metric against its bound."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import compare, run_once  # noqa: E402

SPEC = {"end_to_end": [m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
                       if m["name"] in ("wall_s", "solved")]}
BASE_WALL = (4.0, 4.2, 4.4, 4.1, 4.3, 4.0, 4.2, 4.6, 4.1, 4.5)
CHANGE_WALL = (2.0, 2.1, 4.5, 2.2, 2.0, 2.3, 2.1, 2.2, 2.0, 2.1)
# quartiles 2.88 and 5.13 around a median of 4.1: wider than the 0.25 bound
WIDE_WALL = (2.0, 6.0, 3.0, 5.0, 4.0, 2.5, 5.5, 3.5, 4.5, 4.2)


def _run(wall_s, solved, failed=0):
    return {"failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "solved": {"value": solved, "unit": "count"}}}


def test_wins_follow_the_better_direction():
    base = [_run(w, 3) for w in BASE_WALL]
    change = [_run(w, s) for w, s in zip(CHANGE_WALL, (3, 3, 3, 3, 4, 3, 3, 3, 3, 2))]
    out = compare(base, change, SPEC)
    wall = out["wall_s"]
    assert (wall["change_wins"], wall["change_losses"]) == (9, 1)
    assert wall["claimable"] and wall["change_vs_base"] < -0.4
    assert wall["regressed"] is False
    assert wall["base"]["runs"][2] == 4.4 and wall["change"]["runs"][2] == 4.5
    # higher is better for solved: one win, one loss, eight ties
    solved = out["solved"]
    assert (solved["change_wins"], solved["change_losses"]) == (1, 1)
    assert not solved["claimable"]


@pytest.mark.parametrize("key, base, change, verdict", [
    ("wall_s", BASE_WALL, 5.6, True),  # +33% against a bound of 25%
    ("wall_s", BASE_WALL, 5.0, False),  # +19%
    ("wall_s", WIDE_WALL, 5.6, "unresolved"),
    ("wall_s", WIDE_WALL, 1.5, False),  # every change run beats every base run
    ("solved", (3,) * 10, 2, True),  # higher is better
])
def test_regression_against_the_bound(key, base, change, verdict):
    other = "solved" if key == "wall_s" else "wall_s"
    base_runs = [_run(**{key: v, other: 3}) for v in base]
    change_runs = [_run(**{key: change, other: 3}) for _ in base]
    assert compare(base_runs, change_runs, SPEC)[key]["regressed"] == verdict


def test_no_claim_below_ten_pairs():
    base = [_run(w, 3) for w in BASE_WALL[:3]]
    change = [_run(w, 3) for w in (2.0, 2.1, 2.2)]
    wall = compare(base, change, SPEC)["wall_s"]
    assert wall["change_wins"] == 3 and not wall["claimable"]


def test_no_claim_when_the_change_fails_more_operations():
    base = [_run(w, 3) for w in BASE_WALL]
    change = [_run(w, 3, failed=int(i == 4)) for i, w in enumerate(CHANGE_WALL)]
    wall = compare(base, change, SPEC)["wall_s"]
    assert wall["change_wins"] == 9 and not wall["claimable"]


@pytest.mark.parametrize("failed, code, raises", [(0, 0, False), (1, 1, False), (0, 1, True)])
def test_run_once_raises_on_an_exit_no_failure_explains(tmp_path, failed, code, raises):
    (tmp_path / "perfbench").mkdir()
    line = json.dumps({"attempted": 2, "failed": failed, "metrics": {}})
    (tmp_path / "perfbench" / "run.py").write_text(
        f"import sys\nprint({line!r})\nsys.exit({code})\n")
    if raises:
        with pytest.raises(RuntimeError):
            run_once(tmp_path, "tree", 0)
    else:
        assert run_once(tmp_path, "tree", 0)["failed"] == failed


def test_run_once_raises_without_a_result_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit('crashed')\n")
    with pytest.raises(RuntimeError, match="crashed"):
        run_once(tmp_path, "tree", 0)


def test_rounding_level_differences_tie():
    # root gap_sgm_pct of BENCH_21.json: the last digits of the LP objectives
    # moved, 3e-14 relative, and once read as ten wins and a claimable gain
    base = [_run(3.359549778435529, 3) for _ in range(10)]
    change = [_run(3.359549778435425, 3) for _ in range(10)]
    wall = compare(base, change, SPEC)["wall_s"]
    assert (wall["change_wins"], wall["change_losses"]) == (0, 0)
    assert not wall["claimable"] and wall["regressed"] is False
    # a change that ties the best of a wide base does not beat all its runs,
    # so the base's spread leaves the verdict open
    wide = [_run(w, 3) for w in WIDE_WALL]
    tied = [_run(min(WIDE_WALL) * (1 - 1e-12), 3) for _ in WIDE_WALL]
    assert compare(wide, tied, SPEC)["wall_s"]["regressed"] == "unresolved"
