"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Each workload runs once at minimal size under the tracer, and every wrapper
must fire, so a refactor that routes a call around a traced name is caught
here instead of silently dropping a layer from the per-layer numbers.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import poolblend.solve  # noqa: E402
from poolblend.model import Model  # noqa: E402
from poolblend.simplex import LPArrays  # noqa: E402
from tracer import FUNCTION_PATCHES, METHOD_PATCHES, Tracer  # noqa: E402
from workloads import DESK_SPARSE, WORKLOADS, make_network, networks  # noqa: E402

SMALL = {
    "tree": dict(specs=["h1", DESK_SPARSE[0]], node_limit=2),
    "root": dict(specs=[DESK_SPARSE[0]]),
    "restrict": dict(specs=[DESK_SPARSE[3]], node_limit=5),
}


def test_every_wrapper_fires_and_is_removed():
    originals = (poolblend.solve.solve_lp, LPArrays.__dict__["from_model"], Model.clone)
    tracer = Tracer()
    tracer.install()
    try:
        for name, overrides in SMALL.items():
            workload = dataclasses.replace(WORKLOADS[name], **overrides)
            for instance, net in networks(workload, seed=0):
                result = workload.op(workload, net)
                assert workload.judge(workload, instance, result, {})["errors"] == []
    finally:
        tracer.uninstall()
    sites = {f"{m}.{a}" for m, a, _ in FUNCTION_PATCHES}
    sites |= {f"{m}.{c}.{a}" for m, c, a, _ in METHOD_PATCHES}
    assert sites - set(tracer.hits) == set()
    assert tracer.calls["solve.root_cut_loop"] >= 1
    assert tracer.counts["projection_attempts"] >= 1
    assert (poolblend.solve.solve_lp, LPArrays.__dict__["from_model"], Model.clone) == originals
    values = tracer.per_layer(1, 1.0, 1.0)
    assert values["simplex.solve_s"] > 0 and values["simplex.iterations"] > 0


def test_seed_orders_the_same_instances():
    workload = WORKLOADS["tree"]
    default = [name for name, _ in networks(workload, seed=0)]
    shuffled = [name for name, _ in networks(workload, seed=7)]
    assert default[0] == "h1" and len(default) == 21
    assert shuffled != default and sorted(shuffled) == sorted(default)
    assert shuffled == [name for name, _ in networks(workload, seed=7)]


def test_checks_reject_a_wrong_reference():
    tree = dataclasses.replace(WORKLOADS["tree"], node_limit=20)
    result = tree.op(tree, make_network("h1"))
    assert tree.judge(tree, "h1", result, {"h1": {"value": -400.0, "kind": "opt"}})["errors"] == []
    wrong = {"h1": {"value": -390.0, "kind": "opt"}}
    assert tree.judge(tree, "h1", result, wrong)["errors"]
