"""Digest stability, and the catalogue BENCHMARK.json publishes."""

import json
from pathlib import Path

from perfbench.common import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS
from perfbench.verdicts import digest


class Op:
    def __init__(self, is_write, value, start, finish, op_id):
        self.is_write, self.value, self.start, self.finish = is_write, value, start, finish
        self.op_id = op_id


class Result:
    def __init__(self, ok, algorithm, reason="", witness=None, stats=None):
        self.is_k_atomic, self.algorithm, self.reason = ok, algorithm, reason
        self.witness, self.stats = witness, stats or {}


def results(order, ids=0):
    base = {
        "reg-b": Result(False, "FZF", "no viable order", stats={"x": 1, "y": 2}),
        "reg-a": Result(True, "FZF", witness=(Op(True, 1, 0.0, 1.0, ids), Op(False, 1, 2.0, 3.0, ids + 1))),
    }
    return {key: base[key] for key in order}


def test_digest_ignores_key_order_dict_order_and_op_ids():
    one = results(["reg-a", "reg-b"])
    two = results(["reg-b", "reg-a"], ids=1000)
    two["reg-b"].stats = {"y": 2, "x": 1}
    assert digest(one) == digest(two)


def test_digest_sees_verdict_reason_and_witness():
    base = digest(results(["reg-a", "reg-b"]))
    changed = results(["reg-a", "reg-b"])
    changed["reg-b"].reason = "another reason"
    assert digest(changed) != base
    reordered = results(["reg-a", "reg-b"])
    reordered["reg-a"].witness = tuple(reversed(reordered["reg-a"].witness))
    assert digest(reordered) != base
    assert digest(reordered, witness=False) == digest(results(["reg-a", "reg-b"]), witness=False)


def test_benchmark_json_matches_the_emitted_metrics_and_workloads():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
