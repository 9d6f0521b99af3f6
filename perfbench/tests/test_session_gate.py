"""The served-session gate against a real streamed run."""

import dataclasses
import random

from perfbench.inputs import SERVE_SHORT_SHAPE, WINDOW, _trace
from perfbench.verdicts import session_check


def _session_33_of_seed_1():
    """The serve-short session whose register 2 latches NO on a prefix."""
    rng = random.Random(1)
    for _ in range(33):
        rng.getrandbits(64)
    trace = _trace(rng.getrandbits(64), SERVE_SHORT_SHAPE["registers"],
                   SERVE_SHORT_SHAPE["ops"], "s33-reg")
    ops = sorted(
        (op for key in trace.keys() for op in trace[key]),
        key=lambda op: (op.finish, op.start, str(op.key)),
    )
    return trace, ops


def test_prefix_latched_reason_is_counted_and_anything_else_fails():
    from repro.core.api import verify_trace
    from repro.core.windows import WindowPolicy
    from repro.engine.streaming import StreamingEngine

    trace, ops = _session_33_of_seed_1()
    batch = verify_trace(trace, 2, algorithm="lbt")
    streamed = dict(StreamingEngine(window=WindowPolicy.count(WINDOW)).verify_stream(ops, 2).results)
    key = "s33-reg-0002"
    assert streamed[key].reason != batch[key].reason  # the latched-prefix case
    assert session_check(streamed, batch, ops) == (True, 1)

    streamed[key] = dataclasses.replace(streamed[key], reason="made up")
    assert session_check(streamed, batch, ops)[0] is False
    streamed[key] = dataclasses.replace(batch[key], is_k_atomic=True)
    assert session_check(streamed, batch, ops)[0] is False
    assert session_check(batch, batch, ops) == (True, 0)
