"""Shared fixtures and helpers for the test-suite.

Randomised tests (the ``rng`` fixture, :func:`make_random_history`, and the
fuzz/metamorphic harnesses) all derive from one seed so failures are
reproducible: set ``REPRO_TEST_SEED`` to replay a CI failure locally.  The
active seed is printed in the pytest header and echoed by the fuzz harness
on every failing case.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.history import History
from repro.core.operation import read, write

#: Seed of every randomised test, overridable via the environment
#: (``REPRO_TEST_SEED=12345 pytest ...``; hex like 0xBEEF works too).
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", str(0xC0FFEE)), 0)


def pytest_report_header(config):
    """Show the active seed so any failure is reproducible by exporting it."""
    return f"REPRO_TEST_SEED={TEST_SEED:#x} (export to reproduce randomised failures)"


@pytest.fixture
def rng():
    """A deterministic random stream for tests that need randomness."""
    return random.Random(TEST_SEED)


@pytest.fixture
def stale_by_one_history():
    """w(a), w(b), then a read of 'a': 2-atomic but not 1-atomic."""
    return History(
        [
            write("a", 0.0, 1.0),
            write("b", 2.0, 3.0),
            read("a", 4.0, 5.0),
        ]
    )


@pytest.fixture
def stale_by_two_history():
    """w(a), w(b), w(c), then a read of 'a': needs k = 3."""
    return History(
        [
            write("a", 0.0, 1.0),
            write("b", 2.0, 3.0),
            write("c", 4.0, 5.0),
            read("a", 6.0, 7.0),
        ]
    )


@pytest.fixture
def atomic_history():
    """A serial, perfectly fresh history: 1-atomic."""
    return History(
        [
            write("a", 0.0, 1.0),
            read("a", 2.0, 3.0),
            write("b", 4.0, 5.0),
            read("b", 6.0, 7.0),
        ]
    )


@pytest.fixture
def concurrent_overlap_history():
    """A write concurrent with its read: trivially 1-atomic."""
    return History(
        [
            write("a", 0.0, 4.0),
            read("a", 1.0, 5.0),
        ]
    )


def make_random_history(rng, num_writes, num_reads, span=10.0, max_duration=2.0):
    """Build a random single-register history (may contain anomalies)."""
    ops = []
    for i in range(num_writes):
        start = rng.uniform(0.0, span)
        ops.append(write(i, start, start + rng.uniform(0.01, max_duration)))
    for _ in range(num_reads):
        value = rng.randrange(max(1, num_writes))
        start = rng.uniform(0.0, span + max_duration)
        ops.append(read(value, start, start + rng.uniform(0.01, max_duration)))
    return History(ops)


def result_fields(result):
    """Every field of a ``VerificationResult``, witness operations field by field.

    ``Operation`` equality compares op ids only, so parity tests compare
    these tuples instead of the results themselves.
    """
    witness = None
    if result.witness is not None:
        witness = [
            (op.op_id, op.op_type, op.value, op.key, op.client, op.weight, op.start, op.finish)
            for op in result.witness
        ]
    return (result.is_k_atomic, result.k, result.algorithm, result.reason, result.stats, witness)
