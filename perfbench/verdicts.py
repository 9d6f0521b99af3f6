"""Verdict digests: one hash over every register's verdict, algorithm,
NO reason and (where the path returns one) witness."""

from __future__ import annotations

import hashlib
import json
from typing import Hashable, Mapping


def result_record(result, *, witness: bool) -> list:
    """The digest fields of one ``VerificationResult``, in a fixed order.

    Witness operations are identified by kind, value and interval, never by
    ``op_id`` (ids are minted per process).
    """
    record = [bool(result.is_k_atomic), result.algorithm, result.reason]
    if witness:
        record.append(
            None
            if result.witness is None
            else [[op.is_write, op.value, op.start, op.finish] for op in result.witness]
        )
    return record


def digest(results: Mapping[Hashable, object], *, witness: bool = True) -> str:
    """SHA-256 over all registers, sorted by key, independent of dict order."""
    rows = sorted(
        ([str(key), result_record(result, witness=witness)] for key, result in results.items()),
        key=lambda row: row[0],
    )
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def no_count(results: Mapping[Hashable, object]) -> int:
    """Registers with a NO verdict."""
    return sum(1 for result in results.values() if not result.is_k_atomic)


def _prefix_reasons(ops, key) -> set:
    """NO reasons batch LBT gives on each stream-order prefix of one register."""
    from repro.core.api import verify
    from repro.core.history import History

    register = [op for op in ops if op.key == key]
    reasons = set()
    for m in range(1, len(register) + 1):
        prefix = register[:m]
        written = {op.value for op in prefix if op.is_write}
        result = verify(
            History([op for op in prefix if op.is_write or op.value in written], key=key),
            2,
            algorithm="lbt",
        )
        if not result.is_k_atomic:
            reasons.add(result.reason)
    return reasons


def session_check(results, reference, ops) -> tuple:
    """Compare a served session's final results with batch LBT on its trace.

    Every register must have the reference's verdict, algorithm and reason
    (served reports carry no witness), with one tolerated difference: a
    checker that latched NO mid-stream reports the reason batch LBT gives on
    the stream prefix it had checked, so such a NO passes when that reason is
    one LBT gives on some prefix of the register's stream.  Returns
    ``(ok, latched)`` with the number of registers that needed the prefix rule.
    """
    if digest(results, witness=False) == digest(reference, witness=False):
        return True, 0
    if set(map(str, results)) != set(map(str, reference)):
        return False, 0
    by_name = {str(key): result for key, result in results.items()}
    latched = 0
    for key, want in reference.items():
        got = by_name[str(key)]
        if result_record(got, witness=False) == result_record(want, witness=False):
            continue
        if (
            got.is_k_atomic or want.is_k_atomic or got.algorithm != want.algorithm
            or got.reason not in _prefix_reasons(ops, key)
        ):
            return False, latched
        latched += 1
    return True, latched
