"""Crash-durability suite: torn writes, SIGKILL mid-checkpoint, fsync audit.

The durability contract of the state store (see :mod:`repro.state.store`)
is *never partial state*: whatever byte a crash tears a write at, loading
afterwards must either surface the complete prior state or raise a typed
error — and a checkpoint written before the crash must resume to verdict
parity with an uninterrupted run.  These tests enforce both:

* **Torn-write sweep** — write checkpoint A, then B and two journal deltas
  extending B, fold everything to disk, and truncate each backing file at
  *every byte boundary*; every truncation must load as B with a prefix of
  its journal, payload A, "no checkpoint", or a typed error — never a
  half-deserialized payload.
* **SIGKILL mid-checkpoint** — a subprocess feeds a deterministic stream,
  checkpointing after every operation, and is killed with ``SIGKILL``
  mid-run; the parent resumes from whatever checkpoint survived and must
  reach the exact verdicts of an uninterrupted run.
* **fsync audit** — the checkpoint save path must fsync the blob *and* the
  directory entry (``os.replace`` alone is atomic against process crashes
  but not against power loss).
"""

from __future__ import annotations

import os
import pickle
import random
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.errors import ReproError, ServiceError, StateError
from repro.service.checkpoint import CheckpointStore
from repro.service.session import AuditSession, SessionConfig

from tests.conftest import TEST_SEED, make_random_history
from tests.test_checkpoint import completion_order, result_signature

REPO_ROOT = Path(__file__).resolve().parent.parent


def _backing_files(directory: Path):
    """Every file the store persisted."""
    return sorted(p for p in directory.rglob("*") if p.is_file())


PAYLOAD_A = {"session_id": "torn", "stream": {"ops_fed": 3}, "blob": b"A" * 64}
PAYLOAD_B = {
    "session_id": "torn", "stream": {"ops_fed": 9}, "checkpoints": 2, "blob": b"B" * 64
}
#: Two journal deltas extending base B (checkpoints 3 and 4).
DELTAS = [
    {"session_id": "torn", "base": 2, "checkpoints": n, "ops_fed": 9 + n,
     "ops": [], "window_log": [], "elapsed_s": 0.0, "blob": bytes([n]) * 32}
    for n in (3, 4)
]


def test_torn_write_at_every_byte_boundary(tmp_path):
    """Bases and journal deltas alike: a torn record never loads partially.

    A torn delta may cut the journal back to a prefix of whole deltas, or
    raise a typed error; it never yields a partial delta.
    """
    base = tmp_path / "base"
    ckpt = CheckpointStore(base)
    ckpt.save("torn", PAYLOAD_A)
    ckpt.save("torn", PAYLOAD_B)
    for delta in DELTAS:
        ckpt.save("torn", delta)
    ckpt.close()
    # Base B with each prefix of its journal, longest first.
    chains = [
        {**PAYLOAD_B, "journal": DELTAS},
        {**PAYLOAD_B, "journal": DELTAS[:1]},
        PAYLOAD_B,
    ]

    originals = {p: p.read_bytes() for p in _backing_files(base)}
    assert originals, "store persisted nothing"
    scratch = tmp_path / "scratch"

    outcomes = {"B": 0, "B-prefix": 0, "A": 0, "gone": 0, "typed": 0}
    for victim, pristine in originals.items():
        for cut in range(len(pristine) + 1):
            if scratch.exists():
                shutil.rmtree(scratch)
            for path, data in originals.items():
                target = scratch / path.relative_to(base)
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(data if path != victim else data[:cut])
            try:
                store = CheckpointStore(scratch)
            except StateError:
                outcomes["typed"] += 1
                continue
            try:
                if "torn" not in store:
                    outcomes["gone"] += 1
                    continue
                loaded = store.load("torn")
            except (ServiceError, StateError):
                outcomes["typed"] += 1
                continue
            finally:
                store.close()
            # Never partial state: only complete records may surface.
            if loaded == chains[0]:
                outcomes["B"] += 1
            elif loaded in chains:
                outcomes["B-prefix"] += 1
            elif loaded == PAYLOAD_A:
                outcomes["A"] += 1
            else:  # pragma: no cover - the failure this suite exists for
                pytest.fail(
                    f"truncating {victim.name} at byte {cut} "
                    f"surfaced partial state: {loaded!r}"
                )
    # The untruncated tail must load as B with its whole journal, and some
    # truncation must be detected (a typed error, or falling back to a
    # shorter journal, an absent or the prior checkpoint).
    assert outcomes["B"] > 0
    assert sum(outcomes.values()) - outcomes["B"] > 0


# ----------------------------------------------------------------------
# SIGKILL mid-checkpoint: resume parity
# ----------------------------------------------------------------------
_CHILD_SCRIPT = textwrap.dedent(
    """
    import sys, time
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {root!r})
    from repro.service.checkpoint import CheckpointStore
    from repro.service.session import AuditSession, SessionConfig
    from tests.conftest import TEST_SEED, make_random_history
    from tests.test_checkpoint import completion_order
    import random

    store = CheckpointStore(sys.argv[1])
    history = make_random_history(random.Random(TEST_SEED + 77), 5, 8)
    ops = completion_order(history)
    session = AuditSession.start("kill/me", SessionConfig(k=2, window_size=3))
    for op in ops:
        session.feed(op)
        store.save(session.session_id, session.checkpoint_payload())
        print("fed", session.ops_fed, flush=True)
        time.sleep(0.02)
    print("done", flush=True)
    """
)


def _portable_signature(result):
    """``result_signature`` with process-local operation ids scrubbed.

    Anomaly reasons cite operations as ``read #41``; the ``#41`` comes from a
    per-process id counter, so a checkpoint written by a child process cites
    different ids for the *same* operations.  Everything else must match.
    """
    sig = result_signature(result)
    reason = re.sub(r"#\d+", "#?", sig[3]) if sig[3] else sig[3]
    return sig[:3] + (reason,) + sig[4:]


def test_sigkill_mid_checkpoint_resumes_to_parity(tmp_path):
    history = make_random_history(random.Random(TEST_SEED + 77), 5, 8)
    ops = completion_order(history)

    reference = AuditSession.start("kill/me", SessionConfig(k=2, window_size=3))
    for op in ops:
        reference.feed(op)
    expected = {
        key: _portable_signature(r) for key, r in reference.finish().results.items()
    }

    script = tmp_path / "child.py"
    script.write_text(
        _CHILD_SCRIPT.format(src=str(REPO_ROOT / "src"), root=str(REPO_ROOT))
    )
    store_dir = tmp_path / "store"
    child = subprocess.Popen(
        [sys.executable, str(script), str(store_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        fed = 0
        deadline = time.monotonic() + 30.0
        while fed < max(3, len(ops) // 3):
            line = child.stdout.readline()
            if not line:
                pytest.fail(
                    f"child exited early: {child.stderr.read()}"
                )
            if line.startswith("fed"):
                fed = int(line.split()[1])
            assert time.monotonic() < deadline
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on test bugs
            child.kill()
            child.wait()

    store = CheckpointStore(store_dir)
    try:
        assert "kill/me" in store, "no checkpoint survived the kill"
        payload = store.load("kill/me")
    finally:
        store.close()
    resumed = AuditSession.resume(payload)
    done = resumed.ops_fed
    assert 0 < done <= len(ops)
    for op in ops[done:]:
        resumed.feed(op)
    got = {key: _portable_signature(r) for key, r in resumed.finish().results.items()}
    assert got == expected, (
        f"resume after SIGKILL at op {done} diverged "
        f"(seed {TEST_SEED:#x})"
    )


# ----------------------------------------------------------------------
# fsync audit
# ----------------------------------------------------------------------
def test_checkpoint_save_fsyncs_blob_and_directory(tmp_path, monkeypatch):
    import repro.state.store as state_store

    synced_fds = []
    real_fsync = os.fsync

    def spy(fd):
        synced_fds.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(state_store.os, "fsync", spy)
    store = CheckpointStore(tmp_path)
    store.save("sid", {"session_id": "sid"})
    # One fsync for the temp file's contents, one for the directory entry
    # that os.replace created — both are required to survive power loss.
    assert len(synced_fds) >= 2
    assert store.load("sid") == {"session_id": "sid"}


def test_checkpoint_save_durable_false_skips_fsync(tmp_path, monkeypatch):
    import repro.state.store as state_store
    from repro.state import StateStore

    calls = []
    monkeypatch.setattr(state_store.os, "fsync", lambda fd: calls.append(fd))
    store = StateStore(tmp_path, durable=False)
    store.put("sessions", "sid", b"blob")
    assert calls == []
    assert store.get("sessions", "sid") == b"blob"


def test_rcol_writer_fsyncs_footer(tmp_path, monkeypatch):
    import repro.io.rcol as rcol_mod
    from repro.core.history import History
    from repro.core.operation import read, write
    from repro.io.rcol import dump_rcol, iter_rcol

    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        rcol_mod.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
    )
    history = History([write("a", 0.0, 1.0), read("a", 2.0, 3.0)])
    path = tmp_path / "trace.rcol"
    dump_rcol(history, path)
    assert synced, "RcolWriter.close() must fsync before the file is 'done'"
    assert len(list(iter_rcol(path))) == 2


def test_orphan_tmp_never_surfaces_as_session(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("real", {"session_id": "real"})
    store.close()
    # A crash mid-save leaves the temp file behind; the next open must sweep
    # it and must not list it as a session.
    orphan = tmp_path / "half%2Fwritten.ckpt.tmp"
    orphan.write_bytes(b"\x80\x05 torn pickle")
    reopened = CheckpointStore(tmp_path)
    assert not orphan.exists()
    assert reopened.session_ids() == ["real"]
    assert "half/written" not in reopened
    assert reopened.store.swept_tmp == 1
