"""Contract tests for the durable state store.

Round trips, typed errors, hostile-key safety, the historical on-disk
layout, the orphan sweep, the refusal of directories written by removed
backends, and timeline retention on top of the store.
"""

from __future__ import annotations

import os

import pytest

from repro.core.errors import StateError
from repro.state import StateStore, TimelineRetention, write_file_atomic

HOSTILE_KEYS = [
    "../escape me/..",
    "a/b\\c",
    "unicode-é中文",
    "",
    ".",
    # Long but under the ~255-byte filename cap the json layout inherits
    # from the pre-1.8 checkpoint store (percent-quoting triples some bytes).
    "a" * 120,
]


# ----------------------------------------------------------------------
# Mapping contract
# ----------------------------------------------------------------------
def test_round_trip_and_overwrite(tmp_path):
    with StateStore(tmp_path) as store:
        store.put("sessions", "s1", b"one")
        assert store.get("sessions", "s1") == b"one"
        store.put("sessions", "s1", b"two")
        assert store.get("sessions", "s1") == b"two"
        assert store.contains("sessions", "s1")
        assert not store.contains("sessions", "absent")
        assert store.keys("sessions") == ["s1"]
        assert store.keys("empty-namespace") == []


def test_namespaces_are_disjoint(tmp_path):
    with StateStore(tmp_path) as store:
        store.put("sessions", "k", b"session blob")
        store.put("pool-snap", "k", b"snapshot blob")
        assert store.get("sessions", "k") == b"session blob"
        assert store.get("pool-snap", "k") == b"snapshot blob"
        assert store.delete("pool-snap", "k")
        assert store.get("sessions", "k") == b"session blob"
        assert not store.contains("pool-snap", "k")


def test_missing_entry_raises_typed_error(tmp_path):
    with StateStore(tmp_path) as store:
        with pytest.raises(StateError):
            store.get("sessions", "never-written")
        assert store.delete("sessions", "never-written") is False


def test_survives_close_and_reopen(tmp_path):
    with StateStore(tmp_path) as store:
        store.put("sessions", "a", b"\x00\x01binary\xff")
        store.put("timeline", "w:0", b"x" * 4096)
        store.delete("sessions", "a")
        store.put("sessions", "b", b"kept")
    with StateStore(tmp_path) as store:
        assert store.keys("sessions") == ["b"]
        assert store.get("sessions", "b") == b"kept"
        assert store.get("timeline", "w:0") == b"x" * 4096
        assert not store.contains("sessions", "a")


@pytest.mark.parametrize("key", HOSTILE_KEYS)
def test_hostile_keys_stay_inside_the_store(tmp_path, key):
    store_dir = tmp_path / "store"
    with StateStore(store_dir) as store:
        store.put("sessions", key, b"payload")
        assert store.get("sessions", key) == b"payload"
        assert store.keys("sessions") == [key]
    # Nothing may be created outside the store directory.
    outside = [p for p in tmp_path.iterdir() if p.name != "store"]
    assert outside == []
    with StateStore(store_dir) as store:
        assert store.get("sessions", key) == b"payload"


def test_random_bytes_survive_reopen(tmp_path):
    """The store returns exactly the bytes stored, across a reopen."""
    blob = os.urandom(2048)
    with StateStore(tmp_path) as store:
        store.put("sessions", "sid", blob)
    with StateStore(tmp_path) as store:
        assert store.get("sessions", "sid") == blob


def test_stats_counters(tmp_path):
    with StateStore(tmp_path) as store:
        store.put("sessions", "a", b"12345")
        store.get("sessions", "a")
        stats = store.stats()
        assert stats["puts"] == 1
        assert stats["gets"] == 1
        assert stats["bytes_written"] >= 5
        assert stats["bytes_read"] == 5


# ----------------------------------------------------------------------
# Layout, orphan sweep and removed backends
# ----------------------------------------------------------------------
def test_json_sessions_live_at_directory_root(tmp_path):
    store = StateStore(tmp_path)
    path = store.path_for("sessions", "sid one")
    assert path.parent == store.directory
    assert path.suffix == ".ckpt"
    other = store.path_for("timeline", "sid one")
    assert other.parent.parent == store.directory


def test_json_orphan_tmp_sweep(tmp_path):
    """A crash mid-write leaves a ``*.tmp`` orphan: swept at open, never a session."""
    (tmp_path / "crashed%2Fsid.ckpt.tmp").write_bytes(b"torn half-write")
    sub = tmp_path / "timeline"
    sub.mkdir()
    (sub / "w0.blob.tmp").write_bytes(b"torn")
    store = StateStore(tmp_path)
    assert store.swept_tmp == 2
    assert not (tmp_path / "crashed%2Fsid.ckpt.tmp").exists()
    assert not (sub / "w0.blob.tmp").exists()
    assert store.keys("sessions") == []
    assert store.keys("timeline") == []


def test_write_file_atomic_cleans_up_tmp_on_failure(tmp_path):
    target = tmp_path / "missing-dir" / "file.bin"
    with pytest.raises(OSError):
        write_file_atomic(target, b"data")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, backend", [("state.db", "sqlite"), ("seg-00000000.seg", "segments")]
)
def test_directory_of_a_removed_backend_is_refused(tmp_path, name, backend):
    """A store the removed backends wrote must not read as an empty one."""
    (tmp_path / name).write_bytes(b"written by an earlier release")
    with pytest.raises(StateError, match=f"{name}.*removed '{backend}'"):
        StateStore(tmp_path)


# ----------------------------------------------------------------------
# Timeline retention
# ----------------------------------------------------------------------
def test_retention_unbounded_without_store():
    timeline = TimelineRetention()
    for i in range(10):
        timeline.append(i)
    assert not timeline.bounded
    assert list(timeline) == list(range(10))
    assert timeline.spills == 0


def test_retention_spills_and_reloads(tmp_path):
    with StateStore(tmp_path) as store:
        timeline = TimelineRetention(store, keep=3, prefix="t")
        for i in range(12):
            timeline.append({"window": i})
        assert timeline.bounded
        assert len(timeline) == 12
        assert timeline.spills == 9
        assert timeline[0] == {"window": 0}  # cold: reloaded from the store
        assert timeline[-1] == {"window": 11}  # hot
        assert timeline[3:5] == [{"window": 3}, {"window": 4}]
        assert timeline.materialize() == [{"window": i} for i in range(12)]
        assert timeline.reloads > 0
        timeline.clear()
        assert len(timeline) == 0
        assert store.keys("timeline") == []


def test_retention_two_streams_share_one_store(tmp_path):
    with StateStore(tmp_path) as store:
        a = TimelineRetention(store, keep=2, prefix="a")
        b = TimelineRetention(store, keep=2, prefix="b")
        for i in range(6):
            a.append(("a", i))
            b.append(("b", i))
        assert a.materialize() == [("a", i) for i in range(6)]
        assert b.materialize() == [("b", i) for i in range(6)]
