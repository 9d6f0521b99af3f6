"""Durable state for the audit service and streaming tier.

:class:`StateStore` is a one-file-per-key ``(namespace, key) -> bytes``
store (temp file + fsync + rename), byte-compatible with pre-1.8
checkpoint directories; see :mod:`repro.state.store` for the layout and
the durability contract.  :class:`TimelineRetention` spills cold window
reports of long streams into one.
"""

from .retention import TimelineRetention
from .store import StateStore, fsync_directory, write_file_atomic

__all__ = [
    "StateStore",
    "fsync_directory",
    "write_file_atomic",
    "TimelineRetention",
]
