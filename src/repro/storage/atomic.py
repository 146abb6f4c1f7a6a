"""Atomic temp-file-then-rename writes for exported documents.

Exported artefacts — certification documents, sweep ledgers, serialized
policies — must never be observable half-written: a crash or disk-full
mid-export should leave either the previous file intact or no file at
all, never a truncated JSON body that downstream audit tooling might
parse as a (wrong) certificate.

:func:`atomic_write_bytes` writes to a temporary file in the target
directory, flushes and fsyncs it, and atomically renames it over the
destination (``os.replace``).  On any failure the temporary file is
removed and the destination is untouched.  The ``export.write`` fault
site lets chaos tests inject disk-full errors and byte corruption into
the write path.
"""

from __future__ import annotations

import os
import tempfile


def _fault_plan():
    from ..resilience.faults import active_plan  # lazy: avoids an import cycle

    return active_plan()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write *data* to *path* atomically (temp file + rename).

    Raises whatever the underlying I/O raises; on failure *path* is
    left exactly as it was and the temporary file is cleaned up.  A
    temporary file that cannot be created (a missing or read-only
    directory) raises the same :class:`OSError` class, naming *path*.
    """
    plan = _fault_plan()
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        handle, temp_path = tempfile.mkstemp(
            dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
        )
    except OSError as error:
        raise type(error)(error.errno, error.strerror, path) from error
    try:
        with os.fdopen(handle, "wb") as stream:
            if plan is not None:
                data = plan.corrupt_bytes("export.write", data)
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str, *, encoding: str = "utf-8") -> None:
    """Write *text* to *path* atomically (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode(encoding))
