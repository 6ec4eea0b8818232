"""Shared file formats: the JSONL codec and the atomic whole-file writer.

The run log (:mod:`edm.obs.runlog`) is JSONL: one compact JSON object per
line, appended as one ``write`` per batch so that concurrent worker
appends never tear a line on POSIX filesystems.  It declares each record
type as a :class:`RecordSchema`.  Cache pickles, ``.npz`` series and
OpenMetrics snapshots go through :func:`atomic_write`.  Only the standard
library is imported, so ``edm.obs`` and ``edm.telemetry`` can both use it.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

#: Field type for JSON numbers (ints and floats, never bools).
NUMBER = (int, float)

_TYPE_NAMES = {NUMBER: "a number", int: "an int", str: "a string", dict: "a dict", list: "a list"}


def _is(value, kind) -> bool:
    """isinstance() where a bool only counts as a bool, not an int."""
    return isinstance(value, kind) and (not isinstance(value, bool) or kind is bool)


@dataclass(frozen=True)
class RecordSchema:
    """One JSONL record type: required fields, version stamp, cross-field check.

    ``fields`` maps each required field to its type (``object``: any).  With
    a ``version``, a ``schema`` stamp newer than it is reported first, so old
    readers skip future records instead of misparsing them.  ``check`` runs
    only on records whose fields are all present and well-typed.
    """

    fields: Mapping[str, type | tuple[type, ...]]
    version: int | None = None
    check: Callable[[dict], list[str]] | None = None

    def problems(self, record) -> list[str]:
        """Schema problems with ``record`` (an empty list means valid)."""
        if not isinstance(record, dict):
            return [f"record is {type(record).__name__}, not dict"]
        if self.version is not None and "schema" in record:
            stamp = record["schema"]
            if not _is(stamp, int):
                return [f"schema {stamp!r} is not an int"]
            if stamp > self.version:
                return [f"schema {stamp} newer than supported {self.version}"]
        problems = [f"missing field {name!r}" for name in self.fields if name not in record]
        problems += [
            f"{name} is not {_TYPE_NAMES[kind]}"
            for name, kind in self.fields.items()
            if kind is not object and name in record and not _is(record[name], kind)
        ]
        if not problems and self.check is not None:
            problems = self.check(record)
        return problems


def append_jsonl(path: str | os.PathLike, records: Iterable[dict]) -> None:
    """Append records to a JSONL file as one ``write``, creating parent dirs."""
    lines = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as f:
        f.write(lines)


def read_jsonl(path: str | os.PathLike, problems: Callable, strict: bool = True) -> list[dict]:
    """Parse a JSONL file, keeping the records for which ``problems`` is empty.

    ``strict=True`` raises ``ValueError`` naming ``path:line`` on the first
    malformed line or invalid record; ``strict=False`` skips such lines.
    """
    records: list[dict] = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                if strict:
                    raise ValueError(f"{path}:{lineno}: not JSON: {e}") from e
                continue
            found = problems(record)
            if found:
                if strict:
                    raise ValueError(f"{path}:{lineno}: {'; '.join(found)}")
                continue
            records.append(record)
    return records


def atomic_write(path: str | os.PathLike, write_fn: Callable) -> Path:
    """Replace ``path`` with what ``write_fn(f)`` writes to a binary file.

    The bytes go to a temporary file in the target directory (created if
    needed), renamed over ``path`` only once complete and removed on
    failure, so readers never see a torn file.  The result gets the
    permissions a plain ``open`` would give it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(fd, 0o666 & ~umask)
            write_fn(f)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    return path
