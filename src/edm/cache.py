"""Content-keyed result cache.

Results live in ``.repro-cache/<workload>-<N>osd-<policy>-s<skew>-r<seed>.pkl``
(the key format inherited from the original sweep artifacts).  The filename
alone is not trusted: each pickle stores the full config content hash, and a
load only hits if that hash matches the requesting config.  Unreadable or
stale pickles (old engine versions, foreign formats, corruption) are
invalidated -- deleted and reported as a miss -- never silently returned.
``edm report`` reads through :func:`read_entry`, which never deletes.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import fields
from pathlib import Path

from edm.config import SimConfig, config_hash
from edm.files import atomic_write

DEFAULT_CACHE_DIR = Path(".repro-cache")
_PAYLOAD_VERSION = 1


def read_entry(path: str | os.PathLike) -> dict | None:
    """The payload stored at ``path``, or None if unreadable or stale.

    Stale means another payload format, or a stored ``config_hash`` that
    differs from the stored config's hash under the current engine.  Fields
    ``SimConfig`` no longer has never fed the hash, so they are dropped
    before re-hashing.  Read-only: a missing file raises ``FileNotFoundError``.
    """
    known = {f.name for f in fields(SimConfig)}
    try:
        with open(path, "rb") as f:
            payload = pickle.load(f)
        cfg = SimConfig.from_dict({k: v for k, v in payload["config"].items() if k in known})
        fresh = (
            payload["payload_version"] == _PAYLOAD_VERSION
            and payload["config_hash"] == config_hash(cfg)
            and isinstance(payload["metrics"], dict)
        )
    except FileNotFoundError:
        raise
    except Exception:
        # Unreadable pickle (truncated capture, foreign class, corruption)
        # or a foreign payload layout.
        return None
    return payload if fresh else None


class ResultCache:
    def __init__(self, cache_dir: str | os.PathLike = DEFAULT_CACHE_DIR):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.invalidated = 0

    def path_for(self, cfg: SimConfig) -> Path:
        return self.cache_dir / f"{cfg.cache_name()}.pkl"

    def load(self, cfg: SimConfig) -> dict | None:
        """Return cached metrics for cfg, or None on miss/invalidation."""
        path = self.path_for(cfg)
        try:
            payload = read_entry(path)
        except FileNotFoundError:
            self.misses += 1
            return None
        if payload is None or payload["config_hash"] != config_hash(cfg):
            self._invalidate(path)
            return None
        self.hits += 1
        return payload["metrics"]

    def store(self, cfg: SimConfig, metrics: dict) -> Path:
        """Atomically write metrics for cfg (write to temp file, then rename)."""
        payload = {
            "payload_version": _PAYLOAD_VERSION,
            "config_hash": config_hash(cfg),
            "config": cfg.to_dict(),
            "metrics": metrics,
        }
        return atomic_write(
            self.path_for(cfg),
            lambda f: pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def _invalidate(self, path: Path) -> None:
        self.misses += 1
        self.invalidated += 1
        try:
            path.unlink()
        except OSError:
            pass
