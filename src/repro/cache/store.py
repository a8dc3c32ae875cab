"""The on-disk content-addressed store: atomic writes, paranoid reads.

One :class:`CacheStore` owns a directory tree ``root/<tier>/<aa>/<key>.bin``
(two-hex-char sharding keeps directories small).  Entries are immutable:
a key is a content digest (:mod:`repro.cache.keys`), so two writers for
the same key are writing the same bytes, and the *only* interesting
failure mode is a damaged or mismatched file.  Entries leave only by
quarantine or by :meth:`CacheStore.trim_shard`'s eviction, and a reader
that loses that race sees a miss.

Every read therefore re-verifies the whole entry before trusting a byte
of it.  The file format is::

    MAGIC (4B)  VERSION (2B BE)  key_len (2B BE)  key (ascii)
    payload_len (8B BE)  sha256(payload) (32B)  payload (pickle)

and :meth:`CacheStore.get` checks, in order: magic, version, that the
stored key equals the requested key (a rename/collision guard — a hash
prefix in the path is *not* proof of identity), the length, and the
checksum — only then unpickling.  Any failure at any stage means the
entry is deleted best-effort, the ``cache.corrupt`` counter moves, and
the caller sees ``None``: a broken cache file can only ever mean "cold",
never an exception and never wrong bytes.

Writes go to a uniquely named temp file in the same directory and land
with :func:`os.replace`, so readers never observe a torn entry under
the final name; a crash mid-write leaves only a ``.tmp-*`` orphan that
:meth:`clear` (and best-effort garbage collection on :meth:`put`)
removes.  Every I/O or pickling error on the write path is contained
into a ``False`` return and a ``cache.errors`` bump — a cache must
degrade, not break the lift that was merely trying to save work.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

from repro.obs.metrics import CACHE_CORRUPT, CACHE_ERRORS, CACHE_STORES

__all__ = ["CacheStore", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"RPC1"
FORMAT_VERSION = 1

_HEADER = struct.Struct(">4sHH")  # magic, version, key length
_LENGTHS = struct.Struct(">Q32s")  # payload length, payload sha256

# Refuse absurd payloads outright instead of handing a corrupted length
# field to a multi-gigabyte read().
_MAX_PAYLOAD = 1 << 31


class CacheStore:
    """A directory of checksummed, content-addressed pickle blobs.

    ``get``/``put`` never raise for cache-file or I/O problems; they
    return ``None``/``False`` and move the ``cache.corrupt`` /
    ``cache.errors`` counters instead.  Per-instance counts are kept on
    :attr:`counters` so tests and ``repro cache stats`` can read one
    store's history without snapshotting the global registry.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "errors": 0,
        }

    # --- paths -------------------------------------------------------

    def path_for(self, tier: str, key: str) -> Path:
        return self.root / tier / key[:2] / f"{key}.bin"

    # --- read --------------------------------------------------------

    def get(self, tier: str, key: str) -> Optional[object]:
        """The verified payload for ``key``, or ``None`` (cold)."""
        path = self.path_for(tier, key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            self.counters["misses"] += 1
            return None
        except OSError:
            self.counters["errors"] += 1
            CACHE_ERRORS.inc()
            return None
        payload = self._verify(data, key)
        if payload is None:
            self._quarantine(path)
            self.counters["corrupt"] += 1
            CACHE_CORRUPT.inc()
            return None
        try:
            value = pickle.loads(payload)
        except Exception:
            self._quarantine(path)
            self.counters["corrupt"] += 1
            CACHE_CORRUPT.inc()
            return None
        self.counters["hits"] += 1
        return value

    @staticmethod
    def _verify(data: bytes, key: str) -> Optional[bytes]:
        """Validate header + checksum; the raw payload bytes or None."""
        if len(data) < _HEADER.size:
            return None
        magic, version, key_len = _HEADER.unpack_from(data)
        if magic != MAGIC or version != FORMAT_VERSION:
            return None
        offset = _HEADER.size
        stored_key = data[offset : offset + key_len]
        if stored_key.decode("ascii", errors="replace") != key:
            return None
        offset += key_len
        if len(data) < offset + _LENGTHS.size:
            return None
        payload_len, checksum = _LENGTHS.unpack_from(data, offset)
        offset += _LENGTHS.size
        if payload_len > _MAX_PAYLOAD:
            return None
        payload = data[offset:]
        if len(payload) != payload_len:
            return None
        if hashlib.sha256(payload).digest() != checksum:
            return None
        return payload

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Best-effort removal of a bad entry so the next run recomputes
        and overwrites it rather than tripping on it forever."""
        try:
            path.unlink()
        except OSError:
            pass

    # --- write -------------------------------------------------------

    def put(self, tier: str, key: str, value: object) -> bool:
        """Atomically write ``value`` under ``key``; False on failure."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            key_bytes = key.encode("ascii")
            buf = io.BytesIO()
            buf.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(key_bytes)))
            buf.write(key_bytes)
            buf.write(_LENGTHS.pack(len(payload), hashlib.sha256(payload).digest()))
            buf.write(payload)
            path = self.path_for(tier, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".tmp-{os.getpid()}-{uuid.uuid4().hex}"
            with open(tmp, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, path)
        except Exception:
            self.counters["errors"] += 1
            CACHE_ERRORS.inc()
            return False
        self.counters["stores"] += 1
        CACHE_STORES.inc()
        return True

    # --- maintenance -------------------------------------------------

    def trim_shard(self, tier: str, key: str, keep: int) -> int:
        """Evict the oldest-mtime entries of ``key``'s shard directory
        until at most ``keep`` remain, never ``key`` itself; the number
        evicted.  O(shard): only that one directory is listed.  An entry
        that vanishes meanwhile (a concurrent trim) counts as evicted."""
        path = self.path_for(tier, key)
        aged = []
        try:
            with os.scandir(path.parent) as entries:
                for entry in entries:
                    if entry.name.endswith(".bin") and entry.name != path.name:
                        try:
                            aged.append((entry.stat().st_mtime_ns, entry.path))
                        except FileNotFoundError:
                            continue
        except OSError:
            return 0
        excess = len(aged) + 1 - keep
        if excess <= 0:
            return 0
        aged.sort()
        for _, victim in aged[:excess]:
            self._quarantine(Path(victim))
        return excess

    def scan(self) -> Dict[str, Dict[str, int]]:
        """Walk the store on disk: per-tier entry counts and byte
        totals (the ``repro cache stats`` view)."""
        tiers: Dict[str, Dict[str, int]] = {}
        if not self.root.is_dir():
            return tiers
        for tier_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            entries = 0
            size = 0
            for path in tier_dir.rglob("*.bin"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            tiers[tier_dir.name] = {"entries": entries, "bytes": size}
        return tiers

    def clear(self) -> int:
        """Delete every entry (and orphaned temp file); entries removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in list(self.root.rglob("*")):
            if path.is_file():
                try:
                    path.unlink()
                except OSError:
                    continue
                if path.suffix == ".bin":
                    removed += 1
        for path in sorted(
            (p for p in self.root.rglob("*") if p.is_dir()),
            key=lambda p: len(p.parts),
            reverse=True,
        ):
            try:
                path.rmdir()
            except OSError:
                pass
        return removed
