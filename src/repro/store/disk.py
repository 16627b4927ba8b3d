"""The on-disk store: sharded JSON entries, atomic writes, tolerant reads.

Layout: ``root/<key[:2]>/<key>.json`` — one file per content address,
sharded by the first digest byte so directory listings stay cheap at
tens of thousands of entries.  Writes go through
:func:`~repro.supervision.atomicio.atomic_write_text` with a per-write
unique tmp suffix (pid + per-process counter): concurrent publishers of
the same key never see each other's scratch files, ``os.replace`` makes
the winner's document appear whole, and a torn or corrupt file can only
predate this code.

Reads are maximally suspicious: unparseable JSON is deleted on sight and
reported as a miss; a ``store_version`` mismatch is a miss without
deletion (an older/newer tool may still want it).  Nothing in this
module trusts entry *content* — semantic validation (canonical-text
equality, schedule re-verification) lives in :mod:`repro.store.tiering`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterator, Optional, Tuple

from repro.store.keys import STORE_VERSION
from repro.supervision.atomicio import atomic_write_text, unique_tmp_suffix


class ScheduleStore:
    """A persistent, content-addressed map of store key -> entry dict."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The resolved root: one identity per directory however it is
        #: spelled, so in-process tiers can tell stores apart.
        self.identity = str(self.root.resolve())

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- primitive operations -------------------------------------------

    def read(self, key: str) -> Optional[dict]:
        """The entry at ``key``, or None (missing, corrupt, alien version).

        Corrupt files are evicted immediately: leaving them would turn
        one bad write into a permanent per-key slowdown (parse-fail on
        every lookup), and the store can always re-derive content.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            entry = json.loads(text)
            if not isinstance(entry, dict):
                raise ValueError("entry root is not an object")
        except ValueError:
            self.delete(key)
            return None
        if entry.get("store_version") != STORE_VERSION:
            return None
        return entry

    def write(self, key: str, entry: dict) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A per-write unique suffix (pid + per-process counter): two
        # publishers of the same key — whether different processes, two
        # threads of one daemon, or a recycled pid — can never truncate
        # each other's scratch file; os.replace keeps readers whole.
        atomic_write_text(
            path,
            json.dumps(entry, sort_keys=True) + "\n",
            tmp_suffix=unique_tmp_suffix(),
        )

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except OSError:
            return False

    # -- enumeration ----------------------------------------------------

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("??/*.json")):
            yield path.stem

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """All readable entries; corrupt ones are evicted while walking."""
        for key in list(self.keys()):
            entry = self.read(key)
            if entry is not None:
                yield key, entry

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- maintenance ----------------------------------------------------

    def stats(self) -> dict:
        """Size/footprint summary for ``repro cache stats``."""
        count = 0
        total_bytes = 0
        oldest = newest = None
        for path in self.root.glob("??/*.json"):
            try:
                info = path.stat()
            except OSError:
                continue
            count += 1
            total_bytes += info.st_size
            mtime = info.st_mtime
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        return {
            "root": str(self.root),
            "entries": count,
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def gc(self, max_bytes: Optional[int] = None,
           max_age: Optional[float] = None) -> dict:
        """Evict by age, then by size (oldest mtime first).

        ``max_age`` is seconds; entries whose mtime is older are removed
        unconditionally.  If the surviving set still exceeds
        ``max_bytes``, the least-recently-written entries go until it
        fits.  Returns {removed, kept, bytes} counters.
        """
        now = time.time()
        survivors = []
        removed = 0
        for path in self.root.glob("??/*.json"):
            try:
                info = path.stat()
            except OSError:
                continue
            if max_age is not None and now - info.st_mtime > max_age:
                path.unlink(missing_ok=True)
                removed += 1
                continue
            survivors.append((info.st_mtime, info.st_size, path))
        survivors.sort()
        total = sum(size for _, size, _ in survivors)
        if max_bytes is not None:
            while survivors and total > max_bytes:
                _, size, path = survivors.pop(0)
                path.unlink(missing_ok=True)
                total -= size
                removed += 1
        self._prune_empty_shards()
        return {"removed": removed, "kept": len(survivors), "bytes": total}

    def clear(self) -> int:
        removed = 0
        for path in self.root.glob("??/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        self._prune_empty_shards()
        return removed

    def _prune_empty_shards(self) -> None:
        for shard in self.root.glob("??"):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
