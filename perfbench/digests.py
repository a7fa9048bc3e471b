"""sha256 digests of the files a workload writes, checked against a recorded book.

Keys name what an output depends on, not where a run put it. Per-scene and
per-object outputs are keyed by scene seed, because a scene's content depends
on its own seed only; whole-dataset outputs are keyed by the workload seed.
A run with any seed therefore checks every output whose key was recorded and
counts the rest as unrecorded.

``python3 perfbench/run.py --record`` rewrites the book from the current code;
run it only when a change is meant to alter output bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BOOK = Path(__file__).resolve().parent / "digests.json"


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class DigestBook:
    """Compare (or, when recording, collect) one digest per output key."""

    def __init__(self, path: Path = BOOK, record: bool = False) -> None:
        self.path = path
        self.record = record
        self.known: dict[str, str] = json.loads(path.read_text()) if path.is_file() else {}
        self.seen: dict[str, str] = {}
        self.checked = 0
        self.mismatched: list[str] = []
        self.unrecorded = 0
        self.conflicts: list[str] = []  # one key, two digests within one run

    def check(self, key: str, digest: str) -> bool:
        """True unless the key is recorded with a different digest."""
        previous = self.seen.setdefault(key, digest)
        if previous != digest:
            self.conflicts.append(key)
            return False
        if self.record:
            return True
        want = self.known.get(key)
        if want is None:
            self.unrecorded += 1
            return True
        self.checked += 1
        if want != digest:
            self.mismatched.append(key)
            return False
        return True

    def check_file(self, key: str, path: Path) -> bool:
        return self.check(key, sha256_file(path))

    def save(self) -> int:
        """Merge this run's digests into the book; returns the number of new keys."""
        for key, digest in self.seen.items():
            if self.known.get(key, digest) != digest:
                raise ValueError(f"recorded digest for {key} changed; delete the book to re-record")
        added = len(set(self.seen) - set(self.known))
        self.known.update(self.seen)
        self.path.write_text(json.dumps(self.known, indent=0, sort_keys=True) + "\n")
        return added
