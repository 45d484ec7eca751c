"""On-disk, content-addressed cache of serialized run results.

Layout: one SQLite database, ``<directory>/results.sqlite3``, with one
table mapping each key to the compact JSON line of its result
(:func:`~repro.sim.results.to_json_line`).  :meth:`ResultCache.put_many`
writes a whole batch in one transaction (the runner calls it once per
``map``), and a transaction commits whole or not at all, so a killed
run never leaves a torn entry.  The journal is WAL with
``synchronous=NORMAL``: commits do not fsync, readers never wait for a
writer, and a second process writing the same directory waits out the
busy timeout instead of failing.  Corrupt or format-incompatible
payloads read as misses and are simply recomputed; a file at the
database path that is not a database is replaced by an empty one.

Invalidation is purely key-side: a key embeds the request *and* a
fingerprint of the simulator source (see :mod:`repro.runner.keys`), so
stale entries are never returned — they just linger until
``python -m repro cache clear`` removes them.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..sim.results import RunResult, from_json_line, to_json_line

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The database file inside the cache directory.
_DATABASE_NAME = "results.sqlite3"

#: Seconds a connection waits for another one's write lock.
_BUSY_TIMEOUT_S = 30.0

#: Page-cache cap per connection in KiB (SQLite reads a negative
#: ``cache_size`` as KiB).  The 2 MiB default grows with the database
#: and shows in a long-running service's resident set.
_PAGE_CACHE_KIB = 256


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-heb``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-heb"


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of what the cache directory holds."""

    directory: str
    entries: int
    total_bytes: int


def _connect(path: Path) -> sqlite3.Connection:
    """Open ``path`` in WAL mode with the results table in place."""
    connection = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_S,
                                 isolation_level=None,
                                 check_same_thread=False)
    try:
        connection.execute(f"PRAGMA cache_size=-{_PAGE_CACHE_KIB}")
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("CREATE TABLE IF NOT EXISTS results "
                           "(key TEXT PRIMARY KEY, payload TEXT NOT NULL)")
    except sqlite3.Error:
        connection.close()
        raise
    return connection


def _open_database(path: Path) -> sqlite3.Connection:
    """Connect to ``path``, replacing a file that is not a database."""
    try:
        try:
            return _connect(path)
        except sqlite3.DatabaseError as error:
            # SQLITE_NOTADB and SQLITE_CORRUPT raise exactly DatabaseError
            # on every Python version (``sqlite_errorcode`` exists only
            # from 3.11); a locked or unopenable file raises a subclass,
            # OperationalError, and is never replaced.
            if type(error) is not sqlite3.DatabaseError:
                raise
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        return _connect(path)
    except sqlite3.Error as error:
        raise ConfigurationError(
            f"cannot open the result cache {path}: {error}") from error


class ResultCache:
    """Maps cache keys (hex SHA-256) to serialized :class:`RunResult`.

    One connection per cache, shared by every thread under a lock: the
    scenario service probes on its event loop while ``map`` writes on an
    executor thread.  Payloads are serialized and parsed outside the
    lock.  A forked child reopens the database on first use rather than
    share its parent's connection.

    :meth:`close`, leaving a ``with`` block, or dropping the cache closes
    the connection; a closed cache reopens it on next use.
    """

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._open()

    def _open(self) -> None:
        connection = _open_database(self.directory / _DATABASE_NAME)
        self._connection = connection
        self._pid: Optional[int] = os.getpid()
        # A sqlite3.Connection sits in a reference cycle, so without the
        # finalizer a dropped cache would keep its file open until the
        # cyclic collector runs.
        self._finalizer = weakref.finalize(self, connection.close)

    def _database(self) -> sqlite3.Connection:
        """The connection of this process; call with the lock held."""
        if self._pid != os.getpid():
            self._finalizer()
            self._open()
        return self._connection

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None (miss/corrupt entry)."""
        with self._lock:
            row = self._database().execute(
                "SELECT payload FROM results WHERE key = ?",
                (key,)).fetchone()
        if row is None:
            return None
        try:
            return from_json_line(row[0])
        except ValueError:
            return None

    def put(self, key: str, result: RunResult) -> None:
        """Store a result atomically under ``key``."""
        self.put_many([(key, result)])

    def put_many(self, pairs: Iterable[Tuple[str, RunResult]]) -> None:
        """Store every ``(key, result)`` pair in one transaction.

        Every pair is serialized before the transaction begins, so a
        result that fails to serialize stores no pair at all.
        """
        rows = [(key, to_json_line(result)) for key, result in pairs]
        if not rows:
            return
        with self._lock:
            connection = self._database()
            with connection:
                connection.execute("BEGIN IMMEDIATE")
                connection.executemany(
                    "INSERT OR REPLACE INTO results VALUES (?, ?)", rows)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._database().execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def __len__(self) -> int:
        return self.stats().entries

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        with self._lock:
            connection = self._database()
            removed = connection.execute("DELETE FROM results").rowcount
            connection.execute("VACUUM")
        return removed

    def stats(self) -> CacheStats:
        """Entry count and total payload size."""
        with self._lock:
            entries, total_bytes = self._database().execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                "FROM results").fetchone()
        return CacheStats(directory=str(self.directory), entries=entries,
                          total_bytes=total_bytes)

    def close(self) -> None:
        """Close the database connection (a later call reopens it)."""
        with self._lock:
            self._finalizer()
            self._pid = None

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
