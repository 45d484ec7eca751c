"""Incremental on-disk cache for lint results.

One JSON file per entry, ``<dir>/<key[:2]>/<key>.json``, sharded by the
first key byte so no directory grows huge.  Writes are atomic
(tempfile + rename), and corrupt entries read as misses.  Two entry
kinds share the store:

* **per-file** — findings of the per-file rules for one module, keyed by
  SHA-256 of (analysis-code fingerprint, selected per-file rule ids,
  file content hash).  Findings are stored path-less and re-anchored on
  read, so a file moving on disk without changing still hits.
* **project** — findings of the whole-program passes, keyed by SHA-256
  of (analysis-code fingerprint, selected whole-program rule ids, the
  sorted (path, content-hash) list of *every* scanned module).  Any
  edited, added, or removed file therefore invalidates the project
  entry, which is exactly the soundness requirement for
  interprocedural results.

Invalidation is purely key-side: the fingerprint covers every ``.py``
file of ``repro.analysis`` itself, so changing a rule or a pass
invalidates all previous lint results while leaving the (much larger)
simulator cache untouched.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .findings import Finding

#: Environment variable overriding the default lint-cache directory.
LINT_CACHE_DIR_ENV = "REPRO_LINT_CACHE_DIR"

#: Bumped when the entry layout changes; part of every key.
ENTRY_FORMAT = 1


def default_lint_cache_dir() -> Path:
    """``$REPRO_LINT_CACHE_DIR`` if set, else ``~/.cache/repro-heb-lint``."""
    override = os.environ.get(LINT_CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-heb-lint"


@lru_cache(maxsize=1)
def analysis_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of ``repro.analysis`` itself.

    Computed once per process.  Editing any rule, pass, or the engine
    changes the fingerprint and thereby invalidates every cached lint
    result; editing the simulator does not.
    """
    package_root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def content_hash(source: str) -> str:
    """Hex SHA-256 of one file's text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def file_key(source_hash: str, rule_ids: Sequence[str]) -> str:
    """Cache key of one module's per-file findings."""
    payload = json.dumps(
        {"format": ENTRY_FORMAT, "kind": "file",
         "code": analysis_fingerprint(), "rules": sorted(rule_ids),
         "source": source_hash},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def project_key(file_hashes: Sequence[Tuple[str, str]],
                rule_ids: Sequence[str]) -> str:
    """Cache key of the whole-program findings for one file set."""
    payload = json.dumps(
        {"format": ENTRY_FORMAT, "kind": "project",
         "code": analysis_fingerprint(), "rules": sorted(rule_ids),
         "files": sorted(list(pair) for pair in file_hashes)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _finding_to_entry(finding: Finding, strip_path: bool) -> Dict:
    # Serialized under the dataclass field names (``rule_id``), not the
    # report-facing ``to_dict`` spelling (``rule``), so the round trip
    # below stays a plain field copy.
    entry = {"line": finding.line, "col": finding.col,
             "rule_id": finding.rule_id, "message": finding.message}
    if not strip_path:
        entry["path"] = finding.path
    return entry


def _finding_from_entry(entry: Dict, path: Optional[str]) -> Finding:
    return Finding(
        path=entry.get("path", path or "<unknown>"),
        line=int(entry["line"]),
        col=int(entry["col"]),
        rule_id=str(entry["rule_id"]),
        message=str(entry["message"]),
    )


class AnalysisCache:
    """Maps lint cache keys (hex SHA-256) to serialized findings."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = (Path(directory) if directory
                          else default_lint_cache_dir())
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    # -- per-file entries (findings stored path-less) -------------------

    def get_file(self, key: str, path: str) -> Optional[List[Finding]]:
        """Cached per-file findings re-anchored at ``path``, or None."""
        entries = self._read(key)
        if entries is None:
            return None
        try:
            return [_finding_from_entry(entry, path) for entry in entries]
        except (KeyError, TypeError, ValueError):
            return None

    def put_file(self, key: str, findings: Sequence[Finding]) -> None:
        self._write(key, [_finding_to_entry(f, strip_path=True)
                          for f in findings])

    # -- project entries (findings keep their paths) --------------------

    def get_project(self, key: str) -> Optional[List[Finding]]:
        entries = self._read(key)
        if entries is None:
            return None
        try:
            return [_finding_from_entry(entry, None) for entry in entries]
        except (KeyError, TypeError, ValueError):
            return None

    def put_project(self, key: str, findings: Sequence[Finding]) -> None:
        self._write(key, [_finding_to_entry(f, strip_path=False)
                          for f in findings])

    # -- storage --------------------------------------------------------

    def _read(self, key: str) -> Optional[List[Dict]]:
        try:
            payload = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (not isinstance(payload, dict)
                or payload.get("format") != ENTRY_FORMAT
                or not isinstance(payload.get("findings"), list)):
            return None
        return payload["findings"]

    def _write(self, key: str, entries: List[Dict]) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"format": ENTRY_FORMAT, "findings": entries},
                             sort_keys=True, separators=(",", ":"))
        handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in self.directory.glob("??"):
            try:
                shard.rmdir()
            except OSError:
                pass  # non-empty (stray files) — leave it
        return removed
