"""Content-addressed result cache under ``.repro-cache/``.

The store holds one kind of entry: a shard artifact (payload, wall,
trace hash) under the ``task_id`` of its
:class:`repro.experiments.base.ShardSpec`, e.g. ``npb/grid16/ft``; the
one shard of an experiment that runs whole is ``experiment/<id>``.  An
experiment is never stored: the runner merges it from its shards on
every run.  Entries are small JSON documents, so they double as
machine-readable shard records.

Cache keys are ``blake2b(task id | fast flag | source digest | shard
spec | runtime)``, the runtime being the interpreter's minor
version (:func:`runtime_salt`).  The source digest
is *dependency-aware*: when the shard runner's module is known, only
its import closure is digested
(:class:`repro.analysis.imports.DependencyDigests`), so touching
``obs/report.py`` leaves every simulation shard warm while touching
``tcp/congestion.py`` — which every simulated byte flows through —
correctly invalidates them all.  Tasks without a known root (tests
injecting ad-hoc shard runners) fall back to the whole-tree digest; a
pinned ``digest=`` disables closures entirely, preserving the historical
"one digest per store" semantics tests rely on.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:
    from repro.analysis.imports import DependencyDigests

logger = logging.getLogger("repro.runner.cache")

#: default cache root, relative to the invocation directory
DEFAULT_CACHE_ROOT = Path(".repro-cache")

#: the last campaign's hit/miss counters: the one root file that is not an entry
STATS_NAME = "stats.json"

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent  # src/repro


def entry_files(root: Path) -> list[Path]:
    """The store's entry files, sorted: every ``*.json`` but the stats file."""
    if not root.is_dir():
        return []
    return [
        path
        for path in sorted(root.iterdir())
        if path.is_file() and path.suffix == ".json" and path.name != STATS_NAME
    ]


def source_digest(package_root: Optional[Path] = None) -> str:
    """Digest of every ``*.py`` file under the repro package.

    Deterministic: files are folded in sorted relative-path order, with
    path and content separated by NUL bytes so renames change the digest.
    """
    root = Path(package_root) if package_root is not None else _PACKAGE_ROOT
    hasher = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        hasher.update(path.relative_to(root).as_posix().encode("utf-8"))
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    return hasher.hexdigest()


def runtime_salt() -> str:
    """The interpreter minor version.

    An entry stored under one interpreter must miss under another.  numpy
    is not part of it: no shard result depends on numpy, since every
    random draw of an experiment comes from :mod:`repro.sim.rng`'s
    pure-Python PCG64 (CI runs a whole campaign with numpy blocked).
    """
    return f"py={sys.version_info[0]}.{sys.version_info[1]}"


def spec_material(runner: str, params: dict[str, Any]) -> str:
    """Canonical digestable form of a shard spec (runner + params).

    Folding the spec into the key means per-curve/per-site shards keep
    hitting independently even if a task_id is ever reused with different
    parameters, and a parameter change can never replay a stale payload.
    """
    material = json.dumps({"runner": runner, "params": params}, sort_keys=True)
    return hashlib.blake2b(material.encode("utf-8"), digest_size=8).hexdigest()


def _default_deps() -> "DependencyDigests | None":
    """A dependency-digest analyser over the installed package.

    Import is deferred (cache -> analysis would otherwise be a hard
    layering edge) and failure degrades to whole-tree digests — caching
    must keep working even if the analyser chokes on the tree.
    """
    try:
        from repro.analysis.imports import DependencyDigests

        return DependencyDigests()
    except Exception:  # noqa: BLE001 - degrade to the pessimistic digest
        logger.warning("dependency analysis unavailable; whole-tree cache keys")
        return None


class ResultCache:
    """Load/store JSON artifacts keyed by (task id, fast flag, source digest).

    ``digest`` pins one digest for every task (tests, and the workers —
    the parent resolves each task's dependency digest once and ships the
    result down).  Without a pin, per-task digests come from ``deps``
    (built by default) via each task's ``module=`` root, falling back to
    the whole-tree :func:`source_digest`.  :func:`runtime_salt` joins
    every key unless the digest is pinned (a worker's pin already carries
    its parent's).

    The instance counts its ``hits`` / ``misses`` / ``stores``;
    :meth:`write_stats` persists them to ``<root>/stats.json`` so
    ``repro cache stats`` can report on the last campaign.
    """

    def __init__(
        self,
        root: "Path | str | None" = None,
        digest: Optional[str] = None,
        enabled: bool = True,
        deps: "DependencyDigests | None" = None,
    ) -> None:
        self.root = Path(root) if root is not None else DEFAULT_CACHE_ROOT
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        if digest is not None:
            # Pinned digest: closures off unless deps is passed explicitly.
            self.digest = digest
            self.deps = deps
            self.runtime = ""
        else:
            self.runtime = runtime_salt()
            # Computing the digest walks ~200 files once per cache instance;
            # the dependency graph parses them once more (ASTs, memoized).
            self.digest = source_digest()
            self.deps = deps if deps is not None else _default_deps()

    def effective_digest(self, module: Optional[str] = None, spec: str = "") -> str:
        """The digest component of a task's key, dependency-aware.

        This exact string is shipped to shard workers as their pinned
        ``digest`` so parent and worker compute identical keys without the
        worker rebuilding the import graph.
        """
        digest = self.digest
        if module is not None and self.deps is not None:
            closure = self.deps.closure_digest(module)
            if closure is not None:
                digest = f"closure:{closure}"
        if spec:
            digest += f"|spec={spec}"
        if self.runtime:
            digest += f"|{self.runtime}"
        return digest

    def key(
        self,
        task_id: str,
        fast: bool,
        module: Optional[str] = None,
        spec: str = "",
    ) -> str:
        material = f"{task_id}|fast={fast}|src={self.effective_digest(module, spec)}"
        return hashlib.blake2b(material.encode("utf-8"), digest_size=16).hexdigest()

    def path(
        self,
        task_id: str,
        fast: bool,
        module: Optional[str] = None,
        spec: str = "",
    ) -> Path:
        safe = task_id.replace("/", "_")
        return self.root / f"{safe}-{self.key(task_id, fast, module, spec)}.json"

    def load(
        self,
        task_id: str,
        fast: bool,
        module: Optional[str] = None,
        spec: str = "",
    ) -> Optional[dict]:
        """The cached artifact, or ``None`` on miss/corruption.

        A corrupted entry (truncated write, malformed JSON, wrong document
        shape) is a *miss*: the bad file is evicted so it cannot shadow the
        recomputed artifact, and a warning is logged.
        """
        if not self.enabled:
            return None
        path = self.path(task_id, fast, module, spec)
        if not path.exists():
            self.misses += 1
            return None
        try:
            with path.open("r", encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError:
            self.misses += 1
            return None  # unreadable, not necessarily corrupt: leave it
        except ValueError:
            self._evict_corrupt(path, task_id, "malformed JSON")
            self.misses += 1
            return None
        if not isinstance(document, dict) or not isinstance(
            document.get("artifact"), dict
        ):
            self._evict_corrupt(path, task_id, "unexpected document shape")
            self.misses += 1
            return None
        if document.get("task_id") != task_id:  # hash collision paranoia
            self.misses += 1
            return None
        self.hits += 1
        return document["artifact"]

    def _evict_corrupt(self, path: Path, task_id: str, reason: str) -> None:
        try:
            path.unlink()
        except OSError:
            pass  # already gone, or unremovable: the miss still stands
        logger.warning(
            "evicted corrupt cache entry for %r at %s (%s)", task_id, path, reason
        )

    def store(
        self,
        task_id: str,
        fast: bool,
        artifact: dict[str, Any],
        module: Optional[str] = None,
        spec: str = "",
    ) -> Optional[Path]:
        """Write the artifact; returns its path (``None`` when disabled)."""
        if not self.enabled:
            return None
        path = self.path(task_id, fast, module, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": 1,
            "task_id": task_id,
            "fast": fast,
            "source_digest": self.effective_digest(module, spec),
            "artifact": artifact,
        }
        # Write-then-rename so a concurrent reader never sees a torn file.
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        self.stores += 1
        return path

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def write_stats(self, extra: "dict[str, Any] | None" = None) -> Optional[Path]:
        """Persist this instance's counters to ``<root>/stats.json``.

        Called once per campaign by the runner; ``repro cache stats``
        reads the file back.  No-op when the cache is disabled (there is
        nothing meaningful to report and possibly no directory).
        """
        if not self.enabled:
            return None
        path = self.root / STATS_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"schema": 1, **self.counters(), **(extra or {})}
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        dry_run: bool = False,
    ) -> "PruneReport":
        """Prune the store (see module-level :func:`prune_cache`)."""
        return prune_cache(
            self.root,
            max_bytes=max_bytes,
            max_age_seconds=max_age_seconds,
            dry_run=dry_run,
        )


@dataclass
class PruneReport:
    """What a cache prune did (or would do, under ``dry_run``)."""

    root: Path
    dry_run: bool = False
    kept: int = 0
    kept_bytes: int = 0
    removed: list[Path] = field(default_factory=list)
    removed_bytes: int = 0
    #: orphaned write-then-rename temp files cleaned up alongside
    removed_tmp: int = 0

    def render(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        lines = [
            f"cache prune {self.root}: {verb} {len(self.removed)} entr"
            f"{'y' if len(self.removed) == 1 else 'ies'} "
            f"({self.removed_bytes} bytes), kept {self.kept} "
            f"({self.kept_bytes} bytes)"
        ]
        if self.removed_tmp:
            lines.append(f"  {verb} {self.removed_tmp} stray .tmp file(s)")
        for path in self.removed:
            lines.append(f"  {verb} {path.name}")
        return "\n".join(lines)


#: default size cap for ``repro cache prune`` (256 MiB)
DEFAULT_CACHE_CAP_BYTES = 256 * 1024 * 1024


def prune_cache(
    root: "Path | str | None" = None,
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    dry_run: bool = False,
) -> PruneReport:
    """Bound the cache: drop stale-by-age entries, then oldest-first to a
    size cap.

    The store is content-addressed against the *current* source digest, so
    every source change strands the previous digest's entries forever —
    unbounded growth unless pruned.  Eviction is by modification time,
    oldest first, with the file name as a deterministic tie-break; stray
    ``*.tmp<pid>`` files from interrupted writes are always removed.  With
    ``dry_run`` nothing is deleted and the report lists the candidates.
    """
    report = PruneReport(
        root=Path(root) if root is not None else DEFAULT_CACHE_ROOT,
        dry_run=dry_run,
    )
    if not report.root.is_dir():
        return report
    if max_bytes is None and max_age_seconds is None:
        max_bytes = DEFAULT_CACHE_CAP_BYTES

    for path in sorted(report.root.iterdir()):
        if path.is_file() and ".tmp" in path.suffix:
            report.removed_tmp += 1
            if not dry_run:
                _remove_quietly(path)
    entries: list[tuple[float, str, Path, int]] = []
    for path in entry_files(report.root):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, path.name, path, stat.st_size))
    entries.sort()  # oldest first; name breaks mtime ties deterministically

    # The prune clock is host wall time by design: cache entry ages are an
    # operational property of the store, not simulation state.
    now = time.time()  # repro: noqa=DET002
    doomed: list[tuple[Path, int]] = []
    survivors: list[tuple[float, str, Path, int]] = []
    for entry in entries:
        mtime, _name, path, size = entry
        if max_age_seconds is not None and now - mtime > max_age_seconds:
            doomed.append((path, size))
        else:
            survivors.append(entry)
    if max_bytes is not None:
        total = sum(size for _, _, _, size in survivors)
        while survivors and total > max_bytes:
            mtime, _name, path, size = survivors.pop(0)
            doomed.append((path, size))
            total -= size

    for path, size in doomed:
        report.removed.append(path)
        report.removed_bytes += size
        if not dry_run:
            _remove_quietly(path)
    report.kept = len(survivors)
    report.kept_bytes = sum(size for _, _, _, size in survivors)
    return report


def _remove_quietly(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass  # raced with another pruner: the entry is gone either way


# --- `repro cache stats` -----------------------------------------------------------
@dataclass
class CacheStats:
    """Store shape + the last campaign's hit/miss counters."""

    root: Path
    entries: int = 0
    total_bytes: int = 0
    #: counters persisted by the last campaign's :meth:`ResultCache.write_stats`
    last_campaign: dict = field(default_factory=dict)

    def render(self) -> str:
        parts = [
            f"{self.entries} entr{'y' if self.entries == 1 else 'ies'}",
            f"{self.total_bytes} bytes",
        ]
        lc = self.last_campaign
        if lc:
            parts.append(
                f"last campaign: {lc.get('hits', 0)} hits, "
                f"{lc.get('misses', 0)} misses, {lc.get('stores', 0)} stored"
            )
        return f"cache {self.root}: " + ", ".join(parts)


def cache_stats(root: "Path | str | None" = None) -> CacheStats:
    """Scan the store: entry counts, bytes, last-campaign counters."""
    stats = CacheStats(root=Path(root) if root is not None else DEFAULT_CACHE_ROOT)
    if not stats.root.is_dir():
        return stats
    for path in entry_files(stats.root):
        try:
            size = path.stat().st_size
        except OSError:
            continue
        stats.entries += 1
        stats.total_bytes += size
    stats_path = stats.root / STATS_NAME
    if stats_path.exists():
        try:
            document = json.loads(stats_path.read_text(encoding="utf-8"))
            if isinstance(document, dict):
                stats.last_campaign = document
        except (OSError, ValueError):
            pass  # a torn stats file degrades to "no last campaign"
    return stats


# --- `repro cache ls` --------------------------------------------------------------
def list_entries(
    pattern: str,
    root: "Path | str | None" = None,
    plan_ids: frozenset[str] = frozenset(),
) -> list[tuple[Path, dict]]:
    """Entries whose task id contains ``pattern`` (case-insensitive) or
    is one of ``plan_ids``, sorted by task id.  Reads only."""
    needle = pattern.lower()
    found: list[tuple[Path, dict]] = []
    for path in entry_files(Path(root) if root is not None else DEFAULT_CACHE_ROOT):
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # a corrupt entry is evicted by the load that trips on it
        if not isinstance(document, dict) or not isinstance(
            document.get("artifact"), dict
        ):
            continue
        task_id = document.get("task_id")
        if isinstance(task_id, str) and (
            needle in task_id.lower() or task_id in plan_ids
        ):
            found.append((path, document))
    found.sort(key=lambda entry: (entry[1]["task_id"], str(entry[0])))
    return found


def render_entry(path: Path, document: dict) -> str:
    """One entry's provenance: task id, fast flag, wall, digest prefix,
    then its path."""
    digest = str(document.get("source_digest", "")).removeprefix("closure:")
    return (
        f"{document['task_id']}  "
        f"fast={bool(document.get('fast', False))}  "
        f"wall {float(document['artifact'].get('wall_s') or 0.0):.1f}s  "
        f"digest {digest[:12] or '-'}\n"
        f"  {path}"
    )
