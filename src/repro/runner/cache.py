"""Content-addressed result stores for pipeline jobs.

:class:`CacheBackend` is the abstraction every store implements: pickled
values addressed by a job's content hash
(:meth:`repro.runner.jobs.JobSpec.key`), which already folds in
:data:`repro.runner.jobs.CODE_VERSION` — so code changes miss naturally.
:data:`FORMAT_VERSION` versions the *store layout* instead: a layout
change moves to a new namespace and strands (rather than misreads) old
entries.

:class:`DiskCache` is the local-directory implementation
(``~/.cache/repro`` by default, overridable with ``--cache-dir`` or
``$REPRO_CACHE_DIR``)::

    <root>/v2/<key[:2]>/<key>.pkl     pickled stage result
    <root>/v2/<key[:2]>/<key>.json    sidecar manifest (human-inspectable)

A payload holds only what its job added.  Any object it shares with
one of its dependency results — a compile result's program and
profile — is written as a *reference* to that dependency
(:class:`DependencyRefs`), and decodes to the reader's own decoded
dependency object, so every job of a sweep sees the one program of its
benchmark.  Payloads that reference nothing are plain pickles.

The shared backends — :class:`repro.service.backends.SQLiteCache` (one
WAL-mode file, safe for concurrent workers) and
:class:`repro.service.backends.HTTPCache` (thin client for a broker's
object-store endpoints) — subclass :class:`CacheBackend` from the
service package; the executor only ever sees the interface.

Every backend is fault-tolerant by construction: disk writes go through
a temporary file and an atomic ``os.replace`` (a concurrent writer
racing on the same key wins-or-noops, never corrupts), and any
unreadable or truncated entry is treated as a miss and evicted.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

#: Bump when the on-disk layout (not the result semantics) changes.
#: v2: payloads reference the objects they share with dependency results.
FORMAT_VERSION = 2

#: Exceptions that mean "this payload does not decode to a value".
#: Anything else propagating from ``pickle.loads`` is a real bug.
DECODE_ERRORS = (
    pickle.PickleError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    TypeError,
)


# -- dependency references ---------------------------------------------------


def _dependency_ref(token: Any) -> Any:
    """Stand-in for an object a payload shares with a dependency result.

    Only :func:`decode_payload`, given the job's :class:`DependencyRefs`,
    resolves it; a plain ``pickle.loads`` of such a payload fails here
    instead of yielding a result detached from its inputs.
    """
    raise pickle.UnpicklingError(
        f"payload references dependency result {token!r}; decode it "
        "against its dependency results"
    )


class DependencyTable:
    """The shareable objects of one decoded dependency result.

    ``objects`` come from :func:`repro.runner.jobs.shared_objects`, in a
    fixed order; the token of ``objects[i]`` is ``(key, i)``.  Build one
    table per decoded result and reuse it for every job that depends on
    it.
    """

    __slots__ = ("key", "objects", "_tokens")

    def __init__(self, key: str, objects: Sequence[Any]):
        self.key = key
        self.objects = objects
        self._tokens: Optional[Dict[int, Tuple[str, int]]] = None

    @property
    def tokens(self) -> Dict[int, Tuple[str, int]]:
        """``id(object) -> token``; the objects pin their ids."""
        if self._tokens is None:
            key = self.key
            self._tokens = {
                id(obj): (key, index) for index, obj in enumerate(self.objects)
            }
        return self._tokens


class DependencyRefs:
    """The reference table of one job: its dependencies' tables.

    Tokens name the dependency's key, so a payload resolves only against
    the inputs it was written for.  Dependencies are taken in key order;
    an object reachable from two of them takes the first one's token.
    """

    def __init__(self, tables: Iterable[DependencyTable]):
        self._tables = {
            table.key: table
            for table in sorted(tables, key=lambda table: table.key)
        }
        self._tokens: Optional[Dict[int, Tuple[str, int]]] = None

    def __bool__(self) -> bool:
        return bool(self._tables)

    @property
    def tokens(self) -> Dict[int, Tuple[str, int]]:
        if self._tokens is None:
            tokens: Dict[int, Tuple[str, int]] = {}
            for table in reversed(self._tables.values()):
                tokens.update(table.tokens)
            self._tokens = tokens
        return self._tokens

    def resolve(self, token: Any) -> Any:
        try:
            key, index = token
            return self._tables[key].objects[index]
        except (KeyError, IndexError, TypeError, ValueError):
            raise pickle.UnpicklingError(
                f"unresolved dependency reference {token!r}"
            ) from None


class _RefPickler(pickle.Pickler):
    # Pickle offers only class instances, classes and functions to
    # ``reducer_override`` — never ints, floats, strs, bytes or the
    # built-in containers — so long value streams pickle at full speed,
    # and only class instances can become references.
    def __init__(self, file: io.BytesIO, tokens: Dict[int, Tuple[str, int]]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._tokens = tokens

    def reducer_override(self, obj: Any) -> Any:
        token = self._tokens.get(id(obj))
        if token is None:
            return NotImplemented
        return _dependency_ref, (token,)


class _RefUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, refs: DependencyRefs):
        super().__init__(file)
        self._refs = refs

    def find_class(self, module: str, name: str) -> Any:
        if module == __name__ and name == _dependency_ref.__name__:
            return self._refs.resolve
        return super().find_class(module, name)


def encode_payload(value: Any, refs: Optional[DependencyRefs] = None) -> bytes:
    """Pickle ``value``, writing objects shared with ``refs`` as references.

    A value that references nothing encodes to the plain pickle.
    """
    if not refs:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    buffer = io.BytesIO()
    _RefPickler(buffer, refs.tokens).dump(value)
    return buffer.getvalue()


def decode_payload(payload: bytes, refs: Optional[DependencyRefs] = None) -> Any:
    """Unpickle ``payload``, resolving its references against ``refs``."""
    if not refs:
        return pickle.loads(payload)
    return _RefUnpickler(io.BytesIO(payload), refs).load()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    """Aggregate view of a store plus this process's hit/miss counters."""

    root: str = ""
    entries: int = 0
    total_bytes: int = 0
    by_stage: Dict[str, int] = field(default_factory=dict)
    #: On-disk bytes per stage — traces and compilations dominate, and
    #: this is what says so without spelunking the shard directories.
    bytes_by_stage: Dict[str, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    #: Which backend produced these numbers (``disk``/``sqlite``/``http``).
    backend: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "root": self.root,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "by_stage": dict(sorted(self.by_stage.items())),
            "bytes_by_stage": dict(sorted(self.bytes_by_stage.items())),
            "session_hits": self.hits,
            "session_misses": self.misses,
        }

    def render(self) -> str:
        lines = []
        if self.backend:
            lines.append(f"backend:    {self.backend}")
        lines += [
            f"cache root: {self.root}",
            f"entries:    {self.entries} ({self.total_bytes / 1024:.1f} KiB)",
        ]
        for stage, count in sorted(self.by_stage.items()):
            size = self.bytes_by_stage.get(stage, 0)
            lines.append(f"  {stage:10s} {count} ({size / 1024:.1f} KiB)")
        lines.append(f"session:    {self.hits} hits / {self.misses} misses")
        return "\n".join(lines)


class CacheBackend:
    """Interface + shared encode/decode logic for result stores.

    Implementations provide the byte-level primitives
    (:meth:`load_bytes` / :meth:`store_bytes` / :meth:`evict` /
    :meth:`stats` / :meth:`clear`); the base class owns value
    (de)serialisation, hit/miss accounting, and the ``enabled=False``
    no-op mode that backs ``--no-cache``.

    ``shared=True`` marks backends that serve several processes or hosts
    at once — CLI maintenance (``repro-eval cache clear``) refuses to
    wipe those without ``--force``.
    """

    name = "backend"
    shared = False

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        # Session byte throughput, feeding the service telemetry layer
        # (``docs/OBSERVABILITY.md``): payload bytes decoded from and
        # encoded into this backend by this process.
        self.bytes_read = 0
        self.bytes_written = 0
        # The dependency results the codec references, per thread
        # (shared backends serve several worker threads at once).
        self._scope = threading.local()

    # -- value codec ---------------------------------------------------------

    @contextmanager
    def referencing(self, refs: Optional[DependencyRefs]) -> Iterator[None]:
        """Encode and decode against ``refs`` inside the block.

        The runner scopes each job's dependency table around ``get``,
        ``encode`` and ``decode``, so the :meth:`encode` / :meth:`decode`
        extension points keep their one-argument signatures.
        """
        previous = getattr(self._scope, "refs", None)
        self._scope.refs = refs
        try:
            yield
        finally:
            self._scope.refs = previous

    def encode(self, value: Any) -> bytes:
        return encode_payload(value, getattr(self._scope, "refs", None))

    def decode(self, payload: bytes) -> Any:
        return decode_payload(payload, getattr(self._scope, "refs", None))

    # -- operations ----------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; unreadable entries count as misses."""
        if not self.enabled:
            self.misses += 1
            return False, None
        payload = self.load_bytes(key)
        if payload is None:
            self.misses += 1
            return False, None
        self.bytes_read += len(payload)
        try:
            value = self.decode(payload)
        except DECODE_ERRORS:
            # Corrupt or stale-unreadable entry: evict it.
            self.evict(key)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(
        self, key: str, value: Any, manifest: Optional[Dict[str, Any]] = None
    ) -> Optional[bytes]:
        """Encode and store ``value``; return the payload (``None`` if disabled)."""
        if not self.enabled:
            return None
        payload = self.encode(value)
        self.put_payload(key, payload, manifest)
        return payload

    def put_payload(
        self, key: str, payload: bytes, manifest: Optional[Dict[str, Any]] = None
    ) -> None:
        """Store an encoded payload (a no-op if disabled)."""
        if not self.enabled:
            return
        self.bytes_written += len(payload)
        meta = {
            "key": key,
            "format_version": FORMAT_VERSION,
            "created": time.time(),
            "size_bytes": len(payload),
            **(manifest or {}),
        }
        self.store_bytes(key, payload, meta)

    def has(self, key: str) -> bool:
        """Whether an entry exists, without decoding it."""
        return self.load_bytes(key) is not None

    def telemetry(self) -> Dict[str, int]:
        """This process's session counters, keyed for the metrics layer."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "read_bytes": self.bytes_read,
            "written_bytes": self.bytes_written,
        }

    def describe(self) -> str:
        """One-line human identification (backend + location)."""
        return self.name

    # -- byte-level primitives (implementations) -----------------------------

    def load_bytes(self, key: str) -> Optional[bytes]:
        """The stored payload for ``key``, or ``None``.  Never raises."""
        raise NotImplementedError

    def store_bytes(self, key: str, payload: bytes, manifest: Dict[str, Any]) -> None:
        raise NotImplementedError

    def evict(self, key: str) -> None:
        """Best-effort removal of one entry."""

    def stats(self) -> CacheStats:
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every entry; return the count removed."""
        raise NotImplementedError


class DiskCache(CacheBackend):
    """Durable local pickle store addressed by job content hash.

    ``enabled=False`` turns every lookup into a miss and every store into
    a no-op, which lets callers thread one object through unconditionally
    (the ``--no-cache`` path).
    """

    name = "disk"

    def __init__(self, root: Optional[Path] = None, enabled: bool = True):
        super().__init__(enabled=enabled)
        self.root = Path(root) if root is not None else default_cache_dir()

    # -- paths --------------------------------------------------------------

    @property
    def store(self) -> Path:
        return self.root / f"v{FORMAT_VERSION}"

    def _paths(self, key: str) -> Tuple[Path, Path]:
        shard = self.store / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def describe(self) -> str:
        return f"disk ({self.root})"

    # -- byte-level primitives ----------------------------------------------

    def load_bytes(self, key: str) -> Optional[bytes]:
        pkl, _ = self._paths(key)
        try:
            return pkl.read_bytes()
        except OSError:
            return None

    def has(self, key: str) -> bool:
        return self._paths(key)[0].exists()

    def store_bytes(self, key: str, payload: bytes, manifest: Dict[str, Any]) -> None:
        pkl, manifest_path = self._paths(key)
        self._atomic_write(pkl, payload)
        self._atomic_write(
            manifest_path, (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        )

    def evict(self, key: str) -> None:
        for path in self._paths(key):
            try:
                path.unlink()
            except OSError:
                pass

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        """Last-writer-wins atomic replace, safe under concurrent writers.

        Two writers racing on the same key each stage a unique temporary
        file and ``os.replace`` it over the destination — the second
        simply overwrites the first's (identical) entry.  A concurrent
        ``clear()`` can yank the shard directory out from under either
        step; both spots retry once after recreating it, and if the
        directory is lost twice the write is dropped (the entry was
        being deleted anyway).  A replace refused by the OS while a
        complete entry exists means another writer won: noop.
        """
        for _ in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=path.parent, prefix=path.name, suffix=".tmp"
                )
            except FileNotFoundError:
                continue  # shard removed between mkdir and mkstemp
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
                return
            except FileNotFoundError:
                _unlink_quietly(tmp)
                continue  # shard removed under the replace; retry
            except OSError:
                _unlink_quietly(tmp)
                if path.exists():
                    return  # a concurrent writer already won this key
                raise
            except BaseException:
                _unlink_quietly(tmp)
                raise

    def stats(self) -> CacheStats:
        stats = CacheStats(
            root=str(self.root),
            hits=self.hits,
            misses=self.misses,
            backend=self.name,
        )
        if not self.store.is_dir():
            return stats
        for manifest_path in self.store.glob("*/*.json"):
            pkl = manifest_path.with_suffix(".pkl")
            if not pkl.exists():
                continue
            stats.entries += 1
            size = pkl.stat().st_size
            stats.total_bytes += size
            try:
                meta = json.loads(manifest_path.read_text())
                stage = str(meta.get("stage", "unknown"))
            except (OSError, json.JSONDecodeError):
                stage = "unknown"
            stats.by_stage[stage] = stats.by_stage.get(stage, 0) + 1
            stats.bytes_by_stage[stage] = (
                stats.bytes_by_stage.get(stage, 0) + size
            )
        return stats

    def clear(self) -> int:
        """Delete every entry of the current format version; return the count."""
        removed = 0
        if not self.store.is_dir():
            return removed
        for pkl in self.store.glob("*/*.pkl"):
            try:
                pkl.unlink()
                removed += 1
            except OSError:
                pass
            sidecar = pkl.with_suffix(".json")
            try:
                sidecar.unlink()
            except OSError:
                pass
        for shard in self.store.glob("*"):
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
