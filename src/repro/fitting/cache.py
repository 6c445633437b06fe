"""Content-addressed fit cache.

Fitting is pure: the optimum is a deterministic function of the model
family, the curve, and the fit configuration. The experiment grids
(Tables I–IV, truncation sweeps, report pipelines) nevertheless re-solve
identical ``(family, curve, config)`` triples over and over. This module
memoizes those solves behind a content address:

* **family fingerprint** — :meth:`ResilienceModel.fingerprint` (class,
  name, parameter metadata, bounds);
* **curve hash** — SHA-256 over the exact time/performance bytes and
  the nominal level;
* **fit config** — every knob that can change the optimum (starts,
  seeds, budgets, weights, Jacobian mode).

Because the key covers *everything* that determines the result, a cache
hit is bit-identical to a recompute — the cache is a performance knob,
never a correctness knob.

The default cache is an in-memory LRU. Setting ``REPRO_FIT_CACHE`` to a
path adds a JSON store so fits persist across processes::

    export REPRO_FIT_CACHE=~/.cache/repro-fits.json   # persist to disk
    export REPRO_FIT_CACHE=off                        # disable entirely

(CLI equivalents: ``--cache`` / ``--no-cache``.)
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro._env import read_env
from repro.core.curve import ResilienceCurve
from repro.exceptions import FitError
from repro.models.base import ResilienceModel

__all__ = [
    "FitCache",
    "fit_cache_key",
    "curve_content_hash",
    "default_fit_cache",
    "default_cache_maxsize",
    "resolve_cache",
]

logger = logging.getLogger("repro.fitting.cache")

#: Environment variable controlling the default cache: unset → in-memory
#: LRU; a path → in-memory LRU backed by a JSON store at that path; one
#: of the off-words → caching disabled.
CACHE_ENV_VAR = "REPRO_FIT_CACHE"

#: Values of :data:`CACHE_ENV_VAR` that disable the default cache.
_OFF_WORDS = frozenset({"0", "off", "no", "none", "false", "disabled"})

#: Environment variable overriding the default cache's LRU capacity.
MAXSIZE_ENV_VAR = "REPRO_FIT_CACHE_MAXSIZE"

#: Default in-memory capacity. Every entry is a handful of floats, so
#: this comfortably covers the full reproduction pipeline several times
#: over while bounding long-lived processes.
DEFAULT_MAX_ENTRIES = 4096


def default_cache_maxsize() -> int:
    """The default cache capacity per :data:`MAXSIZE_ENV_VAR`.

    Unset or empty → :data:`DEFAULT_MAX_ENTRIES`. Anything else must
    parse as a positive integer.

    Raises
    ------
    FitError
        If the variable is set but is not a positive integer.
    """
    raw = read_env(MAXSIZE_ENV_VAR, "") or ""
    value = raw.strip()
    if not value:
        return DEFAULT_MAX_ENTRIES
    try:
        size = int(value)
    except ValueError as exc:
        raise FitError(
            f"{MAXSIZE_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from exc
    if size < 1:
        raise FitError(
            f"{MAXSIZE_ENV_VAR} must be a positive integer, got {raw!r}"
        )
    return size


def curve_content_hash(curve: ResilienceCurve) -> str:
    """SHA-256 content address of a curve's numeric payload.

    Hashes the exact float64 bytes of times and performance plus the
    nominal level — name and metadata are provenance, not content, and
    are deliberately excluded so renamed copies of the same data share
    cache entries.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(curve.times, dtype=np.float64).tobytes())
    digest.update(
        np.ascontiguousarray(curve.performance, dtype=np.float64).tobytes()
    )
    digest.update(repr(float(curve.nominal)).encode())
    return digest.hexdigest()


def fit_cache_key(
    family: ResilienceModel,
    curve: ResilienceCurve,
    config: Mapping[str, Any],
) -> str:
    """Content address of one fit: family fingerprint ⊕ curve hash ⊕
    canonicalized fit config."""
    config_blob = json.dumps(
        {k: _canonical(v) for k, v in sorted(config.items())},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256()
    digest.update(family.fingerprint().encode())
    digest.update(b"\x00")
    digest.update(curve_content_hash(curve).encode())
    digest.update(b"\x00")
    digest.update(config_blob.encode())
    return digest.hexdigest()


def _canonical(value: Any) -> Any:
    """JSON-stable form of a config value (tuples → lists, floats via
    repr so -0.0/precision round-trip exactly)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_canonical(float(v)) for v in value.ravel()]
    return repr(value)


class FitCache:
    """Thread-safe LRU of fit outcomes, optionally persisted to JSON.

    Parameters
    ----------
    max_entries:
        In-memory capacity; least-recently-used entries are evicted.
    path:
        Optional JSON file. Existing entries are loaded on first use and
        every :meth:`put` writes through, so concurrent *processes* see
        each other's fits (last writer wins; the payloads are
        content-addressed, so collisions are harmless).

    Entries are plain dicts (parameter vector, SSE, convergence
    bookkeeping) rather than :class:`~repro.fitting.result.FitResult`
    objects — the caller re-binds the family, keeping the store JSON
    serializable and immune to pickle drift.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        path: str | os.PathLike | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.path = Path(path) if path is not None else None
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self._loaded = self.path is None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Core mapping operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The stored record for *key*, or None; refreshes LRU order."""
        with self._lock:
            self._ensure_loaded()
            record = self._entries.get(key)
            if record is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return dict(record)

    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Store *record* under *key*, evicting LRU overflow and writing
        through to the JSON store when one is configured."""
        with self._lock:
            self._ensure_loaded()
            self._entries[key] = dict(record)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            if self.path is not None:
                self._write_disk()

    def clear(self) -> None:
        """Drop every entry (and the JSON store's contents)."""
        with self._lock:
            self._entries.clear()
            self._loaded = self.path is None
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            if self.path is not None and self.path.exists():
                try:
                    self.path.unlink()
                except OSError:  # pragma: no cover - permission races
                    logger.warning("fit cache: could not remove %s", self.path)
                self._loaded = True

    def __len__(self) -> int:
        with self._lock:
            self._ensure_loaded()
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            self._ensure_loaded()
            return key in self._entries

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction/size counters (for benchmarks, traces, and
        debugging). Taken under the cache lock, so ``hits + misses``
        equals the total number of :meth:`get` calls even while other
        threads are mid-lookup."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }

    # ------------------------------------------------------------------
    # Disk store
    # ------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        assert self.path is not None
        try:
            payload = json.loads(self.path.read_text())
        except FileNotFoundError:
            return
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning(
                "fit cache: ignoring unreadable store %s (%s)", self.path, exc
            )
            return
        entries = payload.get("entries", {}) if isinstance(payload, dict) else {}
        for key, record in entries.items():
            if isinstance(record, dict):
                self._entries[key] = record
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _write_disk(self) -> None:
        assert self.path is not None
        payload = {"version": 1, "entries": dict(self._entries)}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(json.dumps(payload, separators=(",", ":")))
            tmp.replace(self.path)
        except OSError as exc:  # pragma: no cover - disk-full/readonly races
            logger.warning("fit cache: could not persist to %s (%s)", self.path, exc)


# ----------------------------------------------------------------------
# Default-cache resolution
# ----------------------------------------------------------------------
_default_cache: FitCache | None = None
_default_signature: tuple[str, str] | None = None
_default_lock = threading.Lock()


def default_fit_cache() -> FitCache | None:
    """The process-wide default cache per :data:`CACHE_ENV_VAR` and
    :data:`MAXSIZE_ENV_VAR`.

    Returns None when the environment disables caching. The instance is
    rebuilt if either environment variable changes between calls (tests
    monkeypatch them).
    """
    global _default_cache, _default_signature
    raw = read_env(CACHE_ENV_VAR, "") or ""
    raw_maxsize = read_env(MAXSIZE_ENV_VAR, "") or ""
    with _default_lock:
        if (raw, raw_maxsize) == _default_signature and (
            _default_cache is not None or raw.strip().lower() in _OFF_WORDS
        ):
            return _default_cache
        _default_signature = (raw, raw_maxsize)
        value = raw.strip()
        if value.lower() in _OFF_WORDS:
            _default_cache = None
        elif value:
            _default_cache = FitCache(
                max_entries=default_cache_maxsize(),
                path=os.path.expanduser(value),
            )
        else:
            _default_cache = FitCache(max_entries=default_cache_maxsize())
        return _default_cache


def resolve_cache(spec: "bool | FitCache | None") -> FitCache | None:
    """Map an ``EngineOptions.cache`` value onto a concrete cache (or None).

    ``None``/``True`` → the environment-configured default; ``False`` →
    no caching; a :class:`FitCache` instance → itself.
    """
    if spec is False:
        return None
    if spec is None or spec is True:
        return default_fit_cache()
    if isinstance(spec, FitCache):
        return spec
    raise TypeError(
        f"cache must be a bool, None, or FitCache, got {type(spec).__name__}"
    )
