"""Persistent prefix-KV-cache store with longest-prefix matching.

No real model runs here, so blob bytes are synthesized as a keyed
deterministic stream: each token position contributes one fixed-size block
derived by hash expansion from (geometry name, token id, position).  That
preserves the one structural property cache-reuse correctness depends on —
the blob of a prefix is a byte-prefix of the blob of any extension — making
reuse testable without weights.

Every key shares the agent's long static prompt head, so the store works
per entry and per token run, never per token of that head: `precompute`
walks the keys of all tag groups in one sorted running stream (each
distinct block synthesized once) and publishes the manifest once; opening
a store hashes no key; matching walks a radix tree of token runs, built at
the first match, comparing each edge as one slice.

Layout on disk:
  <root>/manifest.json          entry table + geometry, swapped atomically
  <root>/blobs/<keyhash>.kv     16-byte magic/version header, geometry
                                descriptor, then the raw KV byte stream

Concurrent readers are safe; `precompute` is the single writer and only
publishes by replacing the manifest, so readers never observe a torn store.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import shapes
from .tokenizer import sequence_hash

MAGIC = b"AGENTKVCACHE"  # 12 bytes; followed by a 4-byte version field
VERSION = 1

TAG_STATIC = "static"
TAG_CLUSTER_COMBINATION = "cluster_combination"
TAG_ARBITER_STATIC = "arbiter_static"
_TAGS = (TAG_STATIC, TAG_CLUSTER_COMBINATION, TAG_ARBITER_STATIC)


class StoreError(RuntimeError):
    pass


class IntegrityError(StoreError):
    """Blob missing, truncated, or failing its checksum."""


@dataclass(frozen=True)
class ModelGeometry:
    """Shape facts needed for KV byte accounting and latency modeling."""

    name: str
    layers: int
    kv_heads: int
    head_dim: int
    bytes_per_element: int
    params_bytes: int

    def __post_init__(self):
        for f in ("layers", "kv_heads", "head_dim", "params_bytes"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")
        if self.bytes_per_element not in (2, 4):
            raise ValueError("bytes_per_element must be 2 or 4")

    @property
    def kv_bytes_per_token(self) -> int:
        # keys and values, per layer, per kv head
        return self.layers * 2 * self.kv_heads * self.head_dim * self.bytes_per_element

    @property
    def params(self) -> int:
        """Parameter count, assuming weights share the cache element width."""
        return self.params_bytes // self.bytes_per_element

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc, where: str = "geometry", error=ValueError) -> "ModelGeometry":
        """The geometry of a `to_dict` document; a document of another shape raises `error` naming `where`."""
        shapes.check(doc, _GEOMETRY, where, error)
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


_GEOMETRY = shapes.Object({f.name: shapes.STR if f.name == "name" else shapes.INT for f in fields(ModelGeometry)})


def kv_size(token_count: int, geometry: ModelGeometry) -> int:
    """Bytes of KV cache a `token_count`-token prefix occupies."""
    if token_count < 0:
        raise ValueError("token_count must be non-negative")
    return token_count * geometry.kv_bytes_per_token


def _common_head(a: tuple, b: tuple) -> int:
    """Number of leading tokens `a` and `b` share, bisected over slice equality (compared in C)."""
    lo, hi = 0, min(len(a), len(b)) + 1  # a[:lo] == b[:lo]; a[:hi] != b[:hi], or hi is past the end
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if a[lo:mid] == b[lo:mid] else (lo, mid)
    return lo


def _token_block(geometry: ModelGeometry, token: int, position: int) -> bytes:
    """Deterministic pseudo-KV bytes for one token position."""
    size = geometry.kv_bytes_per_token
    out = bytearray()
    counter = 0
    seed = f"{geometry.name}|{token}|{position}".encode()
    while len(out) < size:
        out.extend(hashlib.sha256(seed + b"|" + str(counter).encode()).digest())
        counter += 1
    return bytes(out[:size])


def prefix_blob(prefix, geometry: ModelGeometry) -> bytes:
    """The full synthetic KV stream for a token prefix.

    Pure function of (geometry, prefix); by construction the stream for a
    prefix is a byte-prefix of the stream for any extension of it.
    """
    return b"".join(_token_block(geometry, tok, pos) for pos, tok in enumerate(prefix))


def _blob_file_bytes(stream, geometry: ModelGeometry) -> bytes:
    header = MAGIC + VERSION.to_bytes(4, "little")
    descriptor = json.dumps(geometry.to_dict(), sort_keys=True).encode()
    return header + len(descriptor).to_bytes(4, "little") + descriptor + stream


def _split_blob_file(raw: bytes) -> bytes:
    if len(raw) < 20 or raw[:12] != MAGIC:
        raise IntegrityError("bad blob header")
    version = int.from_bytes(raw[12:16], "little")
    if version != VERSION:
        raise IntegrityError(f"unsupported blob version {version}")
    desc_len = int.from_bytes(raw[16:20], "little")
    return raw[20 + desc_len:]


@dataclass(frozen=True)
class CacheEntry:
    key: tuple[int, ...]
    token_count: int
    byte_size: int
    tag: str
    blob_name: str
    checksum: str


_TAG = shapes.Check(shapes.STR, lambda tag: tag in _TAGS, f"one of {', '.join(_TAGS)}")
_ENTRY_STRINGS = dict.fromkeys(("key_hash", "blob", "checksum"), shapes.STR)
_ENTRY = shapes.Object({**_ENTRY_STRINGS, "key": shapes.TOKEN_IDS, "token_count": shapes.INT, "byte_size": shapes.INT, "tag": _TAG})
_MANIFEST = shapes.Object({"geometry": shapes.OBJECT, "entries": shapes.ListOf(_ENTRY)})


class _RadixNode:
    __slots__ = ("children", "best")

    def __init__(self, best: CacheEntry | None):
        # first token of an edge -> (the edge's token run, the node it ends at)
        self.children: dict[int, tuple[tuple[int, ...], _RadixNode]] = {}
        # Entry with the shortest (then lexicographically smallest) key whose
        # path passes through the edge into this node; serving it
        # tail-truncated wastes the least loaded data.
        self.best = best


class KVStore:
    """A directory-backed store of precomputed prefix KV blobs."""

    def __init__(self, root):
        self.root = Path(root)
        self.geometry: ModelGeometry | None = None
        self.entries: dict[str, CacheEntry] = {}
        # Built from `entries` at the first match; None whenever they change.
        self._index: _RadixNode | None = None
        self._index_lock = threading.Lock()
        if self.manifest_path.exists():
            self._load_manifest()

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def blob_dir(self) -> Path:
        return self.root / "blobs"

    @property
    def total_bytes(self) -> int:
        return sum(e.byte_size for e in self.entries.values())

    def _load_manifest(self):
        where = f"manifest {self.manifest_path}"
        doc = shapes.load_json(self.manifest_path, shapes.OBJECT, where, StoreError)
        version = doc.get("version")
        if shapes.INT.misfit(version) or version != VERSION:
            raise StoreError(f"{where} has format version {version!r}, not {VERSION}: re-run precompute-cache into an empty directory")
        shapes.check(doc, _MANIFEST, where, StoreError)
        try:
            self.geometry = ModelGeometry.from_dict(doc["geometry"], f"{where} geometry", StoreError)
        except ValueError as exc:
            raise StoreError(f"{where} geometry: {exc}") from exc
        for i, rec in enumerate(doc["entries"]):
            if rec["token_count"] != len(rec["key"]):
                raise StoreError(f"{where}: entries[{i}].token_count has the wrong value, expected the length of key")
            if rec["byte_size"] != kv_size(rec["token_count"], self.geometry):
                raise StoreError(f"{where}: entries[{i}].byte_size has the wrong value, expected the KV size of token_count tokens")
            self.entries[rec["key_hash"]] = CacheEntry(
                tuple(rec["key"]), rec["token_count"], rec["byte_size"], rec["tag"], rec["blob"], rec["checksum"]
            )

    def _build_index(self) -> _RadixNode:
        # Shortest (then smallest) key first: the first entry to reach a node
        # is the one it serves, and a node split off an edge serves what the
        # edge's end served.  Matches read `_index` without the lock, so the
        # root is published only once it is complete; the lock keeps
        # concurrent first matches from each building their own.
        with self._index_lock:
            if self._index is not None:
                return self._index
            root = _RadixNode(None)
            for entry in sorted(self.entries.values(), key=lambda e: (e.token_count, e.key)):
                key, node, depth = entry.key, root, 0
                while depth < len(key):
                    edge = node.children.get(key[depth])
                    if edge is None:
                        node.children[key[depth]] = (key[depth:], _RadixNode(entry))
                        break
                    run, child = edge
                    head = _common_head(run, key[depth : depth + len(run)])
                    if head < len(run):
                        mid = _RadixNode(child.best)
                        mid.children[run[head]] = (run[head:], child)
                        node.children[key[depth]] = (run[:head], mid)
                        child = mid
                    node, depth = child, depth + head
            self._index = root
            return root

    def precompute(self, groups: dict[str, list], geometry: ModelGeometry) -> list[CacheEntry]:
        """Persist one entry per distinct prefix of each `{tag: prefixes}` group; idempotent.

        Merges into the existing store; a key stored before, or in two
        groups, takes the later tag.  Returns each group's entries for its
        distinct prefixes, in input order.  Blobs are written before the
        manifest is atomically replaced, once, so a failure mid-way leaves
        the published store unchanged.
        """
        order: list[tuple[tuple[int, ...], str]] = []  # (key, tag): each group's distinct keys
        for tag, prefixes in groups.items():
            keys = dict.fromkeys(map(tuple, prefixes))
            if tag not in _TAGS or not keys or not all(keys):
                raise ValueError(f"tag group '{tag}' must be a known tag with at least one prefix, none empty")
            order += [(key, tag) for key in keys]
        if not order:
            raise ValueError("precompute requires at least one tag group")
        if self.geometry is not None and geometry != self.geometry:
            raise StoreError("store already holds blobs for a different geometry")

        self.blob_dir.mkdir(parents=True, exist_ok=True)
        # In sorted order a key's longest common head with any earlier key is
        # its head with its predecessor, so one running stream, cut back to
        # that head and extended, synthesizes each shared block once.
        block = geometry.kv_bytes_per_token
        stream = bytearray()
        previous: tuple[int, ...] = ()
        blobs = {}  # key -> (key hash, blob file checksum)
        for prefix in sorted({key for key, _ in order}):
            head = _common_head(previous, prefix)
            del stream[head * block:]
            for pos in range(head, len(prefix)):
                stream += _token_block(geometry, prefix[pos], pos)
            previous = prefix
            khash = sequence_hash(prefix)
            raw = _blob_file_bytes(stream, geometry)
            (self.blob_dir / f"{khash}.kv").write_bytes(raw)
            blobs[prefix] = khash, hashlib.sha256(raw).hexdigest()

        created, new_entries = [], dict(self.entries)
        for key, tag in order:
            khash, checksum = blobs[key]
            new_entries[khash] = CacheEntry(key, len(key), kv_size(len(key), geometry), tag, f"{khash}.kv", checksum)
            created.append(new_entries[khash])
        self._write_manifest(geometry, new_entries)
        self.geometry = geometry
        self.entries = new_entries
        self._index = None
        return created

    def _write_manifest(self, geometry: ModelGeometry, entries: dict[str, CacheEntry]):
        doc = {
            "version": VERSION,
            "geometry": geometry.to_dict(),
            "entries": [
                {
                    "key_hash": khash,
                    "key": list(e.key),
                    "token_count": e.token_count,
                    "byte_size": e.byte_size,
                    "tag": e.tag,
                    "blob": e.blob_name,
                    "checksum": e.checksum,
                }
                for khash, e in sorted(entries.items())
            ],
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        self.root.mkdir(parents=True, exist_ok=True)
        # Compact separators keep json's C encoder; `indent` would not.
        tmp.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, self.manifest_path)

    def longest_cached_prefix(self, prompt) -> tuple[CacheEntry | None, int]:
        """Entry and token count of the best reusable prefix for `prompt`.

        An entry covers min(len(entry.key), first-mismatch position) leading
        tokens of the prompt: reuse halts at the first token mismatch, but an
        entry longer than the match still serves its matching head with the
        tail cut off.  Returns (None, 0) when nothing matches.
        """
        node = self._index or self._build_index()
        prompt = tuple(prompt)
        depth = 0
        while depth < len(prompt):
            edge = node.children.get(prompt[depth])
            if edge is None:
                break
            run, child = edge
            end = depth + len(run)
            if prompt[depth:end] != run:
                # Every key through this edge runs to its end, so the entry
                # served inside it is the one served at its end.
                return child.best, depth + _common_head(run, prompt[depth:end])
            node, depth = child, end
        return node.best, depth

    def load_blob(self, entry: CacheEntry) -> bytes:
        """The persisted KV stream for `entry`, verified against its checksum."""
        path = self.blob_dir / entry.blob_name
        if not path.exists():
            raise IntegrityError(f"blob {entry.blob_name} missing")
        raw = path.read_bytes()
        if hashlib.sha256(raw).hexdigest() != entry.checksum:
            raise IntegrityError(f"blob {entry.blob_name} failed checksum")
        stream = _split_blob_file(raw)
        if len(stream) != entry.byte_size:
            raise IntegrityError(f"blob {entry.blob_name} has wrong payload size")
        return stream
