"""Persistent prefix-KV-cache store with longest-prefix matching.

No real model runs here, so blob bytes are synthesized as a keyed
deterministic stream: each token position contributes one fixed-size block
derived by hash expansion from (geometry name, token id, position).  That
preserves the one structural property cache-reuse correctness depends on —
the blob of a prefix is a byte-prefix of the blob of any extension — making
reuse testable without weights.

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
from dataclasses import dataclass
from pathlib import Path

from .tokenizer import is_token_ids, sequence_hash

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
        return {
            "name": self.name,
            "layers": self.layers,
            "kv_heads": self.kv_heads,
            "head_dim": self.head_dim,
            "bytes_per_element": self.bytes_per_element,
            "params_bytes": self.params_bytes,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelGeometry":
        return cls(**{k: doc[k] for k in ("name", "layers", "kv_heads", "head_dim", "bytes_per_element", "params_bytes")})


def kv_size(token_count: int, geometry: ModelGeometry) -> int:
    """Bytes of KV cache a `token_count`-token prefix occupies."""
    if token_count < 0:
        raise ValueError("token_count must be non-negative")
    return token_count * geometry.kv_bytes_per_token


def _common_head(a, b) -> int:
    """Number of leading tokens `a` and `b` share."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


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

    @property
    def key_hash(self) -> str:
        return sequence_hash(self.key)


def _entry_error(rec: dict, geometry: ModelGeometry) -> tuple[str, str] | None:
    """The first field of one manifest entry that is wrong, and what it must be."""
    if not is_token_ids(rec["key"]):
        return "key", "a list of token ids"
    if type(rec["token_count"]) is not int or rec["token_count"] != len(rec["key"]):
        return "token_count", "the length of key"
    if type(rec["byte_size"]) is not int or rec["byte_size"] != kv_size(rec["token_count"], geometry):
        return "byte_size", "the KV size of token_count tokens"
    if rec["tag"] not in _TAGS:
        return "tag", f"one of {', '.join(_TAGS)}"
    for field in ("blob", "checksum"):
        if not isinstance(rec[field], str):
            return field, "a string"
    return None


class _TrieNode:
    __slots__ = ("children", "best")

    def __init__(self):
        self.children: dict[int, _TrieNode] = {}
        # Entry with the shortest (then lexicographically smallest) key whose
        # path passes through this node; serving it tail-truncated wastes the
        # least loaded data.
        self.best: CacheEntry | None = None


class KVStore:
    """A directory-backed store of precomputed prefix KV blobs."""

    def __init__(self, root):
        self.root = Path(root)
        self.geometry: ModelGeometry | None = None
        self.entries: dict[str, CacheEntry] = {}
        # Built from `entries` at the first match; None whenever they change.
        self._trie: _TrieNode | None = None
        self._trie_lock = threading.Lock()
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
        doc = json.loads(self.manifest_path.read_text())
        if not isinstance(doc, dict):
            raise StoreError(f"{where} is not a JSON object")
        try:
            if not isinstance(doc["geometry"], dict):
                raise StoreError(f"{where}: 'geometry' is not an object")
            if not isinstance(doc["entries"], list):
                raise StoreError(f"{where}: 'entries' is not a list")
            self.geometry = ModelGeometry.from_dict(doc["geometry"])
            for i, rec in enumerate(doc["entries"]):
                if not isinstance(rec, dict):
                    raise StoreError(f"{where}: entries[{i}] is not an object")
                error = _entry_error(rec, self.geometry)
                if error is not None:
                    field, expected = error
                    raise StoreError(f"{where}: entries[{i}].{field} has the wrong type or value, expected {expected}")
                entry = CacheEntry(
                    key=tuple(rec["key"]),
                    token_count=rec["token_count"],
                    byte_size=rec["byte_size"],
                    tag=rec["tag"],
                    blob_name=rec["blob"],
                    checksum=rec["checksum"],
                )
                self.entries[entry.key_hash] = entry
        except KeyError as exc:
            raise StoreError(f"{where} is missing field {exc}") from exc
        except TypeError as exc:
            raise StoreError(f"{where} has a field of the wrong type: {exc}") from exc

    def _rebuild_trie(self) -> _TrieNode:
        # Shortest (then smallest) key first: the first entry to reach a node
        # is the one that node serves.  Matches read `_trie` without the lock,
        # so the root is published only once it is complete; the lock keeps
        # concurrent first matches from each building their own.
        with self._trie_lock:
            if self._trie is not None:
                return self._trie
            root = _TrieNode()
            for entry in sorted(self.entries.values(), key=lambda e: (e.token_count, e.key)):
                node = root
                node.best = node.best or entry
                for tok in entry.key:
                    child = node.children.get(tok)
                    if child is None:  # setdefault would allocate a node per token
                        child = node.children[tok] = _TrieNode()
                    node = child
                    node.best = node.best or entry
            self._trie = root
            return root

    def precompute(self, prefixes, geometry: ModelGeometry, tag: str = TAG_STATIC) -> list[CacheEntry]:
        """Persist one entry per distinct prefix; idempotent.

        Merges into the existing store (same-key entries are overwritten
        identically).  Blobs are written before the manifest is atomically
        replaced, so a failure mid-way leaves the published store unchanged.
        """
        prefixes = [tuple(p) for p in prefixes]
        if not prefixes:
            raise ValueError("precompute requires at least one prefix")
        if any(len(p) == 0 for p in prefixes):
            raise ValueError("prefixes must be non-empty token sequences")
        if tag not in _TAGS:
            raise ValueError(f"unknown tag '{tag}'")
        if self.geometry is not None and geometry != self.geometry:
            raise StoreError("store already holds blobs for a different geometry")

        self.blob_dir.mkdir(parents=True, exist_ok=True)
        unique = list(dict.fromkeys(prefixes))  # dedup, first occurrence wins
        # In sorted order a key's longest common head with any earlier key is
        # its head with its predecessor, so one running stream, cut back to
        # that head and extended, synthesizes each shared block once.
        block = geometry.kv_bytes_per_token
        stream = bytearray()
        previous: tuple[int, ...] = ()
        made = {}
        for prefix in sorted(unique):
            head = _common_head(previous, prefix)
            del stream[head * block:]
            for pos in range(head, len(prefix)):
                stream += _token_block(geometry, prefix[pos], pos)
            previous = prefix
            khash = sequence_hash(prefix)
            raw = _blob_file_bytes(stream, geometry)
            blob_name = f"{khash}.kv"
            made[prefix] = CacheEntry(
                key=prefix,
                token_count=len(prefix),
                byte_size=kv_size(len(prefix), geometry),
                tag=tag,
                blob_name=blob_name,
                checksum=hashlib.sha256(raw).hexdigest(),
            )
            (self.blob_dir / blob_name).write_bytes(raw)

        created = [made[prefix] for prefix in unique]
        new_entries = dict(self.entries)
        new_entries.update((entry.key_hash, entry) for entry in created)
        self._write_manifest(geometry, new_entries)
        self.geometry = geometry
        self.entries = new_entries
        self._trie = None
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
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, self.manifest_path)

    def longest_cached_prefix(self, prompt) -> tuple[CacheEntry | None, int]:
        """Entry and token count of the best reusable prefix for `prompt`.

        An entry covers min(len(entry.key), first-mismatch position) leading
        tokens of the prompt: reuse halts at the first token mismatch, but an
        entry longer than the match still serves its matching head with the
        tail cut off.  Returns (None, 0) when nothing matches.
        """
        node = self._trie or self._rebuild_trie()
        depth = 0
        best_node = None
        for tok in prompt:
            child = node.children.get(tok)
            if child is None:
                break
            node = child
            depth += 1
            best_node = node
        if best_node is None or best_node.best is None:
            return None, 0
        return best_node.best, depth

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
