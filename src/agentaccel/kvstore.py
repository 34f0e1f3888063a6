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
distinct block synthesized and hashed once) and publishes the manifest
once; opening a store hashes no key; matching walks a radix tree of token
runs, built at the first match, comparing each edge as one slice; a head
shared by many prompts is walked once (`resolve`), and their matches
continue below it.

Layout on disk:
  <root>/manifest.json          entry table + geometry, swapped atomically
  <root>/blobs/<keyhash>.kv     16-byte magic/version header, geometry
                                descriptor, then the raw KV byte stream

Concurrent readers are safe; `precompute` is the single writer and only
publishes by replacing the manifest, so readers never observe a torn store.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import shapes

MAGIC = b"AGENTKVCACHE"  # 12 bytes; followed by a 4-byte version field
VERSION = 1

TAG_STATIC = "static"
TAG_CLUSTER_COMBINATION = "cluster_combination"  # a cached tool set: static head, cluster run, single-tool examples
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


def common_head(a: tuple, b: tuple) -> int:
    """Number of leading tokens `a` and `b` share, bisected over slice equality (compared in C)."""
    lo, hi = 0, min(len(a), len(b)) + 1  # a[:lo] == b[:lo]; a[:hi] != b[:hi], or hi is past the end
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if a[lo:mid] == b[lo:mid] else (lo, mid)
    return lo


@functools.lru_cache(maxsize=None)
def _counter_suffixes(size: int) -> tuple[bytes, ...]:
    """The `|<counter>` suffix of each sha256 digest a `size`-byte block is expanded from."""
    return tuple(b"|%d" % counter for counter in range(-(-size // hashlib.sha256().digest_size)))


def _token_block(geometry: ModelGeometry, token: int, position: int) -> bytes:
    """Deterministic pseudo-KV bytes for one token position."""
    size = geometry.kv_bytes_per_token
    seed = f"{geometry.name}|{token}|{position}".encode()
    return b"".join([hashlib.sha256(seed + suffix).digest() for suffix in _counter_suffixes(size)])[:size]


def prefix_blob(prefix, geometry: ModelGeometry) -> bytes:
    """The full synthetic KV stream for a token prefix.

    Pure function of (geometry, prefix); by construction the stream for a
    prefix is a byte-prefix of the stream for any extension of it.
    """
    return b"".join(_token_block(geometry, tok, pos) for pos, tok in enumerate(prefix))


def _blob_header(geometry: ModelGeometry) -> bytes:
    """What a blob file holds ahead of its KV stream: magic, version and geometry descriptor."""
    descriptor = json.dumps(geometry.to_dict(), sort_keys=True).encode()
    return MAGIC + VERSION.to_bytes(4, "little") + len(descriptor).to_bytes(4, "little") + descriptor


def _blob_file_bytes(stream, geometry: ModelGeometry) -> bytes:
    """A blob file's bytes as one object; `precompute` writes the two parts without joining them."""
    return _blob_header(geometry) + stream


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


def _descend(node: _RadixNode, tokens: tuple, depth: int):
    """Follow `tokens` from `node`, at `depth`, down every edge they match whole.

    Returns the last node reached, its depth, and the match: the entry
    served and how many leading tokens it covers.
    """
    while depth < len(tokens):
        edge = node.children.get(tokens[depth])
        if edge is None:
            break
        run, child = edge
        end = depth + len(run)
        if tokens[depth:end] != run:
            # Every key through this edge runs to its end, so the entry
            # served inside it is the one served at its end.
            return node, depth, (child.best, depth + common_head(run, tokens[depth:end]))
        node, depth = child, end
    return node, depth, (node.best, depth)


@dataclass(frozen=True)
class ResolvedHead:
    """Where `head` leaves the radix tree `index` (see `KVStore.resolve`)."""

    index: _RadixNode
    head: tuple[int, ...]
    node: _RadixNode  # the deepest node `head` reaches through whole edges, at `depth`
    depth: int
    served: tuple[CacheEntry | None, int] | None  # the match of every prompt opening with `head`, if no tail changes it


class KVStore:
    """A directory-backed store of precomputed prefix KV blobs."""

    def __init__(self, root):
        self.root = Path(root)
        self.geometry: ModelGeometry | None = None
        self.entries: dict[str, CacheEntry] = {}
        # Built from `entries` at the first match; None whenever they change.
        self._index: _RadixNode | None = None
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
        """The radix tree of `entries`, kept as `_index` until they change."""
        # Shortest (then smallest) key first: the first entry to reach a node
        # is the one it serves, and a node split off an edge serves what the
        # edge's end served.
        root = _RadixNode(None)
        for entry in sorted(self.entries.values(), key=lambda e: (e.token_count, e.key)):
            key = entry.key
            node, depth, (_, shared) = _descend(root, key, 0)
            if shared > depth:  # the key leaves the edge on key[depth] inside it: split it there
                run, child = node.children[key[depth]]
                mid = _RadixNode(child.best)
                mid.children[run[shared - depth]] = (run[shared - depth:], child)
                node.children[key[depth]] = (run[: shared - depth], mid)
                node, depth = mid, shared
            if depth < len(key):
                node.children[key[depth]] = (key[depth:], _RadixNode(entry))
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
        # that head and extended, synthesizes each shared block once.  The
        # key hash (`tokenizer.sequence_hash`) and the blob file's checksum
        # run along the same stream; their states are kept at each head a
        # later key starts from.
        block = geometry.kv_bytes_per_token
        header = _blob_header(geometry)
        keys = sorted({key for key, _ in order})
        heads = [0] + [common_head(a, b) for a, b in zip(keys, keys[1:])]
        starts = set(heads)
        saved = [(0, hashlib.sha256(), hashlib.sha256(header))]  # (position, key hash, checksum), positions rising
        stream = bytearray()
        blobs = {}  # key -> (key hash, blob file checksum)
        for key, head in zip(keys, heads):
            while saved[-1][0] > head:
                saved.pop()
            khash, checksum = saved[-1][1].copy(), saved[-1][2].copy()
            del stream[head * block:]
            for pos in range(head, len(key)):
                if pos in starts and pos > head:
                    saved.append((pos, khash.copy(), checksum.copy()))
                data = _token_block(geometry, key[pos], pos)
                stream += data
                checksum.update(data)
                khash.update(b",%d" % key[pos] if pos else b"%d" % key[pos])
            if len(key) in starts:
                saved.append((len(key), khash.copy(), checksum.copy()))
            name = khash.hexdigest()
            with open(self.blob_dir / f"{name}.kv", "wb") as fh:
                fh.write(header)
                fh.write(stream)
            blobs[key] = name, checksum.hexdigest()

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
        # Compact separators keep json's C encoder; `indent` would not.
        compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
        tmp = self.manifest_path.with_suffix(".json.tmp")
        self.root.mkdir(parents=True, exist_ok=True)
        # The text of `compact` of the whole document ("entries" sorts before
        # "geometry" and "version"), written one entry at a time so that the
        # encoding of every key is never held at once.
        with open(tmp, "w") as fh:
            fh.write('{"entries":[')
            for i, (khash, e) in enumerate(sorted(entries.items())):
                rec = {
                    "key_hash": khash,
                    "key": list(e.key),
                    "token_count": e.token_count,
                    "byte_size": e.byte_size,
                    "tag": e.tag,
                    "blob": e.blob_name,
                    "checksum": e.checksum,
                }
                fh.write("," * bool(i) + compact(rec))
            fh.write("]," + compact({"geometry": geometry.to_dict(), "version": VERSION})[1:] + "\n")
        os.replace(tmp, self.manifest_path)

    def resolve(self, head) -> ResolvedHead:
        """Where `head` leaves the current index, for matching prompts that open with it."""
        index = self._index or self._build_index()
        head = tuple(head)
        node, depth, served = _descend(index, head, 0)
        # A head ending inside an edge continues from the node above it.
        return ResolvedHead(index, head, node, depth, served if served[1] < len(head) else None)

    def longest_cached_prefix(self, prompt, start: ResolvedHead | None = None) -> tuple[CacheEntry | None, int]:
        """Entry and token count of the best reusable prefix for `prompt`.

        An entry covers min(len(entry.key), first-mismatch position) leading
        tokens of the prompt: reuse halts at the first token mismatch, but an
        entry longer than the match still serves its matching head with the
        tail cut off.  Returns (None, 0) when nothing matches.

        Given `start`, the `resolve` of a head `prompt` opens with, the head
        is not read again; a start of an older index (or another store) is
        resolved anew.
        """
        if start is None or start.index is not (self._index or self._build_index()):
            start = self.resolve(() if start is None else start.head)
        return start.served or _descend(start.node, tuple(prompt), start.depth)[2]

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
