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
once; the manifest is the keys' radix tree, each distinct token run
written once, and opening a store builds the match index straight from it
and hashes no key; matching walks that tree, comparing each edge as one
slice; a head shared by many prompts is walked once (`resolve`), and
their matches continue below it.

Layout on disk:
  <root>/manifest.json          geometry, the radix tree's edges (`[parent,
                                tokens]`, node 0 the root, edge i ending
                                at node i + 1, parents first) and the
                                entries, each naming the node its key ends
                                at; compact JSON, swapped atomically
  <root>/blobs/<keyhash>.kv     16-byte magic/version header, geometry
                                descriptor, then the raw KV byte stream

Concurrent readers are safe; `precompute` is the single writer and only
publishes by replacing the manifest, so readers never observe a torn store.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import shapes

MAGIC = b"AGENTKVCACHE"  # 12 bytes; followed by a 4-byte version field
_RUN = 64  # the most token positions `precompute` synthesizes and hashes at once
BLOB_VERSION = 1
VERSION = 2  # of the manifest

TAG_STATIC = "static"
TAG_CLUSTER_COMBINATION = "cluster_combination"  # a cached leaf: static head, cluster run, single-tool examples, one example
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
    """Deterministic pseudo-KV bytes for one token position: the sha256 of its seed and each counter suffix, joined."""
    size = geometry.kv_bytes_per_token
    seed = hashlib.sha256(f"{geometry.name}|{token}|{position}".encode())
    digests = []
    for suffix in _counter_suffixes(size):
        digest = seed.copy()  # the seed's state, hashed once per block
        digest.update(suffix)
        digests.append(digest.digest())
    return b"".join(digests)[:size]


def prefix_blob(prefix, geometry: ModelGeometry) -> bytes:
    """The full synthetic KV stream for a token prefix.

    Pure function of (geometry, prefix); by construction the stream for a
    prefix is a byte-prefix of the stream for any extension of it.
    """
    return b"".join(_token_block(geometry, tok, pos) for pos, tok in enumerate(prefix))


def _blob_header(geometry: ModelGeometry) -> bytes:
    """What a blob file holds ahead of its KV stream: magic, version and geometry descriptor."""
    descriptor = json.dumps(geometry.to_dict(), sort_keys=True).encode()
    return MAGIC + BLOB_VERSION.to_bytes(4, "little") + len(descriptor).to_bytes(4, "little") + descriptor


def _blob_file_bytes(stream, geometry: ModelGeometry) -> bytes:
    """A blob file's bytes as one object; `precompute` writes the two parts without joining them."""
    return _blob_header(geometry) + stream


def _split_blob_file(raw: bytes) -> bytes:
    if len(raw) < 20 or raw[:12] != MAGIC:
        raise IntegrityError("bad blob header")
    version = int.from_bytes(raw[12:16], "little")
    if version != BLOB_VERSION:
        raise IntegrityError(f"unsupported blob version {version}")
    desc_len = int.from_bytes(raw[16:20], "little")
    return raw[20 + desc_len:]


@dataclass(frozen=True)
class CacheEntry:
    """One stored prefix, whose `key` is the concatenation of its token `runs`.

    An entry made by `precompute` holds its key as one run.  One opened from
    a manifest holds the runs of the radix tree's edges on its path, root
    first, and joins them on the first read of `key`: opening a store builds
    no key that nothing reads.  Entries compare by their recorded fields,
    since the blob name is the key's hash.
    """

    runs: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    token_count: int
    byte_size: int
    tag: str
    blob_name: str
    checksum: str

    @functools.cached_property
    def key(self) -> tuple[int, ...]:
        # Grown in place from the runs: a list copied into the tuple would
        # leave a hole in the heap per key.
        return self.runs[0] if len(self.runs) == 1 else tuple(itertools.chain.from_iterable(self.runs))


_TAG = shapes.Check(shapes.STR, lambda tag: tag in _TAGS, f"one of {', '.join(_TAGS)}")
_ENTRY_STRINGS = dict.fromkeys(("key_hash", "blob", "checksum"), shapes.STR)
_ENTRY_INTS = dict.fromkeys(("node", "token_count", "byte_size"), shapes.INT)
_ENTRY = shapes.Object({**_ENTRY_STRINGS, **_ENTRY_INTS, "tag": _TAG})
_EDGE = shapes.Check(
    shapes.Shape("a list", list),
    lambda edge: len(edge) == 2 and not shapes.INT.misfit(edge[0]) and not shapes.TOKEN_IDS.misfit(edge[1]),
    "a [parent node, token ids] pair",
)
_MANIFEST = shapes.Object({"geometry": shapes.OBJECT, "edges": shapes.ListOf(_EDGE), "entries": shapes.ListOf(_ENTRY)})


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


def _radix_edges(keys: list[tuple], heads: list[int]) -> tuple[list, list[int]]:
    """The radix tree of sorted, distinct, non-empty `keys` as manifest edges, and the node each key ends at.

    `heads[i]` is how many leading tokens `keys[i]` shares with `keys[i - 1]`
    (0 for the first key).  Edges are `[parent, tokens]`; node 0 is the root
    and edge i ends at node i + 1.  Nodes are numbered in preorder: key by
    key, each key's new nodes by depth.
    """
    edges, nodes = [], []
    path = [(0, 0)]  # (depth, node) of each node on the previous key, root first
    for i, (key, head) in enumerate(zip(keys, heads)):
        # Below its head with the previous key, a key's nodes are new: where
        # it ends, and where a later key leaves it (a running minimum of the
        # later heads, until one falls to this key's head).
        cuts, low = {len(key)}, len(key)
        for later in itertools.islice(heads, i + 1, None):
            if later <= head:
                break
            low = min(low, later)
            cuts.add(low)
        while path[-1][0] > head:
            path.pop()
        depth, node = path[-1]
        for cut in sorted(cuts):
            edges.append([node, key[depth:cut]])
            depth, node = cut, len(edges)
            path.append((depth, node))
        nodes.append(node)
    return edges, nodes


def _radix_index(edges, ends: dict[int, CacheEntry]) -> _RadixNode:
    """The match index of `edges`, with `ends` the entry at each node (see `_radix_edges`)."""
    nodes = [_RadixNode(None)]
    for parent, run in edges:
        nodes.append(_RadixNode(None))
        nodes[parent].children[run[0]] = (tuple(run), nodes[-1])
    # Shortest (then smallest) key first: the first entry to reach a node
    # serves it, and every node above it.  Keys are read only where lengths tie.
    by_length = sorted(ends.items(), key=lambda end: end[1].token_count)
    for _, tied in itertools.groupby(by_length, key=lambda end: end[1].token_count):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda end: end[1].key)
        for node, entry in tied:
            while node and nodes[node].best is None:
                nodes[node].best = entry
                node = edges[node - 1][0]
    return nodes[0]


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
        # The radix tree of `entries`' keys, replaced whenever they change.
        self._index = _RadixNode(None)
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
        # Tuples once: the index and the entries share each edge's run.
        edges = [(parent, tuple(run)) for parent, run in doc["edges"]]
        depths, firsts = [0], set()  # each node's depth; each edge's (parent, first token)
        for i, (parent, run) in enumerate(edges):
            if not 0 <= parent <= i:
                raise StoreError(f"{where}: edges[{i}] has parent {parent}, expected an earlier node (0 to {i})")
            if not run:
                raise StoreError(f"{where}: edges[{i}] has no tokens")
            if (parent, run[0]) in firsts:
                raise StoreError(f"{where}: edges[{i}] starts with the same token as an earlier edge from node {parent}")
            firsts.add((parent, run[0]))
            depths.append(depths[parent] + len(run))
        ends = {}
        for i, rec in enumerate(doc["entries"]):
            node = rec["node"]
            if not 0 < node < len(depths):
                raise StoreError(f"{where}: entries[{i}].node is {node}, expected the end of an edge (1 to {len(edges)})")
            if rec["token_count"] != depths[node]:
                raise StoreError(f"{where}: entries[{i}].token_count has the wrong value, expected the depth of its node")
            if rec["byte_size"] != kv_size(rec["token_count"], self.geometry):
                raise StoreError(f"{where}: entries[{i}].byte_size has the wrong value, expected the KV size of token_count tokens")
            runs, up = [], node
            while up:
                up, run = edges[up - 1]
                runs.append(run)
            ends[node] = self.entries[rec["key_hash"]] = CacheEntry(
                tuple(reversed(runs)), rec["token_count"], rec["byte_size"], rec["tag"], rec["blob"], rec["checksum"]
            )
        self._index = _radix_index(edges, ends)

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
        blobs = {}  # key -> (key hash, blob file checksum), in key order
        for key, head in zip(keys, heads):
            while saved[-1][0] > head:
                saved.pop()
            khash, checksum = saved[-1][1].copy(), saved[-1][2].copy()
            del stream[head * block:]
            # Synthesized and hashed a run at a time: up to each head a later
            # key starts from, and at most _RUN positions, so runs stay small.
            stops = {p for p in starts if head < p < len(key)} | set(range(head + _RUN, len(key), _RUN)) | {len(key)}
            pos = head
            for stop in sorted(stops):
                data = b"".join([_token_block(geometry, key[i], i) for i in range(pos, stop)])
                stream += data
                checksum.update(data)
                ids = ",".join(map(str, key[pos:stop]))
                khash.update((f",{ids}" if pos else ids).encode())
                if stop in starts:
                    saved.append((stop, khash.copy(), checksum.copy()))
                pos = stop
            name = khash.hexdigest()
            with open(self.blob_dir / f"{name}.kv", "wb") as fh:
                fh.write(header)
                fh.write(stream)
            blobs[key] = name, checksum.hexdigest()

        created, new_entries = [], dict(self.entries)
        for key, tag in order:
            khash, checksum = blobs[key]
            new_entries[khash] = CacheEntry((key,), len(key), kv_size(len(key), geometry), tag, f"{khash}.kv", checksum)
            created.append(new_entries[khash])
        if len(new_entries) == len(keys):  # no entry of another key was merged in
            self._publish(geometry, new_entries, [name for name, _ in blobs.values()], heads)
        else:
            self._publish(geometry, new_entries)
        return created

    def _publish(self, geometry: ModelGeometry, entries: dict[str, CacheEntry], names=None, heads=None):
        """Atomically replace the manifest with `entries`, then make them the store's.

        `names` are the entries' key hashes in key order and `heads` how many
        leading tokens each key shares with the one before; both are worked
        out when not given.
        """
        names = names or sorted(entries, key=lambda name: entries[name].key)
        keys = [entries[name].key for name in names]
        heads = heads or [0] + [common_head(a, b) for a, b in zip(keys, keys[1:])]
        edges, nodes = _radix_edges(keys, heads)
        node_of = dict(zip(names, nodes))
        records = [
            {
                "key_hash": khash,
                "node": node_of[khash],
                "token_count": e.token_count,
                "byte_size": e.byte_size,
                "tag": e.tag,
                "blob": e.blob_name,
                "checksum": e.checksum,
            }
            for khash, e in sorted(entries.items())
        ]
        doc = {"edges": edges, "entries": records, "geometry": geometry.to_dict(), "version": VERSION}
        tmp = self.manifest_path.with_suffix(".json.tmp")
        self.root.mkdir(parents=True, exist_ok=True)
        # Compact separators keep json's C encoder; `indent` would not.
        tmp.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        os.replace(tmp, self.manifest_path)
        self.geometry = geometry
        self.entries = entries
        self._index = _radix_index(edges, {node_of[name]: entries[name] for name in names})

    def resolve(self, head) -> ResolvedHead:
        """Where `head` leaves the current index, for matching prompts that open with it."""
        head = tuple(head)
        node, depth, served = _descend(self._index, head, 0)
        # A head ending inside an edge continues from the node above it.
        return ResolvedHead(self._index, head, node, depth, served if served[1] < len(head) else None)

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
        if start is None or start.index is not self._index:
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
