import hashlib
import json
import os
import random
import re
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agentaccel.kvstore as kvmod
from agentaccel.cli import main
from agentaccel.kvstore import (
    TAG_ARBITER_STATIC,
    TAG_CLUSTER_COMBINATION,
    TAG_STATIC,
    CacheEntry,
    IntegrityError,
    KVStore,
    ModelGeometry,
    StoreError,
    kv_size,
    prefix_blob,
)
from agentaccel.tokenizer import sequence_hash

TINY = ModelGeometry(name="tiny", layers=1, kv_heads=1, head_dim=2, bytes_per_element=2, params_bytes=64)
# 40 bytes per token: a block spans two sha256 digests, the second cut short.
ODD = ModelGeometry(name="odd", layers=1, kv_heads=1, head_dim=10, bytes_per_element=2, params_bytes=64)


@pytest.fixture()
def store(tmp_path):
    return KVStore(tmp_path / "cache")


class TestSizing:
    def test_zero_tokens(self):
        assert kv_size(0, TINY) == 0

    def test_single_token_7b_geometry(self):
        geom = ModelGeometry("7b-class", layers=32, kv_heads=8, head_dim=128, bytes_per_element=2, params_bytes=14_000_000_000)
        # Direct product: 32 layers * (K and V) * 8 heads * 128 dims * 2 bytes.
        assert kv_size(1, geom) == 32 * 2 * 8 * 128 * 2 == 131072

    def test_hundred_tools_within_ten_percent_of_budget_claim(self):
        # 100 tools at 120 tokens of description each, under the 7B-class
        # geometry, must land within 10% of the documented 1.4 GiB figure.
        geom = ModelGeometry("7b-class", layers=32, kv_heads=8, head_dim=128, bytes_per_element=2, params_bytes=14_000_000_000)
        total = kv_size(100 * 120, geom)
        target = 1.4 * 2**30
        assert abs(total - target) <= 0.10 * target

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            ModelGeometry("bad", layers=0, kv_heads=1, head_dim=1, bytes_per_element=2, params_bytes=1)
        with pytest.raises(ValueError):
            ModelGeometry("bad", layers=1, kv_heads=1, head_dim=1, bytes_per_element=3, params_bytes=1)


class TestBlobs:
    def test_blob_size_matches_accounting(self):
        blob = prefix_blob([5, 6, 7], TINY)
        assert len(blob) == kv_size(3, TINY)

    def test_prefix_of_blob_is_blob_of_prefix(self):
        long = prefix_blob([5, 6, 7, 8], TINY)
        short = prefix_blob([5, 6], TINY)
        assert long[: len(short)] == short

    def test_blob_depends_on_position_and_token(self):
        assert prefix_blob([5, 6], TINY) != prefix_blob([6, 5], TINY)
        assert prefix_blob([5], TINY) != prefix_blob([6], TINY)


class TestPrecompute:
    def test_duplicates_collapse(self, store):
        entries = store.precompute({TAG_STATIC: [[1, 2], [1, 2], [1, 2, 3]]}, TINY)
        assert len(entries) == 2
        assert len(store.entries) == 2

    def test_empty_list_rejected(self, store):
        with pytest.raises(ValueError):
            store.precompute({TAG_STATIC: []}, TINY)

    def test_empty_prefix_rejected(self, store):
        with pytest.raises(ValueError):
            store.precompute({TAG_STATIC: [[]]}, TINY)

    @pytest.mark.parametrize("groups", [{}, {"dynamic": [[1]]}, {TAG_STATIC: [[1]], TAG_ARBITER_STATIC: []}])
    def test_no_group_unknown_tag_or_empty_group_rejected(self, store, groups):
        with pytest.raises(ValueError):
            store.precompute(groups, TINY)
        assert not store.manifest_path.exists()

    def test_extension_blob_startswith_prefix_blob(self, store):
        store.precompute({TAG_STATIC: [[1, 2], [1, 2, 3, 4]]}, TINY)
        short = next(e for e in store.entries.values() if e.token_count == 2)
        long = next(e for e in store.entries.values() if e.token_count == 4)
        short_bytes = store.load_blob(short)
        long_bytes = store.load_blob(long)
        assert long_bytes[: len(short_bytes)] == short_bytes

    def test_idempotent_rerun_produces_identical_manifest(self, store):
        store.precompute({TAG_STATIC: [[1, 2, 3]]}, TINY)
        first = store.manifest_path.read_bytes()
        store.precompute({TAG_STATIC: [[1, 2, 3]]}, TINY)
        assert store.manifest_path.read_bytes() == first

    def test_geometry_conflict_rejected(self, store):
        store.precompute({TAG_STATIC: [[1]]}, TINY)
        other = ModelGeometry("other", layers=2, kv_heads=1, head_dim=2, bytes_per_element=2, params_bytes=64)
        with pytest.raises(StoreError):
            store.precompute({TAG_STATIC: [[2]]}, other)

    def test_write_failure_leaves_manifest_unchanged(self, store, monkeypatch):
        store.precompute({TAG_STATIC: [[1, 2]]}, TINY)
        before = store.manifest_path.read_bytes()
        before_entries = dict(store.entries)

        import agentaccel.kvstore as kvmod

        def boom(tmp, dst):
            raise OSError("disk full")

        monkeypatch.setattr(kvmod.os, "replace", boom)
        with pytest.raises(OSError):
            store.precompute({TAG_STATIC: [[9, 9, 9]]}, TINY)
        monkeypatch.undo()
        reopened = KVStore(store.root)
        assert store.manifest_path.read_bytes() == before
        assert set(reopened.entries) == set(before_entries)

    def test_each_shared_block_synthesized_once(self, store, monkeypatch):
        calls = []
        real = kvmod._token_block

        def counting(geometry, token, position):
            calls.append((token, position))
            return real(geometry, token, position)

        monkeypatch.setattr(kvmod, "_token_block", counting)
        store.precompute({TAG_STATIC: [[1, 2, 3, 4], [1, 2, 3, 5], [1, 2], [1, 2, 3, 4]]}, TINY)
        # (1, 2) makes 2 blocks, (1, 2, 3, 4) 2 more, (1, 2, 3, 5) 1; the duplicate none.
        assert len(calls) == 5

    def test_byte_accounting_sums(self, store):
        store.precompute({TAG_STATIC: [[1], [1, 2], [3, 4, 5]]}, TINY)
        assert store.total_bytes == sum(e.byte_size for e in store.entries.values())
        assert store.total_bytes == kv_size(1, TINY) + kv_size(2, TINY) + kv_size(3, TINY)


def _reference_precompute(store, prefixes, geometry, tag=TAG_STATIC):
    """Per-entry synthesis: every entry's stream is built from scratch."""
    store.blob_dir.mkdir(parents=True, exist_ok=True)
    new_entries = dict(store.entries)
    created = []
    for prefix in dict.fromkeys(tuple(p) for p in prefixes):
        khash = sequence_hash(prefix)
        raw = kvmod._blob_file_bytes(prefix_blob(prefix, geometry), geometry)
        blob_name = f"{khash}.kv"
        entry = CacheEntry(
            key=prefix,
            token_count=len(prefix),
            byte_size=kv_size(len(prefix), geometry),
            tag=tag,
            blob_name=blob_name,
            checksum=hashlib.sha256(raw).hexdigest(),
        )
        (store.blob_dir / blob_name).write_bytes(raw)
        new_entries[khash] = entry
        created.append(entry)
    store._write_manifest(geometry, new_entries)
    store.geometry = geometry
    store.entries = new_entries
    return created


_TAG_NAMES = [TAG_STATIC, TAG_CLUSTER_COMBINATION, TAG_ARBITER_STATIC]


@st.composite
def _precompute_calls(draw):
    # One or two precompute calls, each a {tag: prefixes} dict whose groups
    # draw from one pool of keys cut from a long base and extended by a short
    # tail over a 3-token alphabet: duplicates within and across groups, keys
    # that are heads of other keys, long shared heads that then diverge,
    # single-token keys, unsorted order.
    base = draw(st.lists(st.integers(0, 2), min_size=1, max_size=40))

    def key():
        head = base[: draw(st.integers(0, len(base)))]
        tail = draw(st.lists(st.integers(0, 2), min_size=0 if head else 1, max_size=5))
        return head + tail

    pool = [key() for _ in range(draw(st.integers(1, 10)))]

    def groups():
        tags = draw(st.lists(st.sampled_from(_TAG_NAMES), min_size=1, max_size=3, unique=True))
        return {tag: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8)) for tag in tags}

    return [groups() for _ in range(draw(st.integers(1, 2)))]


def _store_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSharedHeadSynthesis:
    @settings(max_examples=150, deadline=None)
    @given(calls=_precompute_calls(), geometry=st.sampled_from([TINY, ODD]))
    def test_matches_per_entry_reference(self, calls, geometry):
        with tempfile.TemporaryDirectory() as tmp:
            store = KVStore(Path(tmp) / "shared")
            ref = KVStore(Path(tmp) / "reference")
            for groups in calls:
                created = store.precompute(groups, geometry)
                assert created == [
                    entry for tag, prefixes in groups.items() for entry in _reference_precompute(ref, prefixes, geometry, tag=tag)
                ]
                assert list(store.entries.items()) == list(ref.entries.items())
            assert _store_files(store.root) == _store_files(ref.root)
            for entry in store.entries.values():
                assert store.load_blob(entry) == prefix_blob(entry.key, geometry)


def _oracle_longest(entries, prompt):
    best_len = 0
    for entry in entries:
        common = 0
        for a, b in zip(entry.key, prompt):
            if a != b:
                break
            common += 1
        best_len = max(best_len, common)
    return best_len


def _oracle_served(entries, prompt):
    """Brute force: the shortest, then smallest, entry sharing the longest head."""
    match = _oracle_longest(entries, prompt)
    if not match:
        return None, 0
    head = tuple(prompt[:match])
    return min((e for e in entries if e.key[:match] == head), key=lambda e: (e.token_count, e.key)), match


class _TokenTrie:
    """The per-token trie the radix index replaced: one node per key token, built shortest entry first."""

    def __init__(self, best=None):
        self.children, self.best = {}, best

    @classmethod
    def build(cls, entries) -> "_TokenTrie":
        root = cls()
        for entry in sorted(entries, key=lambda e: (e.token_count, e.key)):
            node = root
            for tok in entry.key:
                node = node.children.setdefault(tok, cls(entry))
        return root

    def served(self, prompt):
        node, depth = self, 0
        for tok in prompt:
            if tok not in node.children:
                break
            node, depth = node.children[tok], depth + 1
        return node.best, depth


@st.composite
def _prompts(draw, keys):
    """Prompts that follow a key, then diverge inside an edge, end inside it, or run past the deepest key."""
    key = list(draw(st.sampled_from(keys)))
    head = key[: draw(st.integers(0, len(key)))]
    tail = draw(st.lists(st.integers(0, 3), max_size=8))
    return draw(st.sampled_from([head, head + tail, key + tail]))


class TestLongestPrefix:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), calls=_precompute_calls())
    def test_matches_bruteforce_and_token_trie(self, data, calls):
        with tempfile.TemporaryDirectory() as tmp:
            store = KVStore(Path(tmp) / "store")
            for groups in calls:
                store.precompute(groups, TINY)
            entries = list(store.entries.values())
            trie = _TokenTrie.build(entries)
            for prompt in data.draw(st.lists(_prompts([e.key for e in entries]), min_size=1, max_size=30)):
                served = store.longest_cached_prefix(prompt)
                assert served == _oracle_served(entries, prompt) == trie.served(prompt)

    def test_empty_store(self, store):
        assert store.longest_cached_prefix([1, 2, 3]) == (None, 0)

    def test_early_mismatch_limits_reuse(self, store):
        # Two prompts sharing a long middle section but differing early on:
        # reuse halts at the first mismatch even though later tokens align.
        cached = [1, 2, 3, 4, 5, 6, 7, 8]
        store.precompute({TAG_STATIC: [cached]}, TINY)
        prompt = [1, 2, 99, 4, 5, 6, 7, 8]
        entry, match = store.longest_cached_prefix(prompt)
        assert match == 2
        assert entry is not None

    def test_tail_truncation_serves_matching_head(self, store):
        store.precompute({TAG_STATIC: [[1, 2, 3, 4, 5]]}, TINY)
        entry, match = store.longest_cached_prefix([1, 2, 3])
        assert match == 3
        assert entry.token_count == 5

    def test_exact_and_longer_entries(self, store):
        store.precompute({TAG_STATIC: [[1, 2], [1, 2, 3, 4]]}, TINY)
        entry, match = store.longest_cached_prefix([1, 2, 3, 9])
        assert match == 3
        entry2, match2 = store.longest_cached_prefix([1, 2])
        assert match2 == 2
        assert entry2.token_count == 2  # prefers the shortest covering entry

    def test_randomized_against_bruteforce(self, store):
        rng = random.Random(61)
        keys = []
        for _ in range(120):
            base = [rng.randint(1, 9) for _ in range(rng.randint(1, 40))]
            keys.append(base)
            if rng.random() < 0.4:
                keys.append(base[: rng.randint(1, len(base))])
        store.precompute({TAG_STATIC: keys}, TINY)
        entries = list(store.entries.values())
        for _ in range(300):
            if rng.random() < 0.6:
                src = rng.choice(entries).key
                prompt = list(src[: rng.randint(0, len(src))])
                prompt += [rng.randint(1, 9) for _ in range(rng.randint(0, 30))]
            else:
                prompt = [rng.randint(1, 9) for _ in range(rng.randint(0, 60))]
            assert store.longest_cached_prefix(prompt) == _oracle_served(entries, prompt)

    def test_concurrent_first_match_on_fresh_store(self, store):
        rng = random.Random(7)
        keys = [[rng.randint(1, 4) for _ in range(rng.randint(1, 300))] for _ in range(60)]
        store.precompute({TAG_STATIC: keys}, TINY)
        fresh = KVStore(store.root)
        entries = list(fresh.entries.values())
        prompts = [list(rng.choice(keys)[: rng.randint(0, 300)]) + [rng.randint(1, 4)] for _ in range(40)]
        expected = [_oracle_served(entries, p) for p in prompts]
        builds = []

        class CountingEntries(dict):
            def values(self):
                builds.append(threading.current_thread().name)
                return super().values()

        fresh.entries = CountingEntries(fresh.entries)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(i):
            barrier.wait(timeout=30)
            results[i] = [fresh.longest_cached_prefix(p) for p in prompts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4
        assert len(builds) == 1

    def test_match_after_precompute_sees_new_entries(self, store):
        first = store.precompute({TAG_STATIC: [[1, 2, 3]]}, TINY)[0]
        assert store.longest_cached_prefix([1, 2, 3, 4, 5]) == (first, 3)
        longer = store.precompute({TAG_STATIC: [[1, 2, 3, 4, 5]]}, TINY)[0]
        assert store.longest_cached_prefix([1, 2, 3, 4, 5]) == (longer, 5)
        assert store.longest_cached_prefix([1, 2, 3]) == (first, 3)


class TestLoad:
    def test_round_trip_is_byte_identical(self, store):
        entries = store.precompute({TAG_STATIC: [[4, 5, 6]]}, TINY)
        assert store.load_blob(entries[0]) == prefix_blob([4, 5, 6], TINY)

    def test_corrupted_blob_detected(self, store):
        entries = store.precompute({TAG_STATIC: [[7, 8]]}, TINY)
        path = store.blob_dir / entries[0].blob_name
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            store.load_blob(entries[0])

    def test_missing_blob_detected(self, store):
        entries = store.precompute({TAG_STATIC: [[7, 8]]}, TINY)
        (store.blob_dir / entries[0].blob_name).unlink()
        with pytest.raises(IntegrityError):
            store.load_blob(entries[0])

    def test_manifest_round_trip_reload(self, store):
        store.precompute({TAG_STATIC: [[1, 2], [3]]}, TINY)
        reopened = KVStore(store.root)
        assert set(reopened.entries) == set(store.entries)
        entry = next(iter(reopened.entries.values()))
        assert reopened.load_blob(entry) == prefix_blob(entry.key, TINY)

    def test_manifest_carries_required_fields(self, store):
        store.precompute({TAG_STATIC: [[1, 2]]}, TINY)
        doc = json.loads(store.manifest_path.read_text())
        entry = doc["entries"][0]
        for field in ("key_hash", "token_count", "byte_size", "tag", "blob", "checksum"):
            assert field in entry

    def test_manifest_is_compact_json(self, store):
        store.precompute({TAG_STATIC: [[1, 2], [1, 2, 3]]}, TINY)
        text = store.manifest_path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize(
        "mangle, named",
        [
            (lambda doc: [], "not a JSON object"),
            (lambda doc: dict(doc, geometry=[]), "'geometry'"),
            (lambda doc: dict(doc, entries={}), "'entries'"),
            (lambda doc: dict(doc, entries=[1]), "entries[0]"),
            (lambda doc: dict(doc, entries=[dict(doc["entries"][0], key=5)]), "wrong type"),
            (lambda doc: {k: v for k, v in doc.items() if k != "version"}, "format version None, not 1: re-run precompute-cache"),
            (lambda doc: dict(doc, version=2), "format version 2, not 1"),
            (lambda doc: dict(doc, version="1"), "format version '1', not 1"),
        ],
    )
    def test_manifest_of_wrong_shape_raises_store_error(self, store, mangle, named):
        store.precompute({TAG_STATIC: [[1, 2]]}, TINY)
        doc = json.loads(store.manifest_path.read_text())
        store.manifest_path.write_text(json.dumps(mangle(doc)))
        with pytest.raises(StoreError, match=re.escape(named)):
            KVStore(store.root)

    def test_reader_snapshot_survives_concurrent_precompute(self, store):
        # A reader opened before a writer publishes keeps serving its
        # consistent snapshot; a reader opened after sees the new state.
        first = store.precompute({TAG_STATIC: [[1, 2, 3]]}, TINY)[0]
        reader = KVStore(store.root)
        store.precompute({TAG_STATIC: [[4, 5]]}, TINY)
        assert reader.longest_cached_prefix([1, 2, 3]) == (first, 3)
        assert reader.load_blob(first) == prefix_blob([1, 2, 3], TINY)
        fresh = KVStore(store.root)
        assert len(fresh.entries) == 2


class TestFixturePlanCounts:
    def test_precompute_cache_publishes_once_and_synthesizes_each_block_once(self, precompute_cache_argv, tmp_path, monkeypatch):
        blocks, published = [], []
        real_block, real_replace = kvmod._token_block, os.replace

        def counting_block(geometry, token, position):
            blocks.append((token, position))
            return real_block(geometry, token, position)

        def counting_replace(src, dst):
            published.extend([dst] if Path(dst).name == "manifest.json" else [])
            return real_replace(src, dst)

        monkeypatch.setattr(kvmod, "_token_block", counting_block)
        monkeypatch.setattr(kvmod.os, "replace", counting_replace)
        assert main(precompute_cache_argv) == 0
        monkeypatch.undo()
        store = KVStore(tmp_path / "cache")
        assert {e.tag for e in store.entries.values()} == set(_TAG_NAMES)
        assert len(published) == 1
        # One block per distinct non-empty key head (a per-token trie node),
        # however many groups share the head.
        stack, heads = [_TokenTrie.build(store.entries.values())], 0
        while stack:
            node = stack.pop()
            heads += len(node.children)
            stack.extend(node.children.values())
        assert len(blocks) == heads

    def test_open_hashes_no_key(self, populated_store, monkeypatch):
        hashed = []
        monkeypatch.setattr(kvmod, "sequence_hash", hashed.append)
        assert KVStore(populated_store.root).entries == populated_store.entries
        assert hashed == []


def test_blob_names_are_the_sequence_digest(tmp_path):
    # sha256 of b"1,2,3": stores already written name their blobs by it.
    digest = "8a6ae15122001229edb8866f56e342af12ae8187203c3e3b33931743e7c0c48d"
    assert sequence_hash([1, 2, 3]) == digest
    assert KVStore(tmp_path / "store").precompute({TAG_STATIC: [[1, 2, 3]]}, TINY)[0].blob_name == f"{digest}.kv"
