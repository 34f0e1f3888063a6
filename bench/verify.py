"""Output checks for one `run` of the program, made as it runs.

`Checker` wraps the same public calls the tracer does (see `spans.patched`)
but times nothing.  Each query is verified as the program produces it:

* each speculative decode equals the greedy reference: the script for the
  scripted model, `lm.greedy_decode` for the Markov model;
* the served part of each matched cache entry's key is a prefix of the
  prompt it serves (an entry longer than the match is served tail-truncated);
* for each distinct served entry, the stored blob's first
  `kv_size(match_len)` bytes equal `prefix_blob(prompt[:match_len])`, once
  per distinct `match_len`; every query served that prefix fails with it.

A query that fails any check is recorded by index in `failed`.
"""

from __future__ import annotations

from contextlib import contextmanager

from spans import RETRIEVE_TOOLS, RUN_QUERIES, patched

PROMPTS = ("weaver.planner_prompt", "weaver.baseline_prompt", "weaver.arbiter_prompt")
DECODE = "exspec.decode"


class Checker:
    def __init__(self):
        self.failed: set[int] = set()
        self.queries = 0
        self._decodes = 0
        self._run = None  # (bundle, settings) of the run being checked
        # blob name -> (store, entry, {match_len: indices of the queries served that prefix})
        self._served: dict[str, tuple] = {}

    @contextmanager
    def installed(self):
        with patched(self.wrap, names={RUN_QUERIES, RETRIEVE_TOOLS, DECODE, *PROMPTS}):
            yield self
        self._check_blobs()

    def wrap(self, name, fn):
        def checked(*args, **kwargs):
            if name == RUN_QUERIES:
                if args[3].jobs != 1:
                    raise ValueError("per-query checks follow query order and need jobs=1")
                self._run = (args[0], args[3])
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._run = None
            if name == RETRIEVE_TOOLS and self._run is not None:
                self.queries += 1
                self._decodes = 0
            result = fn(*args, **kwargs)
            if self._run is not None and self.queries:
                if name == DECODE:
                    self._check_decode(args, result)
                elif name in PROMPTS:
                    self._check_prompt(result, kwargs.get("store"))
            return result

        return checked

    @property
    def _query(self) -> int:
        """Index of the query being checked."""
        return self.queries - 1

    def _fail(self):
        self.failed.add(self._query)

    def _check_decode(self, args, result):
        from agentaccel import corpus, lm, pipeline

        target, prompt = args[0], args[1]
        bundle, settings = self._run
        role = self._decodes
        self._decodes += 1
        if settings.model == "markov":
            expected = lm.greedy_decode(target, prompt, settings.max_tokens)
        elif role == 0:
            sample = bundle.test[self._query]
            expected = bundle.tokenizer.tokenize(corpus.render_plan(sample.gt_plan))[: settings.max_tokens]
        else:
            expected = bundle.tokenizer.tokenize(pipeline.ARBITER_VERDICT)[: settings.max_tokens]
        if list(result[0]) != list(expected):
            self._fail()

    def _check_prompt(self, prompt, store):
        entry, match_len = prompt.cache_entry, prompt.match_len
        if entry is None:
            return
        tokens = prompt.tokens
        if not (0 < match_len <= entry.token_count) or tuple(tokens[:match_len]) != entry.key[:match_len]:
            self._fail()
            return
        _, _, served = self._served.setdefault(entry.blob_name, (store, entry, {}))
        served.setdefault(match_len, []).append(self._query)

    def _check_blobs(self):
        from agentaccel.kvstore import StoreError, kv_size, prefix_blob

        for store, entry, served in self._served.values():
            try:
                blob = store.load_blob(entry)
            except StoreError:
                blob = None
            for match_len, queries in served.items():
                # The key's first match_len tokens equal the prompt's (checked above).
                prefix = entry.key[:match_len]
                if blob is None or blob[: kv_size(match_len, store.geometry)] != prefix_blob(prefix, store.geometry):
                    self.failed.update(queries)
