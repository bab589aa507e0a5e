"""Per-layer attribution by wrapping the program's public functions.

Each wrapper is installed on the module attribute its caller looks up
(``vectorizer.tokenize``, not ``lexical.tokenize``, because the vectorizer
imported the name), so the program itself is unchanged. A wrapper opens a
span around the call; on return the span's duration is added to its
layer's total (outermost span of that layer only) and its self time (the
duration minus the spans it enclosed). Self times of all layers plus the
untraced remainder of ``cli.main`` add up to the command's wall time.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import defaultdict


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "durations", "depth", "units")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: list[float] | None = None  # per-call times, where asked for
        self.depth = 0          # open spans of this layer, so nesting is counted once
        self.units = 0          # layer-specific work count (lines, steps)

    def to_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
                "durations": self.durations or [], "units": self.units}


class Tracer:
    """Spans kept in memory as per-layer aggregates for one process."""

    def __init__(self):
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self._child_time: list[float] = []
        self.lookups = 0
        self.distinct_terms = 0

    def wrap(self, layer: str, fn, units=None, samples: bool = False):
        """``fn`` timed as a span of ``layer``; ``units(args, result)``
        returns a work count added to the layer, and ``samples`` keeps
        every call's duration."""
        stats = self.layers[layer]
        if samples:
            stats.durations = []
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            stats.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stats.depth -= 1
                enclosed = stack.pop()
                if stack:
                    stack[-1] += duration
                stats.calls += 1
                stats.self_s += duration - enclosed
                if stats.durations is not None:
                    stats.durations.append(duration)
                if stats.depth == 0:
                    stats.total_s += duration
            if units is not None:
                stats.units += units(args, result)
            return result

        return traced

    def count_lookups(self, provider) -> None:
        """Count lookups and distinct terms on one dictionary provider.

        The counter is an instance attribute, so the provider's own
        ``is_english`` and ``expand_synonyms`` go through it as well.
        """
        seen: set[str] = set()
        inner = provider.lookup

        def lookup(term):
            self.lookups += 1
            if term not in seen:
                seen.add(term)
                self.distinct_terms += 1
            return inner(term)

        provider.lookup = lookup

    def to_dict(self) -> dict:
        return {"layers": {name: s.to_dict() for name, s in self.layers.items()},
                "lookups": self.lookups, "distinct_terms": self.distinct_terms}


def _patch(module, name: str, wrapper_factory) -> None:
    setattr(module, name, wrapper_factory(getattr(module, name)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI commands cross."""
    from codereadability import analytics, cli, corpus, model, vectorizer
    from codereadability.features import tf

    def layer(name, units=None, samples=False):
        return lambda fn: tracer.wrap(name, fn, units, samples)

    for module in (cli, corpus):
        _patch(module, "load_snippet_file", layer("corpus.load"))
        _patch(module, "preprocess", layer("corpus.load"))
    _patch(cli, "load_labeled_dataset", layer("corpus.load"))

    load_dictionary = cli.load_dictionary

    def counted_dictionary(*args, **kwargs):
        provider = load_dictionary(*args, **kwargs)
        tracer.count_lookups(provider)
        return provider

    cli.load_dictionary = tracer.wrap("dictionary.load", counted_dictionary)

    _patch(vectorizer, "tokenize", layer("lexical.tokenize", lambda a, r: len(a[0].lines)))
    _patch(vectorizer, "extract_blocks", layer("lexical.extract_blocks"))
    _patch(vectorizer, "compute_tf", layer("features.tf"))
    _patch(tf, "concept_count", layer("features.tf.concept_count"))
    _patch(tf, "text_coherence", layer("features.tf.text_coherence"))
    _patch(vectorizer, "compute_bwf", layer("features.bwf"))
    _patch(vectorizer, "compute_pf", layer("features.pf"))
    _patch(vectorizer, "compute_df", layer("features.df"))
    for module in (vectorizer, analytics):
        _patch(module, "featurize", layer("vectorizer.featurize", samples=True))
    _patch(cli, "featurize_corpus", layer("vectorizer.featurize_corpus"))
    _patch(cli, "write_feature_matrix", layer("io.write_feature_matrix"))

    _patch(model, "load_model", layer("model.load"))
    _patch(model, "evaluate", layer("model.evaluate"))
    _patch(model, "sfs_path", layer("model.sfs_path", lambda a, r: len(r[0])))
    _patch(model, "train_logreg", layer("model.train_logreg"))
    _patch(model, "auc", layer("model.auc"))
    _patch(analytics, "predict", layer("model.predict"))

    _patch(analytics, "score_corpus", layer("analytics.score_corpus"))
    _patch(analytics, "paired_compare", layer("analytics.paired_compare"))
    _patch(analytics, "wilcoxon_signed_rank", layer("analytics.wilcoxon"))
    _patch(analytics, "write_score_table", layer("io.score_table"))
    _patch(analytics, "read_score_table", layer("io.score_table"))


class AllocProbe:
    """Peak traced allocation of ``concept_count``, one call at a time.

    tracemalloc runs only inside the wrapped call, so the rest of the
    process is not slowed and the peak excludes memory held before it.
    """

    def __init__(self):
        self.peak_mb = 0.0
        self.calls = 0

    def install(self) -> None:
        from codereadability.features import tf

        inner = tf.concept_count

        @functools.wraps(inner)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.calls += 1
                self.peak_mb = max(self.peak_mb, peak / 2**20)

        tf.concept_count = measured

    def to_dict(self) -> dict:
        return {"concept_count_peak_alloc_mb": self.peak_mb, "concept_count_calls": self.calls}
