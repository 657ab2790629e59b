"""In-memory spans recorded around the benchmark's calls into ``illume``.

A span holds its name, start and end (``perf_counter_ns``), the index of
its parent span and the id of the operation it belongs to. Spans stay in
memory while the workload runs and are written out once, when it ends.
Names are ``<module>.<call>[.<detail>]``; ``layer_of`` maps each name to
the layer whose self time it counts towards.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

# Longest matching prefix wins; "bench." is the benchmark's own work.
_LAYER_PREFIXES = (
    ("oracle.maximize_trace_norm", "oracle.search"),
    ("oracle.perr_of_state", "oracle.search"),
    ("oracle.check_", "oracle.lemmas"),
    ("oracle.run_lemma_suite", "oracle.lemmas"),
    ("oracle.simulate_measurement", "oracle.montecarlo"),
    ("oracle.run_montecarlo_suite", "oracle.montecarlo"),
    ("sweep.run_sweep", "sweep.grid"),
    ("sweep.records_to_csv", "sweep.csv"),
    ("sweep.region_boundaries", "sweep.boundaries"),
    ("linalg.", "linalg"),
    ("model.", "model"),
    ("analytic.", "analytic"),
    ("cli.", "cli"),
    ("bench.", "bench"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in _LAYER_PREFIXES))


def layer_of(name: str) -> str:
    best = ""
    layer = "bench"
    for prefix, candidate in _LAYER_PREFIXES:
        if name.startswith(prefix) and len(prefix) > len(best):
            best, layer = prefix, candidate
    return layer


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index, op_id]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter_ns(), 0, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def durations_ns(self) -> dict[str, list[int]]:
        """Span durations grouped by name."""
        out = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_ns_by_layer(self) -> dict[str, int]:
        """Per layer, span durations minus the time their child spans cover.

        Spans come from one thread and nest, so children never overlap and
        the covered time is the sum of the children's durations.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[layer_of(name)] += end - start - covered[i]
        return out

    def write(self, path) -> None:
        """Write all spans as gzip-compressed JSON with a name table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "names": names,
            "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class NullTracer:
    """Stand-in used with tracing off: spans cost one attribute lookup and a call."""

    _null = nullcontext()

    def span(self, name: str, op=None):
        return self._null
