"""In-memory spans around the calls ``morse_topo.cli`` makes into each module.

``Tracer.install()`` wraps the public functions the CLI reaches at run time
(module attributes and constructors), without editing the package.  Each
wrapped call records a span (name, start, end, parent, job id) and may add
counts taken from its arguments or result.  ``uninstall()`` restores the
originals, so an untraced run executes the package unchanged.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from morse_topo import canonical, classify, krgraph, mcg, mesh, surface, symplectic


def _digits(m) -> int:
    """Decimal digits of the largest entry, from its bit length."""
    bits = max(abs(x).bit_length() for row in m.rows for x in row)
    return int(bits * 0.30103) + 1


def _count_mesh(tr, result):
    tr.count("mesh.vertices", result.num_vertices)
    tr.count("mesh.triangles", len(result.triangles))


def _count_graph(tr, args):
    graph = args[0]
    tr.count("krgraph.vertices", len(graph.vertices))
    tr.count("krgraph.edges", len(graph.edges))


def _count_word(tr, word):
    tr.count("symplectic.word_letters", len(word))
    if word:
        tr.peak("symplectic.max_exp_bits", max(abs(p.exp).bit_length() for p in word))


# (owner, attribute, span, layer, counter on the result or None).  A
# counter ("args", f) reads the call's arguments instead; "top" records the
# span only when the call comes straight from the CLI's root span.
TARGETS = [
    (mesh, "parse_hmesh", "mesh.parse", "mesh", _count_mesh),
    (mesh.HeightMesh, "__init__", "mesh.validate", "mesh", None),
    (mesh, "extract_kr_graph", "mesh.extract", "mesh",
     lambda tr, r: tr.count("mesh.events", len(r[0].vertices))),
    (krgraph, "to_dot", "krgraph.to_dot", "krgraph", None),
    (krgraph.KRGraph, "__init__", "krgraph.validate", "krgraph", ("args", _count_graph)),
    (krgraph, "critical_type_of", "krgraph.critical_type_of", "krgraph", None),
    (surface, "critical_type_to_json", "surface.json", "surface", None),
    (surface, "critical_type_from_json", "surface.json", "surface", None),
    (canonical, "canonical_kr_graph", "canonical.build", "canonical", None),
    (classify, "equivalence_reason", "classify.decide", "classify", None),
    (classify, "equivalent_up_to_flip", "classify.decide", "classify", None),
    (symplectic, "parse_matrix", "symplectic.parse_matrix", "symplectic",
     lambda tr, m: tr.peak("symplectic.matrix_digits", _digits(m))),
    (symplectic, "stabilizer_decompose", "symplectic.decompose", "symplectic", _count_word),
    (mcg, "stabilizer_decompose", "symplectic.decompose", "symplectic", _count_word),
    (symplectic, "symplectic_completion", "symplectic.completion", "symplectic", None),
    (symplectic.SpMatrix, "inverse", "symplectic.completion", "symplectic", None),
    # only the conjugation ``cmd_factor`` does itself, not products nested
    # in other spans
    (symplectic.SpMatrix, "__mul__", "symplectic.completion", "symplectic", "top"),
    (symplectic, "format_word", "symplectic.format_word", "symplectic", None),
    (mcg, "level_set_class", "mcg.factor", "mcg", None),
    (mcg, "factor_stabilizer", "mcg.factor", "mcg", None),
    (mcg, "canonical_generator_set", "mcg.generators", "mcg",
     lambda tr, r: tr.count("mcg.generators", len(r))),
]

# a failed call in these layers counts as an error of the layer
ERROR_COUNTERS = {"mesh": "mesh.errors", "symplectic": "symplectic.errors"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        # (job index, execution number) -> counter name -> total
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[str, float] = defaultdict(float)
        self.job = None  # (job index, execution number) of the running job
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: float = 1):
        self.counts[self.job][name] += n

    def peak(self, name: str, value: float):
        self.peaks[name] = max(self.peaks[name], value)

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.job]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _parent_layer(self) -> str | None:
        if not self._stack:
            return None
        return self.spans[self._stack[-1]][0].split(".")[0]

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, layer, counter):
        tracer = self
        on_args = isinstance(counter, tuple)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter == "top" and len(tracer._stack) != 1:
                return fn(*args, **kwargs)
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            except Exception:
                # count a failure once, where it leaves the layer
                if layer in ERROR_COUNTERS and tracer._parent_layer() != layer:
                    tracer.count(ERROR_COUNTERS[layer])
                raise
            if on_args:
                counter[1](tracer, args)
            elif callable(counter):
                counter(tracer, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, layer, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per job execution and span name, minus the time the
        span's direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, job) in enumerate(self.spans):
            out[job][name] += end - start - child[i]
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )
