"""Spans around quadpoint's public functions, installed from outside.

``Tracer.install`` replaces every public function of every quadpoint
module, at every module binding (``gf2.multiply``, ``orthogroup.multiply``
and ``mcg.multiply`` are separate names for one function), with a wrapper
that records a span: name, start, end and the index of the enclosing span.
Spans are kept in flat arrays in memory and written out by ``dump`` when
the run ends.  Constructions of ``BitMatrix`` and ``MappingClass`` are
counted rather than spanned: each one runs a validating ``__post_init__``.

A span's self time is its duration minus the durations of the spans
directly inside it.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from collections import Counter

# A one-line bit helper that quadform's inner loops call about 140 times per
# dimension-6 round trip: a span per call would multiply the tracing cost
# and the size of the trace while saying nothing about a layer.
UNTRACED = ("gf2.parity",)

# The form-keyed caches whose cache_info() the traced run reads.
FORM_CACHES = ("is_nondegenerate", "symplectic_basis", "arf")


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        home = getattr(value, "__module__", "") or ""
        if home.startswith("quadpoint."):
            yield attr, value, f"{home.split('.', 1)[1]}.{value.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.current = [-1]
        self.counts: Counter[str] = Counter()
        self.cached: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        current = self.current
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(current[0])
            ends.append(0)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]

        return traced

    def install(self) -> None:
        """Wrap every public function of every quadpoint module."""
        import quadpoint.cli  # noqa: F401  imports every quadpoint module
        from quadpoint import gf2, mcg, oracle

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quadpoint" or n.startswith("quadpoint.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, fn, name in _public_functions(module):
                if name in UNTRACED:
                    continue
                if name.startswith("quadform.") and attr in FORM_CACHES:
                    self.cached[attr] = fn
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(name, fn)
                setattr(module, attr, wrappers[id(fn)])
        table = oracle.GroupTable
        table.from_elements = classmethod(
            self.wrap("oracle.GroupTable", table.from_elements.__func__))
        self._count(gf2.BitMatrix, "gf2.BitMatrix.new")
        self._count(mcg.MappingClass, "mcg.MappingClass.new")

    def _count(self, cls, counter: str) -> None:
        post_init = cls.__post_init__
        counts = self.counts

        def counted(obj):
            counts[counter] += 1
            post_init(obj)

        cls.__post_init__ = counted

    def cache_info(self) -> tuple[int, int]:
        """(hits, entries) summed over the quadform form caches."""
        infos = [fn.cache_info() for fn in self.cached.values()]
        return sum(i.hits for i in infos), sum(i.currsize for i in infos)

    def absorb(self, path) -> dict:
        """Append the spans and counts that another process dumped to path;
        return the extra figures it wrote with them."""
        header, name_ids, parents, starts, ends = load(path)
        offset = len(self.starts)
        self.name_ids.extend(self._id(header["names"][i]) for i in name_ids)
        self.parents.extend(p + offset if p >= 0 else -1 for p in parents)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.counts.update(header["counts"])
        return header["extra"]

    def dump(self, path, extra=None) -> None:
        """Write the spans: one JSON header line, then the four raw arrays."""
        header = {"names": self.names, "counts": dict(self.counts),
                  "spans": len(self.starts), "extra": extra or {},
                  "arrays": [["name_ids", "H"], ["parents", "l"],
                             ["starts", "q"], ["ends", "q"]]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(out)

    def totals(self, pair: tuple[str, str]) -> tuple[dict[str, list[int]], int]:
        """Per span name [calls, self time in ns], and the number of spans
        named pair[1] directly inside a span named pair[0]."""
        n = len(self.starts)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        inner = array("q", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                inner[p] += ends[i] - starts[i]
        per_name = [[0, 0] for _ in self.names]
        outer_id, inner_id = (self._ids.get(name, -1) for name in pair)
        nested = 0
        for i in range(n):
            entry = per_name[name_ids[i]]
            entry[0] += 1
            entry[1] += ends[i] - starts[i] - inner[i]
            if name_ids[i] == inner_id and parents[i] >= 0 and name_ids[parents[i]] == outer_id:
                nested += 1
        return {self.names[k]: v for k, v in enumerate(per_name)}, nested


def load(path):
    """(header, name_ids, parents, starts, ends) from a dump file."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        arrays = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(src, header["spans"])
            arrays.append(arr)
    return (header, *arrays)


def layer_metrics(tracer: Tracer, child_extras, interp_floor_ms: float,
                  word_excess: float) -> dict[str, float]:
    """The per-layer figures of a traced run, by metric name.

    Calls and self times are summed over the run.  For the CLI workload
    (child_extras holds what each child reported) the cache figures are
    summed over the children and the cli.* times are medians per child.
    A layer that the workload never enters reads 0.
    """
    per_name, rank_rows_in_rank = tracer.totals(("gf2.rank", "gf2.rank_rows"))

    def calls(*names):
        return sum(per_name[n][0] for n in names if n in per_name)

    def self_ms(*names):
        return sum(per_name[n][1] for n in names if n in per_name) / 1e6

    def prefixed(prefix):
        return [n for n in per_name if n.startswith(prefix)]

    if child_extras:
        hits = sum(e["cache_hits"] for e in child_extras)
        entries = sum(e["cache_entries"] for e in child_extras)
        import_ms = statistics.median(e["import_ms"] for e in child_extras)
        main_ms = statistics.median(e["main_self_ms"] for e in child_extras)
    else:
        hits, entries = tracer.cache_info()
        import_ms = main_ms = 0.0
    return {
        "gf2.multiply.calls": calls("gf2.multiply"),
        "gf2.multiply.self_ms": self_ms("gf2.multiply"),
        # rank delegates to rank_rows: count that pair as one call
        "gf2.rank.calls": calls("gf2.rank", "gf2.rank_rows") - rank_rows_in_rank,
        "gf2.rank.self_ms": self_ms("gf2.rank", "gf2.rank_rows"),
        "gf2.solve.calls": calls("gf2.solve"),
        "gf2.solve.self_ms": self_ms("gf2.solve"),
        "gf2.kernel_basis.calls": calls("gf2.kernel_basis"),
        "gf2.kernel_basis.self_ms": self_ms("gf2.kernel_basis"),
        "gf2.BitMatrix.new": tracer.counts["gf2.BitMatrix.new"],
        "quadform.find_connector.calls": calls("quadform.find_connector"),
        "quadform.find_connector.self_ms": self_ms("quadform.find_connector"),
        "quadform.symplectic_basis.self_ms": self_ms("quadform.symplectic_basis"),
        "quadform.cache_hits": hits,
        "quadform.cache_entries": entries,
        "orthogroup.is_orthogonal.calls": calls("orthogroup.is_orthogonal"),
        "orthogroup.is_orthogonal.self_ms": self_ms("orthogroup.is_orthogonal"),
        "orthogroup.decompose.self_ms": self_ms("orthogroup.decompose"),
        "orthogroup.recompose.self_ms": self_ms("orthogroup.recompose"),
        "orthogroup.transvection_matrix.calls": calls("orthogroup.transvection_matrix"),
        "orthogroup.word_excess": word_excess,
        "orthogroup.enumerate_group.self_ms": self_ms("orthogroup.enumerate_group"),
        "oracle.GroupTable.self_ms": self_ms("oracle.GroupTable"),
        "mcg.evaluate_word.self_ms": self_ms("mcg.evaluate_word"),
        "mcg.quadruple_point_invariant.self_ms": self_ms("mcg.quadruple_point_invariant"),
        "mcg.MappingClass.new": tracer.counts["mcg.MappingClass.new"],
        "formats.parse.self_ms": self_ms(*prefixed("formats.parse")),
        "formats.dump.self_ms": self_ms(*prefixed("formats.dump")),
        "cli.interp_floor_ms": interp_floor_ms,
        "cli.import_ms": import_ms,
        "cli.main.self_ms": main_ms,
    }
