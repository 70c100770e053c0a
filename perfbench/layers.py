"""Layer spans for the benchmark, recorded from outside the program.

``install`` wraps the public functions of each ``plmarkov`` module (see
``TARGETS``) so that every call opens a span: name, start, end, parent
span and job id.  Spans are kept in compact arrays and written out when
the traced pass ends.  A span's self time is its duration minus the part
covered by its child spans; the recorder keeps a single stack, which is
exact as long as one thread runs plmarkov code at a time (the program's
thread pools hand work to one worker while the caller blocks on it).

A module-level function is replaced in every loaded ``plmarkov`` module
that holds it, so a name bound by ``from .x import y`` is seen too.
Generator functions are timed per ``next()``, not per call, because
their body runs during iteration.  ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple


class Recorder:
    """Spans in memory plus per-name aggregates and named counters."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_job = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.counts: Dict[str, int] = {}
        self.seen: Dict[str, set] = {}
        self.job = 0
        self.hidden_s = 0.0
        # open spans: [span index, start, child seconds]
        self._stack: List[list] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_job.append(self.job)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(0.0)
        self._stack.append([idx, start, 0.0])
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        top = self._stack.pop()
        if top[0] != idx:
            raise RuntimeError("interleaved spans: plmarkov ran on two threads at once")
        dur = end - top[1]
        nid = self.span_name[idx]
        self.span_end[idx] = end
        self.calls[nid] += 1
        self.self_s[nid] += dur - top[2]
        if self._stack:
            self._stack[-1][2] += dur

    def hide(self, seconds: float) -> None:
        """Keep recorder bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds
            self.hidden_s += seconds

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def first_time(self, name: str, key) -> bool:
        """True when ``key`` has not been seen under ``name`` before."""
        bucket = self.seen.setdefault(name, set())
        if key in bucket:
            return False
        bucket.add(key)
        return True

    def calls_of(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_of(self, name: str) -> float:
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    def children_of(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        if child not in self._ids or parent not in self._ids:
            return 0
        c, p = self._ids[child], self._ids[parent]
        names, parents = self.span_name, self.span_parent
        return sum(
            1 for i in range(len(names))
            if names[i] == c and parents[i] >= 0 and names[parents[i]] == p
        )

    def write(self, path: str) -> None:
        """Spans as gzipped tab-separated text, one span a line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tjob\tparent\tstart\tend\n")
            for i in range(len(self.span_name)):
                out.write("%d\t%s\t%d\t%d\t%.9f\t%.9f\n" % (
                    i, self.names[self.span_name[i]], self.span_job[i],
                    self.span_parent[i], self.span_start[i], self.span_end[i]))


# -- hooks: counts taken at the wrapped boundary -------------------------
#
# A hook gets (recorder, args, kwargs, result).  Hooks run outside the
# span; the time they take is hidden from the enclosing span.


def _nnz_cells(rec, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    rec.count("smith.nnz", sum(len(r) - r.count(0) for r in rows))
    rec.count("smith.cells", len(rows) * (len(rows[0]) if rows else 0))


def _homology_repeat(rec, args, kwargs, out):
    cx = args[0] if args else kwargs["cx"]
    if not rec.first_time("homology", frozenset(cx.facets)):
        rec.count("homology.repeats")


def _iso_distinct(rec, args, kwargs, out):
    if rec.first_time("iso_signature", out):
        rec.count("iso_signature.distinct")


def _not_none(counter):
    def hook(rec, args, kwargs, out):
        if out is not None:
            rec.count(counter)
    return hook


def _link_vertices(rec, args, kwargs, out):
    cx = args[0] if args else kwargs["cx"]
    rec.count("classify_links.vertices", len(cx.vertices))


def _generators(rec, args, kwargs, out):
    rec.count("edge_path.generators", out.num_generators)


def _tietze_moves(rec, args, kwargs, out):
    rec.count("tietze.moves", len(out[1]))


def _facets_out(rec, args, kwargs, out):
    rec.count("realize.facets_out", len(out.facets))


def _facets_delta(rec, args, kwargs, out):
    m = args[0] if args else kwargs["m"]
    rec.count("surgery.facets_delta", len(out.facets) - len(m.facets))


# (span name, owner, attribute, kind, before hook, after hook)
# owner is "module" or "module:object"; kind is "call" or "iter".
TARGETS: Tuple[tuple, ...] = (
    ("invariants.smith_diagonal", "plmarkov.invariants", "smith_diagonal", "call", _nnz_cells, None),
    ("invariants.boundary_matrix", "plmarkov.invariants", "boundary_matrix", "call", None, None),
    ("invariants.homology", "plmarkov.invariants", "homology", "call", None, _homology_repeat),
    ("complex_core.canonical", "plmarkov.complex_core:Complex", "canonical", "call", None, None),
    ("complex_core.iso_signature", "plmarkov.complex_core:Complex", "iso_signature", "call", None, _iso_distinct),
    ("complex_core.isomorphism", "plmarkov.complex_core", "isomorphism", "call", None, _not_none("isomorphism.hits")),
    ("complex_core.fingerprint", "plmarkov.complex_core", "fingerprint", "call", None, None),
    ("complex_core.link", "plmarkov.complex_core:Complex", "link", "call", None, None),
    ("complex_core.has_face", "plmarkov.complex_core:Complex", "has_face", "call", None, None),
    ("stellar_moves.weld_candidates", "plmarkov.stellar_moves", "weld_candidates", "iter", None, None),
    ("stellar_moves.weld_parts", "plmarkov.stellar_moves", "weld_parts", "call", None, _not_none("weld_parts.accepted")),
    ("stellar_moves.flip_candidates", "plmarkov.stellar_moves", "flip_candidates", "iter", None, None),
    ("stellar_moves.stellar_subdivide", "plmarkov.stellar_moves", "stellar_subdivide", "call", None, None),
    ("stellar_moves.stellar_weld", "plmarkov.stellar_moves", "stellar_weld", "call", None, None),
    ("stellar_moves.reduce_with_trace", "plmarkov.stellar_moves", "reduce_with_trace", "call", None, None),
    ("stellar_moves.search_equivalence", "plmarkov.stellar_moves", "search_equivalence", "call", None, None),
    ("recognition.classify_links", "plmarkov.recognition", "classify_links", "call", None, _link_vertices),
    ("recognition.is_combinatorial_sphere", "plmarkov.recognition", "is_combinatorial_sphere", "call", None, None),
    ("recognition.is_combinatorial_ball", "plmarkov.recognition", "is_combinatorial_ball", "call", None, None),
    ("groups.edge_path_presentation", "plmarkov.groups", "edge_path_presentation", "call", None, _generators),
    ("groups.abelianization", "plmarkov.groups", "abelianization", "call", None, None),
    ("groups.tietze_simplify", "plmarkov.groups", "tietze_simplify", "call", None, _tietze_moves),
    ("groups.semi_decide_trivial", "plmarkov.groups", "semi_decide_trivial", "call", None, None),
    ("groups.nontrivial_permutation_image", "plmarkov.groups", "nontrivial_permutation_image", "call", None, None),
    ("markov.realize_boundary", "plmarkov.markov", "realize_boundary", "call", None, _facets_out),
    ("markov.reduction_report", "plmarkov.markov", "reduction_report", "call", None, None),
    ("markov.enumerate_spheres", "plmarkov.markov", "enumerate_spheres", "iter", None, None),
    ("surgery.do_surgery", "plmarkov.surgery", "do_surgery", "call", None, _facets_delta),
    ("fabric.handle_chain", "plmarkov.fabric", "handle_chain", "call", None, None),
    ("builders.reference_manifold", "plmarkov.builders", "reference_manifold", "call", None, None),
    ("cli.markov", "plmarkov.cli:markov_cmd", "callback", "call", None, None),
)


def _wrap_call(rec: Recorder, name: str, fn: Callable, before, after) -> Callable:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            t = perf_counter()
            before(rec, args, kwargs)
            rec.hide(perf_counter() - t)
        idx = rec.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            t = perf_counter()
            after(rec, args, kwargs, out)
            rec.hide(perf_counter() - t)
        return out

    return wrapper


def _wrap_iter(rec: Recorder, name: str, fn: Callable) -> Callable:
    nid = rec.name_id(name)
    yields = name + ".yields"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                idx = rec.open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                rec.count(yields)
                yield item
        finally:
            inner.close()

    return wrapper


def _resolve(owner: str):
    mod_name, _, obj_name = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, obj_name) if obj_name else mod


def install(rec: Recorder) -> List[Tuple[object, str, object]]:
    """Wrap every target; returns the patches for ``uninstall``."""
    # import every owner first: a module imported after a patch would
    # bind the wrapper by ``from .x import y`` and keep it after uninstall
    owners = [_resolve(spec[1]) for spec in TARGETS]
    patches: List[Tuple[object, str, object]] = []
    for (name, owner, attr, kind, before, after), target in zip(TARGETS, owners):
        orig = getattr(target, attr)
        if kind == "iter":
            wrapped = _wrap_iter(rec, name, orig)
        else:
            wrapped = _wrap_call(rec, name, orig, before, after)
        holders = [target]
        if ":" not in owner:
            holders = [
                mod for mod_name, mod in sorted(sys.modules.items())
                if mod_name.split(".")[0] == "plmarkov"
                and getattr(mod, attr, None) is orig
            ]
        for holder in holders:
            setattr(holder, attr, wrapped)
            patches.append((holder, attr, orig))
    return patches


def uninstall(patches: List[Tuple[object, str, object]]) -> None:
    for holder, attr, orig in reversed(patches):
        setattr(holder, attr, orig)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac") or metric.endswith("_per_vertex"):
        return "frac"
    return "count"


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    c = rec.counts.get
    out: Dict[str, float] = {}
    for name, _, _, kind, _, _ in TARGETS:
        if kind == "iter":  # a span per next(): yields is the count that says more
            out[name + ".yields"] = c(name + ".yields", 0)
        else:
            out[name + ".calls"] = rec.calls_of(name)
        out[name + ".self_s"] = rec.self_of(name)
    out.update({
        "invariants.smith_diagonal.nnz": c("smith.nnz", 0),
        "invariants.smith_diagonal.cells": c("smith.cells", 0),
        "invariants.homology.repeat_frac": _frac(
            c("homology.repeats", 0), rec.calls_of("invariants.homology")),
        "complex_core.iso_signature.distinct_frac": _frac(
            c("iso_signature.distinct", 0), rec.calls_of("complex_core.iso_signature")),
        "complex_core.isomorphism.hit_frac": _frac(
            c("isomorphism.hits", 0), rec.calls_of("complex_core.isomorphism")),
        "stellar_moves.weld_parts.accept_frac": _frac(
            c("weld_parts.accepted", 0), rec.calls_of("stellar_moves.weld_parts")),
        "stellar_moves.moves_applied": rec.calls_of("stellar_moves.stellar_subdivide")
        + rec.calls_of("stellar_moves.stellar_weld"),
        # _classify_link runs one sphere check per link class
        "recognition.classes_per_vertex": _frac(
            rec.children_of("recognition.is_combinatorial_sphere",
                            "recognition.classify_links"),
            c("classify_links.vertices", 0)),
        "groups.edge_path_presentation.generators": c("edge_path.generators", 0),
        "groups.tietze_simplify.moves": c("tietze.moves", 0),
        "markov.realize_boundary.facets_out": c("realize.facets_out", 0),
        "surgery.do_surgery.facets_delta": c("surgery.facets_delta", 0),
    })
    return out
