"""Self-tests of the benchmark's layer wrappers and pins.

    python3 -m pytest perfbench/test_layers.py

Run from the root of a checkout, like the benchmark itself.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
from plmarkov import (builders, cli, groups, invariants, markov,  # noqa: E402
                      recognition, stellar_moves, surgery)


@pytest.fixture
def traced():
    rec = layers.Recorder()
    patches = layers.install(rec)
    try:
        yield rec
    finally:
        layers.uninstall(patches)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_homology_makes_one_smith_call_per_degree(traced, d):
    invariants.homology(builders.simplex_sphere(d))
    assert traced.calls_of("invariants.smith_diagonal") == d
    assert traced.children_of("invariants.smith_diagonal", "invariants.homology") == d


# every module that bound a wrapped name by ``from .x import y``
BINDINGS = [
    (recognition, "homology"), (stellar_moves, "homology"), (markov, "homology"),
    (cli, "homology"), (groups, "smith_diagonal"), (surgery, "search_equivalence"),
    (surgery, "stellar_subdivide"), (surgery, "stellar_weld"), (surgery, "weld_parts"),
    (recognition, "search_equivalence"), (markov, "search_equivalence"),
    (markov, "weld_candidates"), (markov, "abelianization"),
]


def test_every_binding_is_wrapped_then_restored():
    before = {(m.__name__, a): getattr(m, a) for m, a in BINDINGS}
    method = builders.Complex.has_face
    rec = layers.Recorder()
    patches = layers.install(rec)
    try:
        for m, a in BINDINGS:
            assert getattr(m, a) is not before[(m.__name__, a)], (m.__name__, a)
            assert getattr(m, a).__wrapped__ is before[(m.__name__, a)]
        assert builders.Complex.has_face is not method
    finally:
        layers.uninstall(patches)
    for m, a in BINDINGS:
        assert getattr(m, a) is before[(m.__name__, a)]
    assert builders.Complex.has_face is method
    holders = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "plmarkov"]
    for holder in holders + [builders.Complex]:
        for attr, value in vars(holder).items():
            code = getattr(value, "__code__", None)
            assert code is None or code.co_filename != layers.__file__, (holder, attr)


def test_generator_spans_cover_iteration(traced):
    cx = builders.sphere_product(1, 1)
    cx = stellar_moves.stellar_subdivide(cx, next(iter(cx.facets)))
    got = list(stellar_moves.weld_candidates(cx))
    assert got
    assert traced.counts["stellar_moves.weld_candidates.yields"] == len(got)
    # one span per next(), including the one that ends the iteration
    assert traced.calls_of("stellar_moves.weld_candidates") == len(got) + 1
    assert traced.children_of("stellar_moves.weld_parts",
                              "stellar_moves.weld_candidates") > 0


def test_self_times_add_up_to_the_root_spans(traced):
    recognition.is_closed_manifold(builders.sphere_product(1, 2), budget=10000)
    roots = sum(traced.span_end[i] - traced.span_start[i]
                for i in range(len(traced.span_parent)) if traced.span_parent[i] < 0)
    assert all(s >= 0 for s in traced.self_s)
    assert sum(traced.self_s) + traced.hidden_s == pytest.approx(roots, rel=1e-6)


def test_counts_repeat_exactly():
    def counts():
        rec = layers.Recorder()
        patches = layers.install(rec)
        try:
            recognition.is_closed_manifold(builders.sphere_product(1, 2), budget=10000)
        finally:
            layers.uninstall(patches)
        return {k: v for k, v in layers.layer_metrics(rec).items() if not k.endswith("_s")}

    assert counts() == counts()


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: layers.unit_of(k) for k in layers.layer_metrics(layers.Recorder())}
    produced["bench.untraced_wall_s"] = "s"
    produced["bench.trace_overhead_frac"] = "frac"
    assert declared == produced


def test_every_job_and_input_is_pinned():
    import workloads
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    for name in workloads.WORKLOADS:
        jobs, inputs = workloads.build(name, 7, 3)
        assert {j.name for j in jobs} == set(expected[name]["jobs"])
        assert inputs == expected[name]["inputs"]
