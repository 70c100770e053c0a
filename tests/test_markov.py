import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmarkov import groups
from plmarkov.builders import (reference_manifold, simplex_sphere,
                               sphere_product, standard_simplex)
from plmarkov.complex_core import Complex
from plmarkov.groups import (abelianization, edge_path_presentation,
                             homology_style, parse_presentation)
from plmarkov.invariants import betti_numbers, homology, smith_diagonal
from plmarkov.markov import (DepthError, HandlePlan, dovetail,
                             enumerate_spheres, enumerate_subcomplexes,
                             handlebody_boundary, plan_from_presentation,
                             realize_boundary, realize_curve,
                             reduction_report, report_to_text, surgery,
                             _cascade_ops)
from plmarkov.recognition import is_closed_manifold
from oracles import (mod2_triangle_boundary, subcomplex_classes_exhaustive,
                     two_sphere_triangulations)


def pres(text):
    return parse_presentation(text)


def h1_style(cx):
    prof = homology(cx).to_json()
    return prof[1]["betti"], tuple(prof[1]["torsion"])


class TestPlans:
    def test_single_generator_single_relator(self):
        p = plan_from_presentation(pres("g|g"), 4)
        assert p.num_handles == 1
        assert p.relator_words == ((1,),)
        assert p.trivial_words == ((),)

    def test_empty_presentation(self):
        p = plan_from_presentation(pres("|"), 4)
        assert (p.num_handles, p.relator_words, p.trivial_words) == (0, (), ())

    def test_two_generators(self):
        p = plan_from_presentation(pres("a,b|ab"), 4)
        assert p.num_handles == 2
        assert len(p.relator_words) == 1
        assert len(p.trivial_words) == 2

    def test_words_stored_freely_reduced(self):
        p = plan_from_presentation(pres("g|gGg"), 4)
        assert p.relator_words == ((1,),)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            plan_from_presentation(pres("g|g"), 3)


class TestHandleBoundary:
    def test_one_handle(self):
        m, marks = handlebody_boundary(1, 4)
        assert len(m.vertices) == 15
        assert len(m.facets) == 60
        assert betti_numbers(m) == (1, 1, 0, 1, 1)
        assert len(marks.cores) == 1

    def test_zero_handles_is_the_sphere(self):
        m, marks = handlebody_boundary(0, 4)
        assert m == simplex_sphere(4)
        assert marks.cores == ()

    def test_two_handles(self):
        m, marks = handlebody_boundary(2, 4)
        assert m.euler_characteristic() == -2
        assert h1_style(m) == (2, ())
        assert len(marks.cores) == 2

    def test_marks_live_in_the_skeleton(self):
        m, marks = handlebody_boundary(2, 4)
        edges = {frozenset(e) for f in m.facets
                 for e in itertools.combinations(f, 2)}
        for core in marks.cores:
            assert len(set(core)) == len(core) == 3
            for u, v in zip(core, core[1:] + core[:1]):
                assert frozenset((u, v)) in edges
        for arc in marks.arcs:
            assert arc[0] == marks.basepoint
            for u, v in zip(arc, arc[1:]):
                assert frozenset((u, v)) in edges

    def test_sections_chart_the_model_ball(self):
        m, marks = handlebody_boundary(2, 4)
        dom = set(marks.model.vertices)
        for gen in marks.sections:
            assert len(gen) == 3
            for sec in gen:
                assert set(sec) == dom


class TestRealizeCurve:
    def test_single_letter_rides_the_core(self):
        marked = handlebody_boundary(1, 4)
        c = realize_curve(marked, (1,))
        assert c.path == marked[1].cores[0]
        assert c.word == (1,)
        assert c.framing == "untwisted"
        assert c.blocks == ((1, (0, 3)),)

    def test_inverse_letter_reverses(self):
        marked = handlebody_boundary(1, 4)
        c = realize_curve(marked, (-1,))
        assert c.path == tuple(reversed(marked[1].cores[0]))

    def test_trivial_word_is_a_planted_triangle(self):
        marked = handlebody_boundary(0, 4)
        c = realize_curve(marked, ())
        assert len(c.path) == 3
        assert c.ambient.euler_characteristic() == 2
        assert c.ambient.is_closed_pseudomanifold()

    def test_doubled_letter_needs_the_corridor(self):
        marked = handlebody_boundary(1, 4)
        c = realize_curve(marked, (1, 1))
        assert len(c.path) == len(set(c.path)) == 6
        assert c.blocks == ((1, (0, 3)), (1, (3, 6)))
        amb = c.ambient
        assert amb.euler_characteristic() == 0
        assert amb.is_closed_pseudomanifold()
        assert amb.is_orientable()

    def test_doubled_letter_class_is_even_mod_two(self):
        # the curve's cycle must vanish in mod-2 homology: its class
        # is twice the generator
        marked = handlebody_boundary(1, 4)
        c = realize_curve(marked, (1, 1))
        cycle = list(zip(c.path, c.path[1:] + c.path[:1]))
        assert mod2_triangle_boundary(c.ambient, cycle)

    def test_commutator_realized(self):
        marked = handlebody_boundary(2, 4)
        w = pres("a,b|abAB").relators[0]
        c = realize_curve(marked, w)
        assert len(c.path) == len(set(c.path))
        assert c.ambient.euler_characteristic() == -2
        assert c.blocks[-1][0] is None

    def test_triple_letter_reports_depth(self):
        marked = handlebody_boundary(1, 4)
        with pytest.raises(DepthError) as e:
            realize_curve(marked, (1, 1, 1))
        assert e.value.required_depth == 3

    def test_corridor_requires_untouched_boundary(self):
        m, marks = handlebody_boundary(1, 4)
        once = surgery(m, realize_curve((m, marks), ()))
        with pytest.raises(DepthError):
            realize_curve((once, marks), (1, 1))

    def test_unreduced_word_rejected(self):
        marked = handlebody_boundary(1, 4)
        with pytest.raises(ValueError):
            realize_curve(marked, (1, -1))

    def test_unknown_generator_rejected(self):
        marked = handlebody_boundary(1, 4)
        with pytest.raises(ValueError):
            realize_curve(marked, (2,))


class TestSurgery:
    def test_core_surgery_yields_the_sphere(self):
        m, marks = handlebody_boundary(1, 4)
        out = surgery(m, realize_curve((m, marks), (1,)))
        assert betti_numbers(out) == (1, 0, 0, 0, 1)
        assert out.euler_characteristic() == m.euler_characteristic() + 2

    def test_trivial_surgery_in_sphere(self):
        m, marks = handlebody_boundary(0, 4)
        out = surgery(m, realize_curve((m, marks), ()))
        assert out.euler_characteristic() == 4
        assert betti_numbers(out) == (1, 0, 2, 0, 1)

    def test_doubled_letter_surgery_creates_torsion(self):
        m, marks = handlebody_boundary(1, 4)
        out = surgery(m, realize_curve((m, marks), (1, 1)))
        assert out.euler_characteristic() == 2
        assert h1_style(out) == (0, (2,))

    def test_ambient_mismatch_rejected(self):
        m, marks = handlebody_boundary(1, 4)
        c = realize_curve((m, marks), (1,))
        with pytest.raises(ValueError):
            surgery(simplex_sphere(4), c)


WORDS = st.sampled_from([(1,), (-1,), (2,), (-2,), (1, 2), (2, 1),
                         (-1, -2), (1, -2)])


class TestCascadePlanning:
    @given(st.lists(WORDS, min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_two_generator_mixes(self, relators):
        # every two-letter word in WORDS uses both generators, so one
        # single-letter relator cascades the whole list: the doubles
        # shrink to singles and kill the other generator in turn
        plan = HandlePlan(4, 2, tuple(relators), ((), ()))
        singles = {abs(w[0]) for w in relators if len(w) == 1}
        doubles = [w for w in relators if len(w) == 2]
        if singles:
            ops = _cascade_ops(plan)
            kinds = [k for k, _ in ops]
            assert len(ops) == len(relators) + 2
            assert set(kinds) <= {"core", "trivial"}
            assert kinds.count("core") == (2 if doubles else len(singles))
        elif len(relators) == 1:
            assert [k for k, _ in _cascade_ops(plan)] == [
                "corridor", "trivial", "trivial"]
        else:
            with pytest.raises(DepthError):
                _cascade_ops(plan)

    def test_corridor_op_comes_first(self):
        plan = plan_from_presentation(pres("g|gg"), 4)
        ops = _cascade_ops(plan)
        assert [k for k, _ in ops] == ["corridor", "trivial"]

    def test_substitution_through_killed_generator(self):
        ops = _cascade_ops(plan_from_presentation(pres("a,b|ab,b"), 4))
        assert [k for k, _ in ops] == ["core", "core", "trivial", "trivial"]


class TestRealizeBoundary:
    CASES = ["|", "g|g", "a,b|a,b", "a,b|ab,b"]

    @pytest.mark.parametrize("text", CASES)
    def test_euler_and_first_homology(self, text):
        p = pres(text)
        m = realize_boundary(p, 4)
        assert m.euler_characteristic() == 2 + 2 * len(p.relators)
        assert h1_style(m) == homology_style(abelianization(p))

    def test_shortcut_agrees_with_literal(self):
        p = pres("g|g")
        lit = realize_boundary(p, 4)
        cut = realize_boundary(p, 4, shortcut_trivial=True)
        assert lit.euler_characteristic() == cut.euler_characteristic()
        assert homology(lit) == homology(cut)

    def test_edge_path_group_matches_homology(self):
        m = realize_boundary(pres("a,b|a,b"), 4)
        got = homology_style(abelianization(edge_path_presentation(m)))
        assert got == h1_style(m)

    def test_output_closed(self):
        m = realize_boundary(pres("g|g"), 4)
        assert is_closed_manifold(m, budget=100000).is_yes


class TestReductionReport:
    def test_trivial_group_is_never_distinguished(self):
        rep = reduction_report(pres("g|g"), 4)
        assert rep["equivalence_verdict"]["verdict"] == "consistent-unknown"
        assert rep["pi1_verdict"]["trivial"]["status"] == "yes"
        assert rep["pi1_verdict"]["abelianization"] == {"rank": 0,
                                                        "torsion": []}

    def test_report_shape(self):
        rep = reduction_report(pres("|"), 4)
        assert set(rep) == {"presentation", "n", "invariants_M",
                            "invariants_T", "pi1_verdict",
                            "equivalence_verdict", "budgets"}
        assert rep["n"] == 4
        assert rep["presentation"] == "|"
        assert rep["invariants_M"]["euler_characteristic"] == 2

    def test_edge_path_presentation_is_abelianized_once(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return smith_diagonal(rows)

        abelianization.cache_clear()
        monkeypatch.setattr(groups, "smith_diagonal", counting)
        reduction_report(pres("g|g"), 4)
        assert len(calls) == 1

    def test_worker_count_does_not_change_bytes(self):
        one = reduction_report(pres("g|g"), 4, workers=1)
        eight = reduction_report(pres("g|g"), 4, workers=8)
        assert report_to_text(one) == report_to_text(eight)


def halts_at(table):
    def algo(item, steps):
        t = table.get(item)
        return t is not None and steps >= t
    return algo


class TestDovetail:
    def test_evens(self):
        stream = dovetail(lambda i: i, halts_at({i: 1 for i in range(0, 40, 2)}))
        got = stream.up_to_stage(20)
        assert [(i, s) for i, _, s in got] == [
            (i, i + 1) for i in range(0, 20, 2)]

    def test_instant_halt_preserves_order(self):
        stream = dovetail(lambda i: 10 * i, halts_at({10 * i: 0 for i in range(30)}))
        items = [stream(k) for k in range(10)]
        assert items == [10 * i for i in range(10)]

    def test_never_halts(self):
        stream = dovetail(lambda i: i, halts_at({}))
        assert stream.up_to_stage(30) == []

    @given(st.dictionaries(st.integers(0, 15), st.integers(0, 10),
                           max_size=10))
    @settings(max_examples=40)
    def test_exact_discovery_stage(self, table):
        stream = dovetail(lambda i: i, halts_at(table))
        got = stream.up_to_stage(40)
        assert {i for i, _, _ in got} == set(table)
        for i, item, stage in got:
            assert item == i
            assert stage == i + table[i]

    def test_indices_never_repeat(self):
        stream = dovetail(lambda i: i % 3, halts_at({0: 0, 1: 0, 2: 0}))
        got = stream.up_to_stage(25)
        assert len(got) == 26  # one fresh index per stage, reruns skipped
        assert len({i for i, _, _ in got}) == 26


def cycle_complex(m):
    return Complex([[i, (i + 1) % m] for i in range(m)])


class TestEnumeration:
    def test_circles_up_to_ten_facets(self):
        sigs = list(enumerate_spheres(1, 10))
        want = {cycle_complex(m).iso_signature() for m in range(3, 11)}
        assert len(sigs) == len(set(sigs)) == 8
        assert set(sigs) == want

    def test_minimal_two_sphere_alone_under_tight_cap(self):
        assert list(enumerate_spheres(2, 4)) == [
            simplex_sphere(2).iso_signature()]

    def test_two_spheres_up_to_eight_facets_match_oracle(self):
        sigs = set(enumerate_spheres(2, 8))
        want = {r.iso_signature() for r in two_sphere_triangulations(8)}
        assert sigs == want
        assert len(sigs) == 4

    def test_tight_cap_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_spheres(2, 3))

    def test_edge_subcomplexes(self):
        sigs = list(enumerate_subcomplexes(standard_simplex(1)))
        assert len(sigs) == len(set(sigs)) == 3

    def test_triangle_subcomplexes_match_oracle(self):
        sigs = list(enumerate_subcomplexes(standard_simplex(2)))
        assert len(sigs) == subcomplex_classes_exhaustive(
            standard_simplex(2)) == 8

    def test_hollow_triangle_subcomplexes(self):
        sigs = list(enumerate_subcomplexes(simplex_sphere(1)))
        assert len(sigs) == subcomplex_classes_exhaustive(
            simplex_sphere(1)) == 7
