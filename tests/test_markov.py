import dataclasses
import itertools
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmarkov import groups, markov
from plmarkov.builders import connected_sum, simplex_sphere, sphere_product, standard_simplex
from plmarkov.complex_core import Complex
from plmarkov.groups import (abelianization, edge_path_presentation,
                             parse_presentation)
from plmarkov.invariants import betti_numbers, homology, smith_diagonal
from plmarkov.markov import (DepthError, HandlePlan, dovetail,
                             enumerate_spheres, enumerate_subcomplexes,
                             handlebody_boundary, plan_from_presentation,
                             realize_boundary, realize_curve,
                             reduction_report, surgery,
                             _cascade_ops, _check_edge_path, _move_neighbors)
from plmarkov.recognition import is_closed_manifold
from plmarkov.stellar_moves import (stellar_subdivide, stellar_weld,
                                    subdivision_candidates, weld_candidates)
from oracles import (enumerate_spheres_unpruned, mod2_triangle_boundary,
                     move_neighbors_unpruned, subcomplex_classes_exhaustive,
                     two_sphere_triangulations)


def pres(text):
    return parse_presentation(text)


def h1_style(cx):
    prof = homology(cx).to_json()
    return prof[1]["betti"], tuple(prof[1]["torsion"])


def rank_torsion(ab):
    return ab.rank, ab.torsion


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

    def test_inverse_doubled_letter_keeps_the_corridor_direction(self):
        # g^-2 attaches the same 2-handle as g^2; the corridor's lane hop
        # is in product position only forwards
        marked = handlebody_boundary(1, 4)
        fwd = realize_curve(marked, (1, 1))
        back = realize_curve(marked, (-1, -1))
        assert back.path == fwd.path
        assert back.sections == fwd.sections
        assert back.ambient == fwd.ambient
        # the blocks keep the word's letters, as a commutator's do
        assert back.blocks == ((-1, (0, 3)), (-1, (3, 6)))
        surgery(marked[0], back)

    def test_inverse_commutator_keeps_the_corridor_direction(self):
        marked = handlebody_boundary(2, 4)
        fwd = realize_curve(marked, (1, 2, -1, -2))
        back = realize_curve(marked, (-1, -2, 1, 2))
        assert back.path == fwd.path
        assert back.blocks[0] == (-1, (0, 2))

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

    def test_planted_ambient_of_another_euler_characteristic_rejected(self):
        m, marks = handlebody_boundary(1, 4)
        c = realize_curve((m, marks), ())
        assert c.ambient is not m
        assert betti_numbers(surgery(m, c)) == (1, 1, 2, 1, 1)
        # one more summand moves chi by -2, and the sections are never read
        bad = dataclasses.replace(c, ambient=connected_sum(c.ambient, sphere_product(1, 3)))
        with pytest.raises(ValueError, match="curve ambient does not match the given complex"):
            surgery(m, bad)

    def test_ambient_identical_to_m_needs_no_recount(self):
        m, marks = handlebody_boundary(1, 4)
        c = realize_curve((m, marks), (1,))
        assert c.ambient is m
        with mock.patch.object(Complex, "euler_characteristic",
                               side_effect=AssertionError("recounted")):
            out = surgery(m, c)
        assert out == markov.do_surgery(m, list(c.sections), c.model, c.center)


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
        assert h1_style(m) == rank_torsion(abelianization(p))

    def test_shortcut_agrees_with_literal(self):
        # the core surgery, then a connected sum with S2 x S2 in place of
        # the trivial-curve surgery
        lit = realize_boundary(pres("g|g"), 4)
        marked = handlebody_boundary(1, 4)
        core = surgery(marked[0], realize_curve(marked, (1,)))
        cut = connected_sum(core, sphere_product(2, 2))
        assert lit.euler_characteristic() == cut.euler_characteristic()
        assert homology(lit) == homology(cut)

    def test_edge_path_group_matches_homology(self):
        m = realize_boundary(pres("a,b|a,b"), 4)
        got = rank_torsion(abelianization(edge_path_presentation(m)))
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
        # M(g|g) collapses to no generator and needs no Smith call
        reduction_report(pres("g|gg"), 4)
        assert len(calls) == 1


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
        # at the call, before any signature is asked for
        with pytest.raises(ValueError, match="cap must admit the minimal sphere"):
            enumerate_spheres(2, 3)

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


@pytest.mark.parametrize("n,cap", [(1, 12), (2, 12), (3, 11)])
def test_census_matches_the_unpruned_census_in_order(n, cap):
    assert list(enumerate_spheres(n, cap)) == list(enumerate_spheres_unpruned(n, cap))


def _scan(cx):
    """Every move on cx in the census's scan order, as the arguments
    after cx: (s,) for a subdivision, (v, s) for a weld."""
    subs = sorted(subdivision_candidates(cx), key=lambda f: sorted(f))
    return [(s,) for s in subs] + list(weld_candidates(cx))


def _image(g, move):
    return tuple(g[x] if isinstance(x, int) else frozenset(g[v] for v in x)
                 for x in move)


def _orbit(move, autos):
    orbit, todo = {move}, [move]
    while todo:
        m = todo.pop()
        for g in autos:
            img = _image(g, m)
            if img not in orbit:
                orbit.add(img)
                todo.append(img)
    return orbit


def _applied_moves(cx, cap=10 ** 6):
    """The moves that ``_move_neighbors`` applies on cx, in order, and
    the neighbours it yields."""
    applied = []

    def record(move):
        def run(c, *args):
            applied.append(args)
            return move(c, *args)
        return run

    with mock.patch.object(markov, "stellar_subdivide", record(stellar_subdivide)), \
            mock.patch.object(markov, "stellar_weld", record(stellar_weld)):
        built = list(_move_neighbors(cx, cap))
    return applied, built


@st.composite
def symmetric_complexes(draw):
    """A simplex sphere (dimension 1-4) or the torus sphere_product(1, 1),
    after up to three random stellar moves, randomly relabelled."""
    cx = draw(st.sampled_from([simplex_sphere(d) for d in range(1, 5)]
                              + [sphere_product(1, 1)]))
    for pick in draw(st.lists(st.integers(0, 999), max_size=3)):
        scan = _scan(cx)
        move = scan[pick % len(scan)]
        cx = stellar_subdivide(cx, *move) if len(move) == 1 else stellar_weld(cx, *move)
    rng = draw(st.randoms(use_true_random=False))
    verts = cx.vertices
    return cx.relabeled(dict(zip(verts, rng.sample(range(5 * len(verts)), len(verts)))))


class TestOrbitPruning:
    @settings(max_examples=40)
    @given(symmetric_complexes())
    def test_cached_automorphisms_are_nonidentity_automorphisms(self, cx):
        facets = set(cx.facets)
        for g in cx.automorphisms():
            assert sorted(g) == sorted(g.values()) == list(cx.vertices)
            assert {frozenset(g[v] for v in f) for f in facets} == facets
            assert any(g[v] != v for v in g)

    def test_empty_complex_has_no_cached_automorphisms(self):
        assert Complex([]).automorphisms() == ()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simplex_sphere_builds_one_neighbour_per_face_dimension(self, d):
        sx = simplex_sphere(d)
        applied, built = _applied_moves(sx)
        assert all(len(m) == 1 for m in applied)  # the minimal sphere has no welds
        assert sorted(len(s) for s, in applied) == list(range(2, d + 2))
        assert len(built) == d
        unpruned = list(move_neighbors_unpruned(sx, 10 ** 6))
        assert len(unpruned) == sum(math.comb(d + 2, k + 1) for k in range(1, d + 1))

    @settings(max_examples=30)
    @given(symmetric_complexes())
    def test_scan_applies_the_first_move_of_each_orbit(self, cx):
        autos = cx.automorphisms()
        scan = _scan(cx)
        firsts = []
        for move in scan:
            if not any(move in _orbit(f, autos) for f in firsts):
                firsts.append(move)
        applied, built = _applied_moves(cx)
        assert applied == firsts
        assert len(built) == len(applied)
        # no two applied moves share an orbit
        for i, move in enumerate(applied):
            assert not _orbit(move, autos) & set(applied[:i])

    @settings(max_examples=30)
    @given(symmetric_complexes(), st.integers(0, 6))
    def test_no_subdivision_above_the_cap_is_built(self, cx, slack):
        cap = len(cx.facets) + slack
        sizes = []

        def sized(c, s):
            out = stellar_subdivide(c, s)
            sizes.append(len(out.facets))
            return out

        with mock.patch.object(markov, "stellar_subdivide", sized):
            got = list(_move_neighbors(cx, cap))
        assert all(n <= cap for n in sizes)
        # the same neighbours, in the same order, as building every one
        assert got == [o for o in _move_neighbors(cx, 10 ** 6) if len(o.facets) <= cap]


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
                min_size=1, max_size=5),
       st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True))
def test_edge_path_check_matches_a_facet_scan(facets, path):
    cx = Complex.generated_by(facets)
    closed = zip(path, path[1:] + path[:1])
    on_skeleton = all(any(u in f and v in f for f in cx.facets) for u, v in closed)
    try:
        _check_edge_path(cx, path)
        assert on_skeleton
    except ValueError as e:
        assert not on_skeleton and str(e) == "curve path leaves the 1-skeleton"


def test_edge_path_check_builds_no_incidence_index():
    cx = Complex([(0, 1, 2), (1, 2, 3)])
    _check_edge_path(cx, [0, 1, 3, 2])
    with pytest.raises(ValueError):
        _check_edge_path(cx, [0, 3, 1])
    assert "incidence" not in cx._cache
