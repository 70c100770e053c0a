import itertools

import pytest

from plmarkov.builders import ordered_product_with_chart, simplex_sphere
from plmarkov.complex_core import Complex
from plmarkov.fabric import (commutator_corridor, double_lap_corridor,
                             handle_chain, marked_csum, plant_trivial_loop,
                             star_ball, trivial_loop_prefab)
from plmarkov.invariants import betti_numbers
from plmarkov.surgery import staircase_cap

from oracles import prefab_bands_by_mantle


class TestMarkedSum:
    def test_left_side_never_relabeled(self):
        a = simplex_sphere(4)
        b = simplex_sphere(4)
        fa = min(a.facets, key=sorted)
        fb = min(b.facets, key=sorted)
        out, lift = marked_csum(a, fa, b, fb)
        kept = set(a.facets) - {fa}
        assert kept <= set(out.facets)
        assert set(a.vertices) <= set(out.vertices)

    def test_sum_of_spheres_is_a_sphere(self):
        a = simplex_sphere(4)
        fa = min(a.facets, key=sorted)
        out, lift = marked_csum(a, fa, a, fa)
        assert out.euler_characteristic() == 2
        assert out.is_closed_pseudomanifold()

    def test_lift_covers_the_right_side(self):
        a = simplex_sphere(4)
        fa = min(a.facets, key=sorted)
        out, lift = marked_csum(a, fa, a, fa)
        assert set(lift) == set(a.vertices)
        for f in a.facets:
            if f == fa:
                continue
            assert frozenset(lift[v] for v in f) in set(out.facets)

    def test_negative_labels_are_shifted_past_the_left_side(self):
        a = simplex_sphere(2)
        b = simplex_sphere(2).relabeled({v: v - 4 for v in range(4)})
        out, lift = marked_csum(a, min(a.facets, key=sorted),
                                b, min(b.facets, key=sorted))
        assert lift[-1] > max(a.vertices)
        assert out.euler_characteristic() == 2
        assert out.is_closed_pseudomanifold()


class TestPrefab:
    def test_prefab_is_a_sphere(self):
        prefab, secs, ball, donor = trivial_loop_prefab(4)
        assert betti_numbers(prefab) == (1, 0, 0, 0, 1)
        assert donor in set(prefab.facets)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_prefab_matches_the_mantle_band_oracle(self, n):
        # the bands that resolve_tube detects are the ones whose
        # staircase chunks lie on the solid torus's boundary
        ball = star_ball(simplex_sphere(n - 1), 0)
        solid, chart = ordered_product_with_chart(simplex_sphere(1), ball)
        fresh = itertools.count(solid.vertices[-1] + 1).__next__
        cap = staircase_cap(prefab_bands_by_mantle(n), ball.link([0]), fresh)
        donor = max(cap, key=lambda f: (len(f - set(solid.vertices)),
                                        tuple(sorted(f))))
        secs = tuple({s: chart[(t, s)] for s in ball.vertices} for t in range(3))
        want = (Complex(set(solid.facets) | cap).facets, secs, ball, donor)
        got = trivial_loop_prefab(n)
        assert (got[0].facets, *got[1:]) == want

    def test_prefab_is_built_once_and_read_only(self):
        prefab, secs, ball, donor = trivial_loop_prefab(4)
        assert trivial_loop_prefab(4)[0] is prefab
        with pytest.raises(TypeError):
            secs[0][0] = -1
        with pytest.raises(TypeError):
            secs[0] = {}

    def test_plant_preserves_host_topology(self):
        host = simplex_sphere(4)
        planted, secs, ball = plant_trivial_loop(host, 4)
        assert planted.euler_characteristic() == 2
        assert planted.is_closed_pseudomanifold()
        assert len(secs) == 3

    def test_plant_respects_avoided_labels(self):
        host = simplex_sphere(4)
        planted, secs, ball = plant_trivial_loop(host, 4, avoid={0})
        kept = {f for f in host.facets if 0 in f}
        assert kept <= set(planted.facets)

    def test_plant_needs_a_clear_facet(self):
        host = simplex_sphere(4)
        with pytest.raises(ValueError):
            plant_trivial_loop(host, 4, avoid=frozenset(host.vertices))


class TestHandleChain:
    def test_zero_handles(self):
        amb, secs, ball = handle_chain(0, 4)
        assert amb == simplex_sphere(4)
        assert not secs

    def test_sections_disjoint_core_circles(self):
        amb, secs, ball = handle_chain(2, 4)
        cores = [tuple(col[0] for col in gen) for gen in secs]
        assert len(set(cores[0]) & set(cores[1])) == 0


class TestCorridors:
    def test_double_lap_ambient(self):
        amb, secs, model = double_lap_corridor()
        assert amb.is_closed_pseudomanifold()
        assert amb.is_orientable()
        assert amb.euler_characteristic() == 0
        assert len(secs) == 6

    def test_commutator_ambient(self):
        amb, secs, fiber = commutator_corridor()
        assert amb.is_closed_pseudomanifold()
        assert amb.is_orientable()
        assert amb.euler_characteristic() == -2

    def test_star_ball_of_a_sphere_vertex(self):
        s = simplex_sphere(3)
        ball = star_ball(s, min(s.vertices))
        assert ball.euler_characteristic() == 1
        assert not ball.is_closed_pseudomanifold()
