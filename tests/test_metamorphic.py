"""Metamorphic tests from PL invariance, on spheres.

Stellar subdivisions, welds and relabellings keep the PL homeomorphism
type (Alexander-Newman; Lickorish, "Simplicial moves on complexes and
manifolds", Geom. Topol. Monographs 2, 1999).  So a random walk of
moves from the boundary of a simplex ends on a combinatorial sphere:
sphere recognition may answer Unknown there, never No, and each answer
must be the gates-first oracle's.
"""

from hypothesis import given, settings, strategies as st

from plmarkov.builders import simplex_sphere
from plmarkov.complex_core import barycentric_subdivision
from plmarkov.recognition import is_combinatorial_sphere
from plmarkov.stellar_moves import (apply_certificate, format_certificate, stellar_subdivide,
                                    stellar_weld, subdivision_candidates, weld_candidates)

from oracles import is_combinatorial_sphere_gates_first

# the small budget cuts some descents short, so the gates, the
# homology gate and the two-sided search run on a sphere too
BUDGETS = (16, 2000)

BASES = {
    "s1": simplex_sphere(1),
    "s2": simplex_sphere(2),
    "s3": simplex_sphere(3),
    "barycentric-s2": barycentric_subdivision(simplex_sphere(2)),
}


@st.composite
def sphere_walks(draw):
    """A base sphere and 1-8 stellar moves from it, relabelled onto
    spread-out labels."""
    cx = BASES[draw(st.sampled_from(sorted(BASES)))]
    for _ in range(draw(st.integers(1, 8))):
        moves = ([(stellar_subdivide, (s,)) for s in subdivision_candidates(cx)]
                 + [(stellar_weld, vs) for vs in weld_candidates(cx)])
        move, args = draw(st.sampled_from(moves))
        cx = move(cx, *args)
    images = draw(st.permutations(range(7, 7 + 3 * len(cx.vertices), 3)))
    return cx.relabeled(dict(zip(cx.vertices, images)))


@settings(max_examples=150)
@given(sphere_walks(), st.sampled_from(BUDGETS))
def test_walked_spheres_are_never_rejected_and_match_the_oracle(cx, budget):
    v = is_combinatorial_sphere(cx, budget)
    old = is_combinatorial_sphere_gates_first(cx, budget)
    assert not v.is_no
    assert v.to_json() == old.to_json()
    if v.is_yes:
        assert format_certificate(v.witness) == format_certificate(old.witness)
        assert apply_certificate(cx, v.witness) == simplex_sphere(cx.dim)
