"""Acceptance gates for the whole package, one test per criterion.

Each test prints one pass/fail line under ``pytest -v``.  Wall-clock
limits are asserted inside the tests; shared session fixtures keep the
expensive constructions to one build each.
"""

import hashlib
import random
import time
from types import SimpleNamespace

import pytest

from plmarkov import complex_core, stellar_moves
from plmarkov.builders import (reference_manifold, simplex_sphere,
                               sphere_product, standard_simplex)
from plmarkov.complex_core import Complex, IsoIndex, barycentric_subdivision, to_text
from plmarkov.fabric import trivial_loop_prefab
from plmarkov.groups import (abelianization, edge_path_presentation,
                             parse_presentation)
from plmarkov.invariants import betti_numbers, boundary_matrix, homology, smith_diagonal
from plmarkov.markov import (dovetail, enumerate_spheres,
                             enumerate_subcomplexes, realize_boundary,
                             reduction_report, report_to_text)
from plmarkov.recognition import (classify_links, is_closed_manifold,
                                  is_combinatorial_sphere)
from plmarkov.stellar_moves import (apply_certificate, format_certificate,
                                    search_equivalence, weld_candidates)
from test_stellar_moves import assert_children_match_the_sorting_oracle
from oracles import (boundary_matrix_by_slices, edge_path_presentation_collapsed,
                     first_weld_by_incidence, is_combinatorial_sphere_gates_first,
                     isomorphism_by_canonical_search, link_splits_min_first,
                     smith_diagonal_min_key, subcomplex_classes_exhaustive,
                     weld_candidates_unpruned)

BUDGET = 100000
PRESENTATIONS = ("|", "g|g", "g|gg", "a,b|a,b", "a,b|ab,b", "a,b|abAB")
NONTRIVIAL = {"g|gg", "a,b|abAB"}


def wedge_of_spheres():
    # two 2-spheres sharing exactly one vertex
    base = simplex_sphere(2)
    shifted = [frozenset(v + 10 if v != 0 else 0 for v in f)
               for f in base.facets]
    return Complex(list(base.facets) + shifted)


def mobius_strip():
    return Complex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]])


def h1_of(cx):
    entry = homology(cx).to_json()[1]
    return entry["betti"], tuple(entry["torsion"])


def distinct_links(cx):
    """One representative per isomorphism class of vertex links."""
    links = IsoIndex()
    for v in cx.vertices:
        links.add(cx.link([v]))
    return links.members


@pytest.fixture(scope="session")
def standard_complexes():
    return {
        "boundary-5-simplex": simplex_sphere(4),
        "torus": sphere_product(1, 1),
        "s1-x-s3": sphere_product(1, 3),
        "s2-x-s2": sphere_product(2, 2),
        "ref-2-4": reference_manifold(2, 4),
    }


@pytest.fixture(scope="session")
def markov_manifolds():
    return {t: realize_boundary(parse_presentation(t), 4)
            for t in PRESENTATIONS}


@pytest.fixture(scope="session")
def closed_check(standard_complexes, markov_manifolds):
    """Verdicts and classification reports for the whole recognition
    corpus, with the wall time they took."""
    yes = {"simplex-boundary": simplex_sphere(3)}
    for k in ("torus", "s1-x-s3", "s2-x-s2", "ref-2-4"):
        yes[k] = standard_complexes[k]
    for t, m in markov_manifolds.items():
        yes["m(%s)" % t] = m
    no = {"solid-simplex": standard_simplex(4),
          "wedge": wedge_of_spheres(),
          "mobius": mobius_strip()}
    t0 = time.monotonic()
    verdicts = {}
    blobs = {}
    for name, cx in {**yes, **no}.items():
        verdicts[name] = is_closed_manifold(cx, budget=BUDGET)
        blobs[name] = classify_links(cx, BUDGET).to_text()
    elapsed = time.monotonic() - t0
    return SimpleNamespace(yes=yes, no=no, verdicts=verdicts,
                           blobs=blobs, elapsed=elapsed)


@pytest.fixture(scope="session")
def markov_reports():
    t0 = time.monotonic()
    reports = {t: reduction_report(parse_presentation(t), 4)
               for t in PRESENTATIONS}
    elapsed = time.monotonic() - t0
    texts = {t: report_to_text(r) for t, r in reports.items()}
    return SimpleNamespace(reports=reports, texts=texts, elapsed=elapsed)


def test_criterion_1_standard_invariants():
    t0 = time.monotonic()
    s4 = simplex_sphere(4)
    assert s4.f_vector() == (6, 15, 20, 15, 6)
    assert s4.euler_characteristic() == 2

    torus = sphere_product(1, 1)
    assert torus.f_vector() == (9, 27, 18)
    assert torus.euler_characteristic() == 0

    s1s3 = sphere_product(1, 3)
    assert len(s1s3.vertices) == 15
    assert len(s1s3.facets) == 60
    assert betti_numbers(s1s3) == (1, 1, 0, 1, 1)

    s2s2 = sphere_product(2, 2)
    assert betti_numbers(s2s2) == (1, 0, 2, 0, 1)
    assert s2s2.euler_characteristic() == 4

    ref = reference_manifold(2, 4)
    assert ref.euler_characteristic() == 6
    h2 = homology(ref).to_json()[2]
    assert (h2["betti"], h2["torsion"]) == (4, [])
    assert time.monotonic() - t0 < 5


def test_criterion_2_recognition_suite(closed_check):
    t0 = time.monotonic()
    for name in closed_check.yes:
        assert closed_check.verdicts[name].is_yes, name
    for name in closed_check.no:
        assert closed_check.verdicts[name].is_no, name
    # every Yes rests on per-link sphere certificates; replay each one
    for name, cx in closed_check.yes.items():
        for lk in distinct_links(cx):
            ver = is_combinatorial_sphere(lk, BUDGET)
            assert ver.is_yes, name
            assert apply_certificate(lk, ver.witness) == simplex_sphere(lk.dim)
    assert closed_check.elapsed + (time.monotonic() - t0) < 60


def test_gate_2_links_match_the_unpruned_and_gates_first_oracles(closed_check):
    # the degree-pruned weld scan and the certificate-first sphere check
    # against the scan and the gate order they replaced
    for name, cx in {**closed_check.yes, **closed_check.no}.items():
        for lk in distinct_links(cx):
            assert list(weld_candidates(lk)) == weld_candidates_unpruned(lk), name
            new = is_combinatorial_sphere(lk, BUDGET)
            old = is_combinatorial_sphere_gates_first(lk, BUDGET)
            assert new.to_json() == old.to_json(), name
            if new.is_yes:
                assert (format_certificate(new.witness)
                        == format_certificate(old.witness)), name


def test_gate_2_link_children_match_the_sorting_oracle(closed_check):
    # every weld, subdivision, vertex and edge link and star of each
    # manifold's links, against the facets sorted and labels counted afresh
    for cx in closed_check.yes.values():
        for lk in distinct_links(cx):
            assert_children_match_the_sorting_oracle(lk)


def test_gate_2_weld_scans_match_the_incidence_oracles(closed_check):
    # every star the corpus judges against the min-first split oracle,
    # and every state its descents scan against the scan that reads
    # stars off the incidence index; a scan that finds a weld builds no
    # incidence index
    stars, scans = {}, []

    def judging(v, star, real=stellar_moves._link_splits):
        stars[v, star] = real(v, star)
        return stars[v, star]

    def scanning(cx, table, real=stellar_moves._welds):
        indexed = "incidence" in cx._cache
        welds = real(cx, table)
        weld = next(welds, None)
        scans.append((cx, weld, indexed, "incidence" in cx._cache))
        if weld is not None:
            yield weld
            yield from welds

    with pytest.MonkeyPatch.context() as m:
        m.setattr(stellar_moves, "_link_splits", judging)
        m.setattr(stellar_moves, "_welds", scanning)
        for name, cx in {**closed_check.yes, **closed_check.no}.items():
            verdict = is_closed_manifold(Complex(cx.facets), budget=BUDGET)
            assert verdict.to_json() == closed_check.verdicts[name].to_json(), name
    for (v, star), splits in stars.items():
        assert splits == link_splits_min_first(v, star)
    for cx, weld, _, _ in scans:
        assert weld == first_weld_by_incidence(Complex._from_trusted(cx.facets), {})
    welds = [(before, after) for _, weld, before, after in scans if weld is not None]
    assert all(after == before for before, after in welds)
    assert sum(not before for before, _ in welds) > len(welds) // 2


def _relabeled(cx, rng):
    return cx.relabeled(dict(zip(cx.vertices, rng.sample(range(4 * len(cx.vertices)),
                                                         len(cx.vertices)))))


def test_simplex_boundary_end_maps_are_the_isomorphisms(closed_check):
    # isomorphism maps two boundaries of simplices in label order without
    # a search; on every such pair the descents of the gate-2 corpus and
    # of the census subdivision searches compare, that map is the one the
    # canonical search finds, entry for entry, and the check is sharp: the
    # reverse label order, also an isomorphism, fails it
    ends = []

    def recording(a, b, real=stellar_moves.isomorphism):
        psi = real(a, b)
        if (a.dim == b.dim and complex_core._is_simplex_boundary(a)
                and complex_core._is_simplex_boundary(b)):
            ends.append((a, b, psi))
        return psi

    rng = random.Random(26)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(stellar_moves, "isomorphism", recording)
        for name, cx in {**closed_check.yes, **closed_check.no}.items():
            verdict = is_closed_manifold(Complex(cx.facets), budget=BUDGET)
            assert verdict.to_json() == closed_check.verdicts[name].to_json(), name
        gate2 = len(ends)
        for d in (2, 3):
            left = _relabeled(simplex_sphere(d), rng)
            right = _relabeled(barycentric_subdivision(simplex_sphere(d)), rng)
            v = search_equivalence(left, right, BUDGET)
            assert apply_certificate(left, v.witness) == right
    assert 0 < gate2 < len(ends)
    for a, b, psi in ends:
        want = list(isomorphism_by_canonical_search(
            Complex(a.facets), Complex(b.facets)).items())
        assert list(psi.items()) == want
        assert list(zip(a.vertices, reversed(b.vertices))) != want


def test_criterion_3_certificate_round_trip():
    t0 = time.monotonic()
    a = simplex_sphere(2)
    sd = barycentric_subdivision(a)
    v = search_equivalence(a, sd, BUDGET)
    assert v.is_yes
    assert apply_certificate(a, v.witness) == sd
    assert time.monotonic() - t0 < 30


def test_criterion_4_reduction_pipeline(markov_reports):
    for text in PRESENTATIONS:
        rep = markov_reports.reports[text]
        p = parse_presentation(text)
        inv = rep["invariants_M"]
        assert inv["euler_characteristic"] == 2 + 2 * len(p.relators), text
        want = abelianization(p)
        h1 = inv["homology"][1]
        assert (h1["betti"], tuple(h1["torsion"])) == \
            (want.rank, want.torsion), text
        verdict = rep["equivalence_verdict"]["verdict"]
        if text in NONTRIVIAL:
            assert verdict == "distinguished", text
            assert "H1" in rep["equivalence_verdict"]["obstruction"]
        else:
            assert verdict != "distinguished", text
    assert markov_reports.elapsed < 600


def test_criterion_5_edge_path_cross_oracle(standard_complexes,
                                            markov_manifolds):
    corpus = dict(standard_complexes)
    corpus["simplex-boundary"] = simplex_sphere(3)
    corpus["solid-simplex"] = standard_simplex(4)
    corpus["wedge"] = wedge_of_spheres()
    corpus["mobius"] = mobius_strip()
    corpus["tetra-boundary"] = simplex_sphere(2)
    corpus["tetra-subdivided"] = barycentric_subdivision(simplex_sphere(2))
    corpus["ref-0-4"] = reference_manifold(0, 4)
    corpus["ref-1-4"] = reference_manifold(1, 4)
    for t, m in markov_manifolds.items():
        corpus["m(%s)" % t] = m
    for name, cx in corpus.items():
        got = abelianization(edge_path_presentation(cx))
        assert (got.rank, got.torsion) == h1_of(cx), name


# (generators, relators) of edge_path_presentation(M): the spanning
# tree alone left 10, 164, 1,676, 322, 322 and 843 generators
EDGE_PATH_SIZES = {
    "|": (0, 0),
    "g|g": (0, 0),
    "g|gg": (158, 637),
    "a,b|a,b": (0, 0),
    "a,b|ab,b": (0, 0),
    "a,b|abAB": (178, 664),
}


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_gate4_edge_path_presentations_match_the_collapse_oracle(markov_manifolds, text):
    got = edge_path_presentation(markov_manifolds[text])
    assert got == edge_path_presentation_collapsed(markov_manifolds[text])
    assert (got.num_generators, len(got.relators)) == EDGE_PATH_SIZES[text]


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_gate4_boundaries_match_the_slicing_and_min_key_oracles(markov_manifolds, text):
    cx = markov_manifolds[text]
    for k in range(1, cx.dim + 1):
        rows = boundary_matrix(cx, k)
        assert rows == boundary_matrix_by_slices(cx, k), k
        units, expect = set(), set()
        assert smith_diagonal(rows, units) == smith_diagonal_min_key(rows, expect), k
        assert units == expect, k


def synthetic_pairs():
    enumerators = [
        lambda i: i,
        lambda i: 2 * i,
        lambda i: i + 7,
        lambda i: i * i,
        lambda i: "w%d" % i,
    ]
    rng = random.Random(1405)
    pairs = []
    for k in range(20):
        enum = enumerators[k % len(enumerators)]
        size = rng.randint(0, 7)
        table = {i: rng.randint(0, 9)
                 for i in rng.sample(range(14), size)}
        pairs.append((enum, table))
    return pairs


def test_criterion_6_dovetailer():
    t0 = time.monotonic()
    for enum, table in synthetic_pairs():
        halts = {enum(i): s for i, s in table.items()}

        def algo(item, steps, halts=halts):
            return item in halts and steps >= halts[item]

        want = sorted(((i + s, i, enum(i)) for i, s in table.items()))
        got = dovetail(enum, algo).up_to_stage(25)
        assert got == [(i, item, stage) for stage, i, item in want]
    assert time.monotonic() - t0 < 5


def test_criterion_7_enumeration():
    t0 = time.monotonic()
    sigs = list(enumerate_spheres(1, 10))
    cycles = {Complex([[i, (i + 1) % m] for i in range(m)]).iso_signature()
              for m in range(3, 11)}
    assert len(sigs) == 8
    assert set(sigs) == cycles

    assert list(enumerate_spheres(2, 4)) == [
        simplex_sphere(2).iso_signature()]

    subs = list(enumerate_subcomplexes(standard_simplex(2)))
    assert len(subs) == len(set(subs)) == 8
    assert subcomplex_classes_exhaustive(standard_simplex(2)) == 8
    assert time.monotonic() - t0 < 30


def test_criterion_8_determinism(closed_check, markov_reports):
    # the reruns start cold: fresh copies of the inputs, and no reference
    # complex, prefab or abelianization carried over from the first run
    for cached in (simplex_sphere, standard_simplex, reference_manifold,
                   trivial_loop_prefab, abelianization):
        cached.cache_clear()
    for name, cx in {**closed_check.yes, **closed_check.no}.items():
        redo = classify_links(Complex(cx.facets), BUDGET).to_text()
        assert redo == closed_check.blobs[name], name

    a = simplex_sphere(2)
    sd = barycentric_subdivision(a)
    first = format_certificate(search_equivalence(a, sd, BUDGET).witness)
    second = format_certificate(search_equivalence(a, sd, BUDGET).witness)
    assert first == second

    for text in PRESENTATIONS:
        redo = report_to_text(reduction_report(parse_presentation(text), 4))
        assert redo == markov_reports.texts[text], text


# sha256 of to_text(realize_boundary(P, 4)): every surgery cap and
# every summand's labels enter these bytes
REALIZED_SHA256 = {
    "|": "c931f73e4f2f9ebe08f8b18c164e6f3975c3c7870ef61be9cf1ec384bda21860",
    "g|g": "0dfea68be344697e7318865eec2b4d26738299b965dee5f71f713efd95256417",
    "g|gg": "9b54a925eae24485530ae13cb6c9c759645a8c72121f669044c7fc33af0b562b",
    "a,b|a,b": "e281a72835869afd67e2fd4fdc15de5b3be3583d612b3bf1bbf715a0426c2a3c",
    "a,b|ab,b": "4c3069a0bcca00089c7009601a1dcf0a26441b7de02637e2ec5fd272419ed947",
    "a,b|abAB": "b7c0ef0f85b53ea811ae836df7f8866d3e2686acdc23290d9cd8dd71db3997b7",
}


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_realized_manifolds_are_pinned(markov_manifolds, text):
    blob = to_text(markov_manifolds[text]).encode()
    assert hashlib.sha256(blob).hexdigest() == REALIZED_SHA256[text]


# sha256 of report_to_text(reduction_report(P, 4)): gate 8 compares the
# reports only within one run, so these pins catch a change that alters
# every run alike
REPORT_SHA256 = {
    "|": "710dc126de2d7d60eae610402b7a868e845e54ddf955821b8b3dc3ba5ba21684",
    "g|g": "5da8c823f9bc24727f9cc676067d92b96e1bf315157fe1605dbbaa5e350145b6",
    "g|gg": "600c791b50b453f6c0dc3815a2f4ea23e0bd57349723effe2ebaba3930e1c4ac",
    "a,b|a,b": "c19b0f9e0f45d0b829dbac24d7c5d20e0e02048fc9d789ac0d3a83c6776c0096",
    "a,b|ab,b": "c630b366047adc2c8fb9bdbb09ad47c3e760f3452de1a5a74f20ce16a60ad989",
    "a,b|abAB": "befbf2e8fb3f0c9152246766c4a29d1067c1b4a7d01adb5b1c41116c534ad7ed",
}


@pytest.mark.parametrize("text", PRESENTATIONS)
def test_gate4_reports_are_pinned(markov_reports, text):
    blob = markov_reports.texts[text].encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_SHA256[text]


# sha256 of the sphere certificates of the distinct vertex links of each
# gate-2 manifold, in the order of distinct_links, each headed by
# "# link <index>"; the descent's move choices all enter these bytes
LINK_CERT_SHA256 = {
    "simplex-boundary": "31091b974d760a38b18d2cbb14a546b6873a8b7b87062d970e1ab6130282c38a",
    "torus": "4a5f844cc4b788cb3d34746aacbd324e5dd6fd3b7ada19be45bd0af89b50d7ad",
    "s1-x-s3": "d022a3fb5b87f243cbfef125492976e8a95f0169532e0da717c19ca408655a86",
    "s2-x-s2": "6677c324646d39cdc677e7dc451380b54ca62da7c99229526de0fbcd82c37998",
    "ref-2-4": "6cf6fd152f1f5a6859340cb31144a7793d13d8a6bbd992c6dd1de184027f41ca",
    "m(|)": "ff4ded61917c706f5cbb48c1145fd53c99da2885d4f9cfd3e247e679f30c615e",
    "m(g|g)": "cbee699b807c0e68ce99ceb60a086062aa37f721b61baacf72770cd653579bda",
    "m(g|gg)": "d0441941e8443d1adf95ce3352c1ee5ea46ddcbfd89143ebf09fb68ab2a0847a",
    "m(a,b|a,b)": "37235824feb02f13dbd13f36cddc30bd12577110f115b69d394a5ff104b16872",
    "m(a,b|ab,b)": "bd308f5587931c9b14bd7c75a4aae73a85ec2d713d48d1fafabcdd193ed9f349",
    "m(a,b|abAB)": "5631bc1d3c4661927cf66fcab8400803a60b5444fa13d2242cee6a51dfaef27b",
}


@pytest.mark.parametrize("name", LINK_CERT_SHA256)
def test_gate_2_link_certificates_are_pinned(closed_check, name):
    texts = [format_certificate(is_combinatorial_sphere(lk, BUDGET).witness)
             for lk in distinct_links(closed_check.yes[name])]
    blob = "".join("# link %d\n%s" % (i, t) for i, t in enumerate(texts)).encode()
    assert hashlib.sha256(blob).hexdigest() == LINK_CERT_SHA256[name]
