"""The three workloads: inputs made from the seed, the timed jobs, and a
seed-independent summary of each output, which ``expected.json`` pins.

``build`` is the set-up a run pays before its jobs; a job's ``run`` is
the timed part and its ``summarize`` is the untimed check.  Each pass
draws its inputs from ``random.Random("<workload>/<seed>/<pass>")``, so
the same seed and pass give the same inputs.  Why each workload exists
is written down in ``DESIGN.md``.

plmarkov functions are called through their modules, so the wrappers
that ``layers.install`` puts there see the calls made from here too.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, List, NamedTuple, Tuple

from click.testing import CliRunner

from plmarkov import builders, cli, markov, recognition as rec, stellar_moves as sm
from plmarkov.complex_core import Complex, barycentric_subdivision, to_text
from plmarkov.groups import parse_presentation

BUDGET = 100000


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], object]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _relabel(cx: Complex, rng: random.Random, spread: int = 1) -> Tuple[Complex, Dict[int, int]]:
    """A random relabelling of cx onto distinct labels in
    range(spread * #vertices), and the map back to the old labels."""
    verts = cx.vertices
    image = rng.sample(range(spread * len(verts)), len(verts))
    new = dict(zip(verts, image))
    return cx.relabeled(new), {w: v for v, w in new.items()}


# -- recognition -----------------------------------------------------------

RECOGNITION_INPUTS: Tuple[Tuple[str, Callable[[], Complex]], ...] = (
    ("boundary_4_simplex", lambda: builders.simplex_sphere(4)),
    ("torus", lambda: builders.sphere_product(1, 1)),
    ("s1_x_s3", lambda: builders.sphere_product(1, 3)),
    ("s2_x_s2", lambda: builders.sphere_product(2, 2)),
    ("reference_manifold_2_4", lambda: builders.reference_manifold(2, 4)),
    ("M(g|g)", lambda: markov.realize_boundary(parse_presentation("g|g"), 4)),
    ("M(a,b|ab,b)", lambda: markov.realize_boundary(parse_presentation("a,b|ab,b"), 4)),
    # must be rejected
    ("solid_4_simplex", lambda: builders.standard_simplex(4)),
    ("wedge_of_two_2_spheres", lambda: Complex(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3],
         [0, 4, 5], [0, 4, 6], [0, 5, 6], [4, 5, 6]])),
    ("moebius_strip", lambda: Complex(
        [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 0], [4, 0, 1]])),
)


def _recognition_summary(back: Dict[int, int]):
    """Verdict status and reason, plus (original vertex, role, status)
    per link when the verdict carries the per-vertex report."""
    def summarize(verdict):
        if verdict.is_yes:
            links = verdict.witness.to_json()["links"]
        elif isinstance(verdict.detail, dict):
            links = verdict.detail.get("links")
        else:
            links = None
        if links is not None:
            links = sorted([back[e["vertex"]], e["role"], e["status"]] for e in links)
        return {"status": verdict.status, "reason": verdict.reason, "links": links}
    return summarize


def recognition(rng: random.Random) -> Tuple[List[Job], Dict[str, str]]:
    jobs, inputs = [], {}
    for name, make in RECOGNITION_INPUTS:
        cx = make()
        inputs[name] = digest(to_text(cx))
        shuffled, back = _relabel(cx, rng)
        jobs.append(Job(name,
                        lambda c=shuffled: rec.is_closed_manifold(c, budget=BUDGET),
                        _recognition_summary(back)))
    rng.shuffle(jobs)
    return jobs, inputs


# -- pipeline --------------------------------------------------------------

PIPELINE_PRESENTATIONS = ("|", "g|g", "a,b|a,b", "a,b|ab,b")


def _markov_verb(pres: str) -> str:
    """``plmarkov markov --pres P --dim 4 --budget 100000``, in-process."""
    result = CliRunner().invoke(
        cli.main, ["markov", "--pres", pres, "--dim", "4", "--budget", str(BUDGET)],
        catch_exceptions=False)
    if result.exit_code != 0:
        raise RuntimeError("markov verb exited %d: %s" % (result.exit_code, result.output))
    return result.stdout


def _pipeline_summary(text: str) -> dict:
    report = json.loads(text)
    return {"euler_characteristic": report["invariants_M"]["euler_characteristic"],
            "homology": report["invariants_M"]["homology"],
            "equivalence_verdict": report["equivalence_verdict"],
            "sha256": digest(text)}


def pipeline(rng: random.Random) -> Tuple[List[Job], Dict[str, str]]:
    jobs = [Job("markov " + p, lambda p=p: _markov_verb(p), _pipeline_summary)
            for p in PIPELINE_PRESENTATIONS]
    rng.shuffle(jobs)
    return jobs, {}


# -- census ----------------------------------------------------------------

CENSUS_ENUMERATIONS = ((1, 12), (2, 14), (3, 12))


def _signature_set(sigs: List[str]) -> dict:
    return {"count": len(sigs), "sha256": digest("\n".join(sorted(sigs)))}


def _subdivision_search(d: int, rng: random.Random) -> Job:
    """search_equivalence(boundary of the (d+1)-simplex, its barycentric
    subdivision); both sides relabelled, the subdivision built in the job."""
    source, _ = _relabel(builders.simplex_sphere(d), rng, spread=8)
    left, _ = _relabel(builders.simplex_sphere(d), rng, spread=8)
    job_rng = random.Random(rng.getrandbits(64))

    def run():
        right, _ = _relabel(barycentric_subdivision(source), job_rng, spread=2)
        return sm.search_equivalence(left, right, BUDGET), right

    def summarize(out):
        verdict, right = out
        replays = verdict.is_yes and sm.apply_certificate(left, verdict.witness) == right
        return {"status": verdict.status, "replays": replays}

    return Job("search_equivalence(S%d, sd S%d)" % (d, d), run, summarize)


def census(rng: random.Random) -> Tuple[List[Job], Dict[str, str]]:
    jobs = [Job("enumerate_spheres(%d, %d)" % (n, cap),
                lambda n=n, cap=cap: list(markov.enumerate_spheres(n, cap)),
                _signature_set)
            for n, cap in CENSUS_ENUMERATIONS]
    jobs += [_subdivision_search(d, rng) for d in (2, 3)]
    big, _ = _relabel(builders.simplex_sphere(6), rng, spread=4)
    jobs.append(Job("iso_signature(S6)", lambda: big.iso_signature(),
                    lambda sig: {"sha256": digest(sig)}))
    return jobs, {}


WORKLOADS = {"recognition": recognition, "pipeline": pipeline, "census": census}


def build(workload: str, seed: int, pass_index: int) -> Tuple[List[Job], Dict[str, str]]:
    """The jobs of one pass, in run order, and digests of built inputs."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_index))
    return WORKLOADS[workload](rng)
