"""Command-line frontend.

Verbs: build an ambient complex from a constructor expression, report
invariants, run budgeted recognition and equivalence searches, run the
presentation-to-manifold reduction, stream the enumeration machines,
and convert between the text and JSON serializations.  All output is
deterministic for fixed inputs and budgets; Unknown verdicts are a
successful outcome (exit 0), never an error.
"""

import json
import re

import click

from . import complex_core as cc
from . import markov as mk
from . import verdict as vd
from .builders import (connected_sum, cone, ordered_product,
                       presentation_complex, reference_manifold,
                       simplex_sphere, standard_simplex, suspension)
from .groups import parse_presentation
from .invariants import homology
from .recognition import is_closed_manifold, is_pl_manifold
from .stellar_moves import format_certificate, search_equivalence


class ExpressionError(ValueError):
    pass


_TOKEN = re.compile(r'\s*(?:(?P<name>[A-Za-z_]\w*)|(?P<int>-?\d+)'
                    r'|(?P<str>"[^"]*")|(?P<punct>[(),]))')


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ExpressionError(
                    "line 1, column %d: unexpected character %r"
                    % (pos + 1, text[pos]))
            break
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# name -> (argument kinds: E expression, n integer, s quoted text; builder)
_CONSTRUCTORS = {
    "ball": ("n", standard_simplex),
    "sphere": ("n", simplex_sphere),
    "cone": ("E", cone),
    "susp": ("E", suspension),
    "prod": ("EE", ordered_product),
    "csum": ("EE", connected_sum),
    "ref": ("nn", reference_manifold),
    "prescx": ("s", lambda s: presentation_complex(parse_presentation(s))),
}


def parse_expression(text: str) -> cc.Complex:
    """Evaluate the constructor grammar of ``_CONSTRUCTORS``: ball(n),
    sphere(n), cone(E), susp(E), prod(E,E), csum(E,E), ref(l,n),
    prescx("..."); the builder runs before the closing ')' is read."""
    toks = _tokenize(text)
    idx = [0]

    def err(msg, tok):
        raise ExpressionError("line 1, column %d: %s" % (tok[2] + 1, msg))

    def take(kind, what):
        tok = toks[idx[0]]
        if tok[0] != kind:
            err("expected %s, found %r" % (what, tok[1] or "end of input"),
                tok)
        idx[0] += 1
        return tok

    def punct(ch):
        tok = take("punct", "'%s'" % ch)
        if tok[1] != ch:
            err("expected '%s'" % ch, tok)

    def expr():
        tok = take("name", "a constructor name")
        punct("(")
        if tok[1] not in _CONSTRUCTORS:
            err("unknown constructor %r" % tok[1], tok)
        kinds, build = _CONSTRUCTORS[tok[1]]
        args = []
        for kind in kinds:
            if args:
                punct(",")
            args.append(read[kind]())
        out = build(*args)
        punct(")")
        return out

    read = {"E": expr,
            "n": lambda: int(take("int", "an integer")[1]),
            "s": lambda: take("str", "a quoted presentation")[1][1:-1]}
    try:
        out = expr()
    except RecursionError:
        raise ExpressionError("expression nested too deeply") from None
    take("end", "end of input")
    return out


def _load(path: str) -> cc.Complex:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise click.ClickException(str(e))
    except UnicodeDecodeError as e:
        raise click.ClickException("%s: not UTF-8 text: %s" % (path, e))
    try:
        return cc.loads(text)
    except (cc.InvalidComplexError, ValueError) as e:
        raise click.ClickException("%s: %s" % (path, e))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise click.ClickException("cannot write %s: %s" % (path, e.strerror or e))


def _echo_json(obj):
    click.echo(json.dumps(obj, sort_keys=True, indent=2))


@click.group()
def main():
    """PL-manifold toolkit: stellar moves, recognition, invariants,
    and the presentation-to-manifold reduction."""


@main.command()
@click.argument("expr")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="write the canonical text form here instead of stdout")
def build(expr, output):
    """Build a complex from a constructor expression."""
    try:
        cx = parse_expression(expr)
    except (ExpressionError, ValueError) as e:
        raise click.ClickException(str(e))
    text = cc.to_text(cx)
    if output:
        _write(output, text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("file", type=click.Path())
def invariants(file):
    """Euler characteristic, f-vector, and homology of a complex."""
    cx = _load(file)
    prof = homology(cx)
    _echo_json({"euler_characteristic": cx.euler_characteristic(),
                "f_vector": list(cx.f_vector()),
                "betti": list(prof.betti_numbers()),
                "homology": prof.to_json()})


@main.command()
@click.argument("file", type=click.Path())
@click.option("--what", required=True,
              type=click.Choice(["manifold", "closed", "orientable"]))
@click.option("--budget", required=True, type=click.IntRange(min=1))
def check(file, what, budget):
    """Budgeted recognition: manifold, closed manifold, orientable."""
    cx = _load(file)
    if what == "manifold":
        v = is_pl_manifold(cx, budget=budget)
    elif what == "closed":
        v = is_closed_manifold(cx, budget=budget)
    else:
        try:
            orientable = cx.is_orientable()
        except cc.InvalidComplexError as e:
            raise click.ClickException(str(e))
        v = vd.yes() if orientable else vd.no("odd-cycle-of-facets")
    _echo_json({"what": what, "verdict": v.to_json()})


@main.command("search-equiv")
@click.argument("file_a", type=click.Path())
@click.argument("file_b", type=click.Path())
@click.option("--budget", required=True, type=click.IntRange(min=1))
@click.option("--emit-cert", type=click.Path(), default=None,
              help="write the move certificate of a Yes here")
def search_equiv(file_a, file_b, budget, emit_cert):
    """Bounded search for a stellar-move equivalence certificate."""
    a, b = _load(file_a), _load(file_b)
    v = search_equivalence(a, b, budget)
    if v.is_yes and emit_cert:
        _write(emit_cert, format_certificate(v.witness))
    _echo_json({"verdict": v.to_json()})


@main.command("markov")
@click.option("--pres", required=True,
              help='presentation text, e.g. "a,b|abAB"')
@click.option("--dim", required=True, type=click.IntRange(min=4))
@click.option("--budget", required=True, type=click.IntRange(min=1))
@click.option("--search-budget", type=click.IntRange(min=0), default=0,
              help="stellar search budget for certification (0 = skip)")
def markov_cmd(pres, dim, budget, search_budget):
    """Realize a presentation as a manifold and compare it against the
    reference connected sum."""
    try:
        p = parse_presentation(pres)
    except ValueError as e:
        raise click.ClickException(str(e))
    try:
        report = mk.reduction_report(p, dim, {"pi1": budget,
                                              "search": search_budget})
    except ValueError as e:  # DepthError, or a curve surgery cannot take
        raise click.ClickException(str(e))
    click.echo(mk.report_to_text(report), nl=False)


@main.command("enumerate")
@click.option("--kind", required=True,
              type=click.Choice(["spheres", "subcomplexes"]))
@click.option("--dim", required=True, type=click.IntRange(min=1))
@click.option("--max-facets", type=click.IntRange(min=1), default=None)
def enumerate_cmd(kind, dim, max_facets):
    """Stream isomorphism signatures: sphere triangulations up to a
    facet cap, or all subcomplexes of the dim-simplex."""
    if kind == "spheres":
        if max_facets is None:
            raise click.ClickException("--max-facets is required for spheres")
        try:
            sigs = mk.enumerate_spheres(dim, max_facets)
        except ValueError as e:
            raise click.ClickException(str(e))
        for sig in sigs:
            click.echo(sig)
    elif dim > 3:
        raise click.ClickException("subcomplexes take --dim 1 to 3: at 4 the walk is 2^31 masks")
    else:
        for sig in mk.enumerate_subcomplexes(standard_simplex(dim)):
            click.echo(sig)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--to", "target", required=True,
              type=click.Choice(["text", "json"]))
def convert(file, target):
    """Re-serialize a complex in canonical text or JSON form."""
    cx = _load(file)
    if target == "text":
        click.echo(cc.to_text(cx), nl=False)
    else:
        click.echo(json.dumps(cc.to_json_obj(cx), sort_keys=True))


if __name__ == "__main__":
    main()
