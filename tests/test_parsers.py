"""Fuzz tests for the text parsers: any input either parses or raises
the parser's named error, never a bare traceback such as IndexError,
KeyError or TypeError."""

import json
import pathlib
import re

import pytest
from hypothesis import example, given, strategies as st

from plmarkov.cli import _CONSTRUCTORS, ExpressionError, parse_expression
from plmarkov.complex_core import Complex, InvalidComplexError, from_text, loads
from plmarkov.groups import FinitePresentation, parse_presentation
from plmarkov.stellar_moves import Certificate, parse_certificate

from oracles import parse_expression_by_cases


def parses_or_names_its_error(parse, text, errors):
    try:
        return parse(text)
    except errors:
        return None


# At most two edits, each deleting a character or inserting a non-digit
# one.  No digit is ever inserted, and two edits cannot join two integers
# of the grammar below into one, so no edit builds a large complex.
_NOISE = '()[]{},;:"|#-_ \n\txXaA.'


@st.composite
def edited(draw, base):
    text = draw(base)
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(text)))
        if text and draw(st.booleans()):
            pos = min(pos, len(text) - 1)
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + draw(st.sampled_from(_NOISE)) + text[pos:]
    return text


_small = st.integers(-3, 3)
_labels = st.lists(_small, max_size=5)


def _facet_lines(facets, sep, comment):
    return "\n".join(sep.join(map(str, f)) + comment for f in facets)


_complex_text = st.builds(
    _facet_lines, st.lists(_labels, max_size=5),
    st.sampled_from([" ", "  ", "\t", ","]), st.sampled_from(["", " # c", "#"]),
)

_json_values = st.recursive(
    st.none() | st.booleans() | _small | st.floats(allow_nan=True)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["facets", "x"]), inner, max_size=2),
    max_leaves=12,
)
_complex_json = st.one_of(
    st.builds(lambda v: json.dumps({"facets": v}), _json_values),
    st.builds(lambda fs: json.dumps({"facets": fs}), st.lists(_labels, max_size=4)),
    st.builds(json.dumps, _json_values),
)


@given(st.one_of(st.text(max_size=60), edited(_complex_text)))
@example("0 1\n1 2 # a comment\n\n2 0")
@example("0 x")
@example("0 1\n0 1")
def test_from_text_raises_only_invalid_complex(text):
    out = parses_or_names_its_error(from_text, text, InvalidComplexError)
    assert out is None or isinstance(out, Complex)


@given(st.one_of(st.text(max_size=60), edited(_complex_text), edited(_complex_json)))
@example('{"facets": [[0, 1], [1, 2]]}')
@example('{"facets": [[[1]]]}')
@example('{"facets": [[{}]]}')
@example('{"facets": [[1e400]]}')
@example('{"facets"')
def test_loads_raises_only_value_errors(text):
    out = parses_or_names_its_error(loads, text, (InvalidComplexError, ValueError))
    assert out is None or isinstance(out, Complex)


def _certificate_line(tag, nums):
    return " ".join([tag] + [str(n) for n in nums])


_certificate_text = st.builds(
    "\n".join,
    st.lists(st.builds(_certificate_line, st.sampled_from(["S", "W", "P", "Q", "#", ""]),
                       st.lists(_small, max_size=4)), max_size=5),
)


@given(st.one_of(st.text(max_size=60), edited(_certificate_text)))
@example("W")
@example("S 0 1\nW 5 0 1\nP 1 0")
@example("S 0 x")
def test_parse_certificate_raises_only_value_errors(text):
    out = parses_or_names_its_error(parse_certificate, text, ValueError)
    assert out is None or isinstance(out, Certificate)


_presentation_text = st.builds(
    lambda names, words: ",".join(names) + "|" + ",".join(words),
    st.lists(st.sampled_from("abcA1 "), max_size=4),
    st.lists(st.text(alphabet="abcABCd ", max_size=5), max_size=4),
)


@given(st.one_of(st.text(max_size=40), edited(_presentation_text)))
@example("a,b|abAB,aa")
@example("|")
@example("a,a|a")
@example("a|b")
def test_parse_presentation_raises_only_value_errors(text):
    out = parses_or_names_its_error(parse_presentation, text, ValueError)
    assert out is None or isinstance(out, FinitePresentation)


# the constructor grammar with every integer in -3..3; products take
# leaves only, so no expression builds a large complex
_leaf = st.one_of(
    st.builds("ball({})".format, _small),
    st.builds("sphere({})".format, _small),
    st.builds("ref({},{})".format, _small, _small),
    st.builds('prescx("{}")'.format, _presentation_text),
)
_pair = st.builds("{}({},{})".format, st.sampled_from(["prod", "csum"]), _leaf, _leaf)
_expression = st.recursive(
    st.one_of(_leaf, _pair),
    lambda inner: st.builds("{}({})".format, st.sampled_from(["cone", "susp"]), inner),
    max_leaves=3,
)


@given(st.one_of(st.text(max_size=40), edited(_expression)))
@example("csum(ref(3,3),ref(3,3))")
@example("prod(sphere(1),sphere(3))")
@example("ball(3")
@example("ball()")
@example("nosuch()")
@example('prescx("a|b")')
@example("csum(sphere(1),sphere(2))")
def test_parse_expression_raises_only_expression_or_value_errors(text):
    out = parses_or_names_its_error(parse_expression, text, (ExpressionError, ValueError))
    assert out is None or isinstance(out, Complex)


def _outcome(parse, text):
    try:
        return parse(text).facets
    except Exception as e:
        return type(e), str(e)


@given(st.one_of(st.text(max_size=40), edited(_expression), _expression))
@example("prod(sphere(1),ball(2))")
@example("ref(2,4)")
@example("ball(-1")
@example("torus(2)")
@example("sphere(,2)")
@example("ref(2,4,)")
@example('prescx("a|b"')
def test_parse_expression_matches_the_case_by_case_parser(text):
    assert _outcome(parse_expression, text) == _outcome(parse_expression_by_cases, text)


def _constructor_arities(line):
    # name -> argument kinds, an integer argument read as "n"
    return {name: "".join("E" if a == "E" else "s" if a.startswith('"') else "n"
                          for a in args.split(","))
            for name, args in re.findall(r'(\w+)\(((?:[^()"]|"[^"]*")*)\)', line)}


def test_readme_and_docstring_name_every_constructor_with_its_arguments():
    table = {name: kinds for name, (kinds, _) in _CONSTRUCTORS.items()}
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    grammar = readme.split("Expression grammar:", 1)[1].split(".\n", 1)[0]
    assert _constructor_arities(grammar) == table
    assert _constructor_arities(parse_expression.__doc__.split(":", 1)[1]) == table


# Nesting deeper than the recursion limit is a named error too.

def test_deeply_nested_json_is_an_invalid_complex():
    with pytest.raises(InvalidComplexError, match="nested too deeply"):
        loads('{"facets": ' + "[" * 100000)


def test_deeply_nested_expression_is_an_expression_error():
    with pytest.raises(ExpressionError, match="nested too deeply"):
        parse_expression("cone(" * 3000 + "ball(1)" + ")" * 3000)


# A facet that lists a label twice is rejected, not read as a smaller
# simplex.

@pytest.mark.parametrize("text, facet", [
    ("0 0 1", "[0, 0, 1]"),
    ("0 1 2\n3 4 3", "[3, 4, 3]"),
    ('{"facets": [[0, 0, 1]]}', "[0, 0, 1]"),
    ('{"facets": [[0, 1, 2], [3, 4, 3]]}', "[3, 4, 3]"),
])
def test_a_facet_that_repeats_a_vertex_is_an_invalid_complex(text, facet):
    with pytest.raises(InvalidComplexError) as e:
        loads(text)
    assert str(e.value) == "facet %s repeats a vertex" % facet
