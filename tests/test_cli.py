import hashlib
import json

import pytest
from click.testing import CliRunner

from plmarkov import cli, complex_core as cc, markov as mk
from plmarkov.builders import simplex_sphere, sphere_product
from plmarkov.cli import main, parse_expression
from plmarkov.stellar_moves import parse_certificate


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "s3.cx"
    path.write_text(cc.to_text(simplex_sphere(3)))
    return str(path)


class TestExpressions:
    def test_product_size(self):
        cx = parse_expression("prod(sphere(1),sphere(3))")
        assert len(cx.facets) == 60

    def test_nesting(self):
        cx = parse_expression("susp(csum(sphere(2),sphere(2)))")
        assert cx.euler_characteristic() == 0
        assert cx.dim == 3

    def test_presentation_literal(self):
        cx = parse_expression('prescx("a,b|abAB")')
        assert cx.euler_characteristic() == 0

    def test_whitespace_tolerated(self):
        assert parse_expression(" ball( 2 ) ") == parse_expression("ball(2)")

    def test_error_carries_column(self):
        with pytest.raises(Exception) as e:
            parse_expression("prod(sphere(1)")
        assert "column" in str(e.value)


class TestBuild:
    def test_stdout_is_canonical_text(self, runner):
        r = runner.invoke(main, ["build", "prod(sphere(1),sphere(3))"])
        assert r.exit_code == 0
        cx = cc.loads(r.output)
        assert len(cx.facets) == 60
        assert r.output == cc.to_text(cx)

    def test_repeat_runs_byte_identical(self, runner):
        a = runner.invoke(main, ["build", "ref(2,4)"]).output
        b = runner.invoke(main, ["build", "ref(2,4)"]).output
        assert a == b

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "t.cx"
        r = runner.invoke(main, ["build", "sphere(2)", "-o", str(out)])
        assert r.exit_code == 0
        assert cc.loads(out.read_text()) == simplex_sphere(2)

    def test_unwritable_output_is_a_named_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "t.cx"
        r = runner.invoke(main, ["build", "sphere(2)", "-o", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output.startswith("Error: cannot write %s: " % out)

    def test_bad_expression_fails_with_position(self, runner):
        r = runner.invoke(main, ["build", "sphere(,2)"])
        assert r.exit_code == 1
        assert "column" in r.output

    def test_unknown_constructor_fails(self, runner):
        r = runner.invoke(main, ["build", "torus(2)"])
        assert r.exit_code == 1

    def test_deep_nesting_is_a_named_error(self, runner):
        r = runner.invoke(main, ["build", "cone(" * 3000 + "ball(1)" + ")" * 3000])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == "Error: expression nested too deeply\n"


class TestInvariants:
    def test_sphere_profile(self, runner, sphere_file):
        r = runner.invoke(main, ["invariants", sphere_file])
        assert r.exit_code == 0
        data = json.loads(r.output)
        assert data["euler_characteristic"] == 0
        assert data["betti"] == [1, 0, 0, 1]
        assert data["f_vector"] == [5, 10, 10, 5]

    def test_missing_file(self, runner, tmp_path):
        r = runner.invoke(main, ["invariants", str(tmp_path / "no.cx")])
        assert r.exit_code == 1


@pytest.mark.parametrize("args", [
    ["invariants", "FILE"],
    ["check", "FILE", "--what", "closed", "--budget", "10"],
    ["convert", "FILE", "--to", "text"],
    ["search-equiv", "FILE", "FILE", "--budget", "10"],
], ids=["invariants", "check", "convert", "search-equiv"])
def test_a_file_that_is_not_utf8_is_a_named_error(runner, tmp_path, args):
    path = tmp_path / "bad.cx"
    path.write_bytes(b"\xff\xfe0 1")
    r = runner.invoke(main, [str(path) if a == "FILE" else a for a in args])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("Error: %s: not UTF-8 text: " % path)


@pytest.mark.parametrize("args", [
    ["invariants", "FILE"],
    ["convert", "FILE", "--to", "text"],
], ids=["invariants", "convert"])
@pytest.mark.parametrize("dump", [cc.to_text, lambda cx: json.dumps(cc.to_json_obj(cx))],
                         ids=["text", "json"])
def test_a_byte_order_mark_is_skipped(runner, tmp_path, args, dump):
    # some editors start a UTF-8 file with the mark EF BB BF
    body = dump(sphere_product(1, 2)).encode()
    outs = []
    for name, data in (("plain.cx", body), ("marked.cx", b"\xef\xbb\xbf" + body)):
        path = tmp_path / name
        path.write_bytes(data)
        r = runner.invoke(main, [str(path) if a == "FILE" else a for a in args])
        assert r.exit_code == 0, r.output
        outs.append(r.stdout)
    assert outs[0] == outs[1]


class TestCheck:
    def test_closed_yes(self, runner, sphere_file):
        r = runner.invoke(main, ["check", sphere_file,
                                 "--what", "closed", "--budget", "10000"])
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["status"] == "yes"

    def test_closed_no_on_ball(self, runner, tmp_path):
        path = tmp_path / "b.cx"
        r = runner.invoke(main, ["build", "ball(4)", "-o", str(path)])
        r = runner.invoke(main, ["check", str(path),
                                 "--what", "closed", "--budget", "10000"])
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["status"] == "no"

    def test_starved_budget_is_unknown_and_exit_zero(self, runner, tmp_path):
        path = tmp_path / "p.cx"
        path.write_text(cc.to_text(sphere_product(2, 2)))
        r = runner.invoke(main, ["check", str(path),
                                 "--what", "manifold", "--budget", "1"])
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["status"] == "unknown"

    def test_a_manifold_check_whose_link_searches_run_out_is_unknown(self, runner,
                                                                     tmp_path):
        path = tmp_path / "m.cx"
        r = runner.invoke(main, ["build", "prod(sphere(1),sphere(2))", "-o", str(path)])
        assert r.exit_code == 0
        r = runner.invoke(main, ["check", str(path),
                                 "--what", "manifold", "--budget", "100"])
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["status"] == "unknown"

    def test_orientable(self, runner, sphere_file):
        r = runner.invoke(main, ["check", sphere_file,
                                 "--what", "orientable", "--budget", "1"])
        assert json.loads(r.output)["verdict"]["status"] == "yes"

    @pytest.mark.parametrize("text, message", [
        ("0 1 2\n2 3\n", "Error: orientation needs a pure complex\n"),
        ("0 1\n0 2\n0 3\n", "Error: orientation needs ridge degrees <= 2\n"),
    ], ids=["not-pure", "branching"])
    def test_orientable_on_bad_input_is_a_named_error(self, runner, tmp_path,
                                                      text, message):
        path = tmp_path / "bad.cx"
        path.write_text(text)
        r = runner.invoke(main, ["check", str(path),
                                 "--what", "orientable", "--budget", "1"])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == message

    def test_budget_flag_required(self, runner, sphere_file):
        r = runner.invoke(main, ["check", sphere_file, "--what", "closed"])
        assert r.exit_code == 2


class TestSearchEquiv:
    def test_identical_files(self, runner, sphere_file):
        r = runner.invoke(main, ["search-equiv", sphere_file, sphere_file,
                                 "--budget", "100"])
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["status"] == "yes"

    def test_certificate_emitted(self, runner, tmp_path):
        a = tmp_path / "a.cx"
        b = tmp_path / "b.cx"
        a.write_text(cc.to_text(cc.Complex([[0, 1], [1, 2], [2, 0]])))
        b.write_text(cc.to_text(cc.Complex([[0, 1], [1, 2], [2, 3],
                                            [3, 0]])))
        cert = tmp_path / "moves.cert"
        r = runner.invoke(main, ["search-equiv", str(a), str(b),
                                 "--budget", "5000",
                                 "--emit-cert", str(cert)])
        assert r.exit_code == 0
        assert json.loads(r.output)["verdict"]["status"] == "yes"
        parsed = parse_certificate(cert.read_text())
        assert len(parsed.moves) >= 1

    def test_unwritable_certificate_is_a_named_error(self, runner, sphere_file,
                                                     tmp_path):
        cert = tmp_path / "missing" / "moves.cert"
        r = runner.invoke(main, ["search-equiv", sphere_file, sphere_file,
                                 "--budget", "100", "--emit-cert", str(cert)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output.startswith("Error: cannot write %s: " % cert)


class TestMarkovVerb:
    def test_empty_presentation_report(self, runner):
        r = runner.invoke(main, ["markov", "--pres", "|",
                                 "--dim", "4", "--budget", "1000"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert set(rep) == {"presentation", "n", "invariants_M",
                            "invariants_T", "pi1_verdict",
                            "equivalence_verdict", "budgets"}
        assert rep["equivalence_verdict"]["verdict"] == "consistent-unknown"
        assert rep["invariants_M"]["euler_characteristic"] == 2
        assert rep["budgets"] == {"pi1": 1000, "search": 0}

    def test_depth_error_is_a_named_error(self, runner):
        r = runner.invoke(main, ["markov", "--pres", "a,b|aaa",
                                 "--dim", "4", "--budget", "10"])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output.startswith("Error: insufficient parallel copies")
        assert "required depth 3" in r.output

    def test_a_surgery_value_error_is_a_named_error(self, runner, monkeypatch):
        def out_of_position(p, n):
            raise ValueError("curve is not in product position at edge 2")

        monkeypatch.setattr(mk, "realize_boundary", out_of_position)
        r = runner.invoke(main, ["markov", "--pres", "g|g",
                                 "--dim", "4", "--budget", "10"])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.stdout == ""
        assert r.stderr == "Error: curve is not in product position at edge 2\n"

    def test_inverse_doubled_letter_reports_as_the_doubled_letter(self, runner):
        reports = {}
        for p in ("g|GG", "g|gg"):
            r = runner.invoke(main, ["markov", "--pres", p,
                                     "--dim", "4", "--budget", "1000"])
            assert r.exit_code == 0
            reports[p] = json.loads(r.output)
        assert reports["g|GG"].pop("presentation") == "g|GG"
        assert reports["g|gg"].pop("presentation") == "g|gg"
        assert reports["g|GG"] == reports["g|gg"]

    def test_dim_floor(self, runner):
        r = runner.invoke(main, ["markov", "--pres", "|",
                                 "--dim", "3", "--budget", "10"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("pres, verdict, digest", [
        ("|", "equivalent-certified",
         "789b48f43dba1e7a2409f2e44a7b0001c72987c8c8eb3c96018859b8a61c3da6"),
        ("g|g", "consistent-unknown",
         "565933d07c4d98f1421cf652abfd94b4f3814cdef34b06806ce06616f38c5b74"),
    ])
    def test_search_budget_certifies_or_stays_unknown(self, runner, pres,
                                                      verdict, digest):
        r = runner.invoke(main, ["markov", "--pres", pres, "--dim", "4",
                                 "--budget", "100", "--search-budget", "10"])
        assert r.exit_code == 0
        rep = json.loads(r.output)
        assert rep["equivalence_verdict"] == {"verdict": verdict}
        assert rep["budgets"] == {"pi1": 100, "search": 10}
        assert hashlib.sha256(r.output.encode()).hexdigest() == digest


class TestEnumerateVerb:
    def test_circles(self, runner):
        r = runner.invoke(main, ["enumerate", "--kind", "spheres",
                                 "--dim", "1", "--max-facets", "6"])
        assert r.exit_code == 0
        assert len(r.output.splitlines()) == 4

    def test_two_sphere_census_bytes_are_pinned(self, runner):
        # captured before the census pruned moves by automorphism orbit
        r = runner.invoke(main, ["enumerate", "--kind", "spheres",
                                 "--dim", "2", "--max-facets", "10"])
        assert r.exit_code == 0
        assert len(r.output.splitlines()) == 9
        assert hashlib.sha256(r.output.encode()).hexdigest() == (
            "4b8770e64f04e3d7802cb994730f8ac381bc927a6975841c975c5e013ac29e8b"
        )

    def test_cap_required_for_spheres(self, runner):
        r = runner.invoke(main, ["enumerate", "--kind", "spheres",
                                 "--dim", "1"])
        assert r.exit_code == 1

    def test_cap_below_the_minimal_sphere_is_a_named_error(self, runner):
        r = runner.invoke(main, ["enumerate", "--kind", "spheres",
                                 "--dim", "2", "--max-facets", "3"])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.stdout == ""
        assert r.stderr == "Error: cap must admit the minimal sphere\n"

    def test_edge_subcomplexes(self, runner):
        r = runner.invoke(main, ["enumerate", "--kind", "subcomplexes",
                                 "--dim", "1"])
        assert r.exit_code == 0
        assert len(r.output.splitlines()) == 3

    @pytest.mark.parametrize("dim", [4, 5, 30])
    def test_subcomplexes_above_dim_3_are_a_named_error(self, runner, monkeypatch, dim):
        # dim 4 would walk 2^31 masks: the verb must refuse before it
        # builds the simplex or starts the walk
        def walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(mk, "enumerate_subcomplexes", walk)
        monkeypatch.setattr(cli, "standard_simplex", walk)
        r = runner.invoke(main, ["enumerate", "--kind", "subcomplexes",
                                 "--dim", str(dim)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.stdout == ""
        assert r.stderr == ("Error: subcomplexes take --dim 1 to 3: "
                            "at 4 the walk is 2^31 masks\n")


class TestConvert:
    def test_text_roundtrip_byte_identity(self, runner, tmp_path):
        path = tmp_path / "r.cx"
        runner.invoke(main, ["build", "ref(1,4)", "-o", str(path)])
        r = runner.invoke(main, ["convert", str(path), "--to", "text"])
        assert r.output == path.read_text()

    def test_json_form_loads_back(self, runner, sphere_file):
        r = runner.invoke(main, ["convert", sphere_file, "--to", "json"])
        cx = cc.from_json_obj(json.loads(r.output))
        assert cx == simplex_sphere(3)

    def test_deeply_nested_json_is_a_named_error(self, runner, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"facets": ' + "[" * 100000)
        r = runner.invoke(main, ["convert", str(path), "--to", "text"])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == "Error: %s: JSON nested too deeply\n" % path
