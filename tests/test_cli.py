"""CLI: expression parsing, spec files, commands, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nfc.series
from nfc.scalar import GaussianRational, I, ONE
from nfc.series import HoloSeries2, Series3
from nfc.families import gen_Ht, gen_X
from nfc.cli import (
    ParseError,
    build_surface,
    main,
    parse_expression,
    parse_field_spec,
    parse_map_spec,
    parse_surface_spec,
    surface_spec_to_obj,
)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: the most digits int() reads from text, 0 where it reads any number
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

#: decimal text one digit longer than int() reads
TOO_LONG_LITERAL = "1" + "0" * INT_DIGIT_LIMIT


class TestExpressionParser:
    def test_quadric(self):
        terms = parse_expression("u*z*zb")
        assert terms == {(1, 1, 1): ONE}

    def test_cd_style(self):
        terms = parse_expression("u*(z*zb + 1/4*z^2*zb^2)")
        assert terms[(1, 1, 1)] == ONE
        assert terms[(2, 2, 1)] == GaussianRational(Fraction(1, 4))

    def test_imaginary_unit_and_minus(self):
        terms = parse_expression("i*z^2*zb*u - i*z*zb^2*u")
        assert terms[(2, 1, 1)] == I
        assert terms[(1, 2, 1)] == -I

    def test_power_and_cancellation(self):
        assert parse_expression("(z + zb)^2 - z^2 - 2*z*zb - zb^2") == {}

    def test_power_by_repeated_squaring(self, monkeypatch):
        # z^65536 takes 16 squarings, where e successive products took 65536
        calls = []
        accumulate = nfc.series._accumulate

        def counted(*args):
            calls.append(1)
            return accumulate(*args)

        monkeypatch.setattr(nfc.series, "_accumulate", counted)
        assert parse_expression("z^65536") == {(65536, 0, 0): ONE}
        assert len(calls) <= 34, len(calls)

    @pytest.mark.parametrize("text, base, e", [("(1 + z)^13", "1 + z", 13),
                                               ("(z + zb*u)^6", "z + zb*u", 6),
                                               ("(1/2 - i*z*u)^0", "1/2 - i*z*u", 0)])
    def test_power_matches_repeated_products(self, text, base, e):
        b = Series3(6 * e + 3, parse_expression(base))
        out = Series3(b.n, {(0, 0, 0): ONE})
        for _ in range(e):
            out = out * b
        assert parse_expression(text) == out.terms

    def test_syntax_error_position(self):
        with pytest.raises(ParseError, match="column 6: unexpected token"):
            parse_expression("z*zb*")

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol 'w'"):
            parse_expression("w*z")

    def test_bad_exponent(self):
        with pytest.raises(ParseError, match="exponent must be a non-negative integer"):
            parse_expression("z^1/2")
        with pytest.raises(ParseError, match="expected 'num'"):
            parse_expression("z^(2)")

    def test_unary_sign_applies_after_the_power(self):
        assert parse_expression("-z^2") == {(2, 0, 0): -ONE}
        assert parse_expression("-z^2*zb^2*u") == {(2, 2, 1): -ONE}
        assert parse_expression("-2^2") == {(0, 0, 0): GaussianRational(-4)}
        assert parse_expression("--z^2") == {(2, 0, 0): ONE}
        assert parse_expression("z*-z") == {(2, 0, 0): -ONE}
        assert parse_expression("u*z*zb + (-z^2*zb^2*u)") == {(1, 1, 1): ONE, (2, 2, 1): -ONE}
        with pytest.raises(ParseError, match="column 2: unexpected token 'end'"):
            parse_expression("-")

    def test_spaced_rational(self):
        assert parse_expression("3 / 4*u") == {(0, 0, 1): GaussianRational(Fraction(3, 4))}

    def test_lexer_errors(self):
        with pytest.raises(ParseError, match="column 3: expected denominator digits"):
            parse_expression("3/")
        with pytest.raises(ParseError, match="column 3: zero denominator"):
            parse_expression("1/0")
        with pytest.raises(ParseError, match="column 2: unexpected character '\\$'"):
            parse_expression("z$")

    @pytest.mark.parametrize("text, message", [
        ("z_1", "column 2: unexpected character '_'"),
        ("zé*u", "column 1: unknown symbol 'zé'"),
        ("z²", "column 1: unknown symbol 'z²'"),
        ("½*u", "column 1: unexpected character '½'"),
        ("z2", "column 1: unknown symbol 'z2'"),
        ("2z", "column 2: expected 'end', found 'var'"),
        ("3/ x", "column 4: expected denominator digits"),
    ])
    def test_token_grammar_edge_errors(self, text, message):
        # a run of letters and digits is one token, and '_' is not in it
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert str(exc.value) == message

    def test_token_grammar_edge_values(self):
        # any whitespace around '/', and a decimal digit of any script, read as int() reads it
        assert parse_expression("3 \t/\n 4*u") == {(0, 0, 1): GaussianRational(Fraction(3, 4))}
        assert parse_expression("٣*u*z*zb") == {(1, 1, 1): GaussianRational(3)}

    @pytest.mark.parametrize("template, column", [
        ("{}*u*z*zb", 1),
        ("u*z*zb + 1/{}*u*z^2*zb^2", 10),
        ("u*z*zb*z^{}", 10),
    ], ids=["coefficient", "denominator", "exponent"])
    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="int() reads any number of digits")
    def test_literal_too_long_for_int_exit_2(self, capsys, template, column):
        # a literal int() will not read is a parse error at its column, not a bare ValueError
        text = template.format(TOO_LONG_LITERAL)
        message = f"column {column}: number has too many digits"
        with pytest.raises(ParseError) as exc:
            parse_expression(text)
        assert str(exc.value) == message
        code, out, err = run_cli(capsys, "charpoly", "--expr", text, "--order-total", "9")
        assert (code, out, err) == (2, "", f"nfc: parse error: {message}\n")

    @pytest.mark.parametrize("text", ["(" * 300 + "u*z*zb" + ")" * 300, "-" * 2000 + "u*z*zb"],
                             ids=["parentheses", "unary minus"])
    def test_nested_too_deeply_exit_2(self, capsys, text):
        with pytest.raises(ParseError, match=r"^column \d+: expression nested too deeply$"):
            parse_expression(text)
        code, out, err = run_cli(capsys, "charpoly", f"--expr={text}", "--order-total", "9")
        assert (code, out) == (2, "")
        assert err.startswith("nfc: parse error: column ") and "nested too deeply" in err

    def test_moderate_nesting_parses(self):
        assert parse_expression("(" * 100 + "u*z*zb" + ")" * 100) == {(1, 1, 1): ONE}
        assert parse_expression("-" * 100 + "u*z*zb") == {(1, 1, 1): ONE}


def test_non_decimal_digit_is_an_unexpected_character(capsys):
    # '²' is a digit to str.isdigit but not a decimal int() accepts
    with pytest.raises(ParseError, match="column 10: unexpected character '²'"):
        parse_expression("u*z*zb + ²")
    assert main(["resonances", "--expr", "u*z*zb + ²", "--order-total", "9"]) == 2
    assert capsys.readouterr().err == "nfc: parse error: column 10: unexpected character '²'\n"


def test_nested_powers_expand_in_full():
    # the parse order is read off the tokens, so nothing is truncated, and no
    # zero coefficient is kept
    assert parse_expression("((z*zb)^2)^3*u") == {(6, 6, 1): ONE}
    assert parse_expression("((z*zb + u)^2)^3 - (z*zb + u)^6") == {}
    assert parse_expression("0") == {}


class TestSurfaceSpec:
    def test_expr_spec_hermitian_rejected(self):
        with pytest.raises(ParseError, match="not Hermitian"):
            parse_surface_spec({"order": 8, "expr": "u*(z*zb + i*z^2*zb)"})

    def test_series_spec_round_trip(self):
        spec = parse_surface_spec({
            "order": 8,
            "series": [
                {"a": 1, "b": 1, "c": 1, "re": "1", "im": "0"},
                {"a": 2, "b": 2, "c": 1, "re": "-3/4", "im": "0"},
            ],
        })
        obj = surface_spec_to_obj(spec)
        spec2 = parse_surface_spec(obj)
        assert surface_spec_to_obj(spec2) == obj
        M = build_surface(spec)
        assert M.phi.coeff(2, 2, 1) == GaussianRational(Fraction(-3, 4))

    def test_family_spec_round_trip(self):
        spec = parse_surface_spec({"order": 9, "family": {"name": "mmt", "m": 2, "T": "1/2"}})
        obj = surface_spec_to_obj(spec)
        assert parse_surface_spec(obj) == spec
        M = build_surface(spec)
        assert M.phi.coeff(2, 2, 1) == GaussianRational(Fraction(-1))

    def test_input_guards(self):
        with pytest.raises(ParseError, match="^surface spec must be a JSON object$"):
            parse_surface_spec([])
        with pytest.raises(ParseError, match="^bad series item"):
            parse_surface_spec({"series": [{"a": 1}]})
        with pytest.raises(ParseError, match="^family spec needs a name$"):
            parse_surface_spec({"family": {}})
        with pytest.raises(ParseError, match="^map spec must be a JSON object$"):
            parse_map_spec([], 9)

    @pytest.mark.parametrize("parse, obj, message", [
        (parse_surface_spec, {"ordre": 9, "expr": "u*z*zb"}, "unknown key 'ordre' in surface spec"),
        (parse_surface_spec, {"order": 9, "family": {"name": "cd", "c": "3"}},
         "unknown key 'c' in family spec"),
        (parse_surface_spec, {"order": 9, "series": [{"a": 1, "b": 1, "c": 1, "Re": "5"}]},
         "unknown key 'Re' in series item"),
        (parse_map_spec, {"builtin": "ht", "T": "1/2"}, "unknown key 'T' in builtin map spec"),
        (parse_map_spec, {"F": [{"l": 2, "k": 0, "re": "1"}]}, "unknown key 'F' in map spec"),
        (parse_map_spec, {"g": [{"l": 0, "k": 2, "b": 1}]}, "unknown key 'b' in g item"),
        (parse_field_spec, {"builtin": "mmt", "t": "2"}, "unknown key 't' in builtin field spec"),
        (parse_field_spec, {"Xz": [], "XW": []}, "unknown key 'XW' in field spec"),
    ], ids=["surface", "family", "series item", "builtin map", "map", "map item", "builtin field",
            "field"])
    def test_unread_key_is_named(self, parse, obj, message):
        # each key used to be ignored, and a default stood in for what it meant
        with pytest.raises(ParseError) as exc:
            parse(obj, 9)
        assert str(exc.value) == message

    def test_family_spec_takes_every_family_parameter(self):
        # --family passes each family flag that is set, read or not
        spec = parse_surface_spec({"order": 9, "family": {"name": "quadric", "m": 1, "T": "0"}})
        plain = parse_surface_spec({"order": 9, "family": {"name": "quadric"}})
        assert build_surface(spec) == build_surface(plain)

    def test_exactly_one_source(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_surface_spec({"order": 8})
        with pytest.raises(ParseError, match="exactly one"):
            parse_surface_spec({"order": 8, "expr": "u*z*zb", "family": {"name": "quadric"}})


class TestCommands:
    def test_resonances_mm(self, capsys):
        code, out, _ = run_cli(capsys, "resonances", "--family", "mm", "--m", "1",
                               "--order-total", "9")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["resonances"] == [2, 3]

    def test_charpoly_quadric(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "--family", "quadric",
                               "--order-total", "9")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["monic_constant"] == {"re": "3/16", "im": "0"}
        assert rep["results"]["char_poly"][-1] == {"re": "1", "im": "0"}
        assert rep["results"]["resonances"] == []

    def test_expr_surface(self, capsys):
        code, out, _ = run_cli(capsys, "resonances", "--expr",
                               "u*(z*zb + z^3*zb^3)", "--order-total", "9")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["resonances"] == [2, 3]   # phi33 = 1 matches m = 1

    def test_normalize_cd(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "--family", "cd",
                               "--C", "0", "--D", "-24", "--order-total", "11",
                               "--order", "5")
        assert code == 0
        rep = json.loads(out)
        assert [s["status"] for s in rep["results"]["stages"]] == ["solved"] * 4
        assert rep["results"]["map_defect_zero_to_order"] == 11
        assert rep["results"]["resonances_observed"] == []

    def test_normalize_strict_resonant_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "--family", "mm", "--m", "1",
                               "--order-total", "10", "--order", "3",
                               "--policy", "strict")
        assert code == 1
        assert "resonant" in err

    def test_verify_map_ht(self, capsys):
        code, out, _ = run_cli(capsys, "verify-map", "--family", "mm", "--m", "1",
                               "--map", "ht", "--t", "1", "--order-total", "11")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["defect_zero"] is True
        assert rep["results"]["order"] == 11

    def test_verify_map_target_file(self, capsys, tmp_path):
        argv = ["verify-map", "--family", "mm", "--m", "1", "--map", "ht", "--t", "1",
                "--order-total", "11", "--target"]
        same = tmp_path / "same.json"
        same.write_text(json.dumps({"order": 11, "family": {"name": "mm", "m": 1}}))
        code, out, _ = run_cli(capsys, *argv, str(same))
        assert code == 0
        assert json.loads(out)["results"]["defect_zero"] is True
        lower = tmp_path / "lower.json"
        lower.write_text(json.dumps({"order": 9, "family": {"name": "mm", "m": 1}}))
        code, out, err = run_cli(capsys, *argv, str(lower))
        assert (code, out) == (1, "")
        assert "mismatched truncation orders 9 != 11" in err

    def test_verify_field_builtin(self, capsys):
        code, out, _ = run_cli(capsys, "verify-field", "--family", "mmt",
                               "--m", "1", "--T", "1", "--order-total", "9")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["defect_zero"] is True

    def test_verify_field_reports_first_nonzero(self, capsys):
        code, out, _ = run_cli(capsys, "verify-field", "--family", "quadric",
                               "--m", "1", "--T", "0", "--order-total", "9")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["defect_zero"] is False
        assert rep["results"]["first_nonzero"] == {
            "a": 3, "b": 3, "c": 2, "re": "1", "im": "0"}

    def test_transform_surface_file(self, capsys, tmp_path):
        sfile = tmp_path / "surface.json"
        sfile.write_text(json.dumps({"order": 9, "expr": "u*z*zb"}))
        mfile = tmp_path / "map.json"
        mfile.write_text(json.dumps({"f": [{"l": 2, "k": 0, "re": "1", "im": "0"}],
                                     "g": []}))
        code, out, _ = run_cli(capsys, "transform", "--surface", str(sfile),
                               "--map", str(mfile))
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["in_class"] is True
        terms = {(t["a"], t["b"], t["c"]): t["re"] for t in rep["results"]["surface"]}
        assert terms[(1, 1, 1)] == "1"
        assert terms[(2, 1, 1)] == "-1"   # z -> z + z^2 pushes phi21 to -1

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "resonances", "--expr", "u*(z*zb",
                               "--order-total", "9")
        assert code == 2
        assert "parse error" in err

    def test_two_surface_sources_exit_2(self, capsys, tmp_path):
        sfile = tmp_path / "surface.json"
        sfile.write_text(json.dumps({"order": 9, "expr": "u*z*zb"}))
        for argv in (["--family", "mm", "--m", "1", "--expr", "u*z*zb"],
                     ["--surface", str(sfile), "--family", "quadric"]):
            code, out, err = run_cli(capsys, "resonances", *argv, "--order-total", "9")
            assert (code, out) == (2, "")
            assert err.startswith("nfc: parse error: more than one surface given")

    def test_missing_surface_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "resonances")
        assert code == 2
        assert "no surface" in err

    def test_missing_map_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--family", "quadric")
        assert (code, out) == (2, "")
        assert err == "nfc: parse error: no map given: use --map FILE or --map ht\n"

    def test_unreadable_spec_file_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "charpoly", "--surface", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert err.startswith("nfc: input error:") and "absent.json" in err
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 9, "expr": ')
        code, out, err = run_cli(capsys, "charpoly", "--surface", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("nfc: input error: Expecting value")
        # not UTF-8, nested past the recursion limit, an integer int() will not read
        cases = [(b'{"order": 9, "expr": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
                 (b"[" * 100_000, "maximum recursion depth exceeded")]
        if INT_DIGIT_LIMIT:
            cases.append((b'{"order": 9, "family": {"name": "cd", "C": '
                          + TOO_LONG_LITERAL.encode() + b"}}", "Exceeds the limit"))
        for content, message in cases:
            bad.write_bytes(content)
            code, out, err = run_cli(capsys, "charpoly", "--surface", str(bad))
            assert (code, out) == (2, ""), message
            assert err.startswith(f"nfc: input error: {message}"), message

    def test_charpoly_reads_the_prenormalized_jet(self, capsys):
        # phi_21 = phi_12 = 1 is cleared by prenormalization first, as
        # normalize clears it
        surface = ["--expr", "u*z*zb + u*z^2*zb + u*z*zb^2", "--order-total", "9"]
        code, out, err = run_cli(capsys, "charpoly", *surface)
        assert (code, err) == (0, "")
        charpoly = json.loads(out)["results"]
        code, out, _ = run_cli(capsys, "normalize", *surface)
        assert code == 0
        assert charpoly["char_poly"] == json.loads(out)["results"]["char_poly"]
        code, out, _ = run_cli(capsys, "resonances", *surface)
        assert code == 0
        assert json.loads(out)["results"] == {key: charpoly[key]
                                              for key in ("resonances", "monic_constant")}

    @pytest.mark.parametrize("argv, flag", [
        (["verify-map", "--family", "quadric", "--map", "map.json", "--t", "7"], "--t"),
        (["charpoly", "--expr", "u*z*zb", "--m", "3", "--C", "1"], "--C"),
        (["charpoly", "--family", "quadric", "--m", "3"], "--m"),
        (["verify-field", "--family", "quadric", "--field", "field.json", "--T", "0"], "--T"),
    ])
    def test_unread_flag_exit_2(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "map.json").write_text(json.dumps({"f": [], "g": []}))
        (tmp_path / "field.json").write_text(json.dumps({"Xz": [], "Xw": []}))
        code, out, err = run_cli(capsys, *argv, "--order-total", "9")
        assert (code, out) == (2, "")
        assert err == (f"nfc: parse error: flag {flag} is read by no chosen family, "
                       "built-in map or field\n")

    @pytest.mark.parametrize("argv, m", [
        (["charpoly", "--family", "mm", "--m", "0"], 0),
        (["verify-field", "--family", "quadric", "--m", "0"], 0),
        (["transform", "--family", "quadric", "--map", "ht", "--m", "0"], 0),
        (["charpoly", "--surface", "spec.json"], -2),
    ])
    def test_m_below_1_exit_2(self, capsys, tmp_path, monkeypatch, argv, m):
        # bad input, not a domain error: the parser rejects m before any family is built
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps({"family": {"name": "mm", "m": -2}}))
        code, out, err = run_cli(capsys, *argv, "--order-total", "9")
        assert (code, out) == (2, "")
        assert err == f"nfc: parse error: m must be a positive integer, got {m}\n"

    def test_target_is_a_verify_map_flag_only(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"order": 9, "expr": "u*z*zb"}))
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--family", "quadric", "--map", "ht", "--target", str(target)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --target" in capsys.readouterr().err

    def test_domain_error_exit_1(self, capsys):
        # not in the class: phi11 = 0
        code, _, err = run_cli(capsys, "charpoly", "--expr", "u^2*z*zb",
                               "--order-total", "9")
        assert code == 1

    def test_selftest(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["all_ok"] is True

    def test_reports_byte_identical(self, capsys):
        args = ("charpoly", "--family", "mmt", "--m", "2", "--T", "1",
                "--order-total", "9")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "resonances", "--family", "mm", "--m", "2",
                               "--order-total", "9", "--format", "text")
        assert code == 0
        assert "resonances" in out and "json" not in out


#: (argv, spec files) that are malformed: a bad literal, a negative exponent
#: or order, an unknown family or a missing family parameter, a nonzero item
#: above the order, items not given as a list, an expr that is not a string,
#: or a key that nothing reads; "{name}" in argv is the path of the spec file
#: written from files[name]
MALFORMED_LITERALS = {
    "map exponent": (["verify-map", "--family", "mm", "--m", "1", "--order-total", "9",
                      "--map", "{map}"],
                     {"map": {"f": [{"l": "x", "k": 1, "re": "1"}], "g": []}}),
    "map coefficient": (["verify-map", "--family", "mm", "--m", "1", "--order-total", "9",
                         "--map", "{map}"],
                        {"map": {"f": [{"l": 2, "k": 1, "re": "abc"}], "g": []}}),
    "field coefficient": (["verify-field", "--family", "mmt", "--m", "1", "--T", "1",
                           "--order-total", "9", "--field", "{field}"],
                          {"field": {"Xz": [{"l": 1, "k": 1, "re": "1/0"}], "Xw": []}}),
    "series coefficient": (["charpoly", "--surface", "{surface}"],
                           {"surface": {"order": 9, "series": [
                               {"a": 1, "b": 1, "c": 1, "re": "one"}]}}),
    "surface order": (["charpoly", "--surface", "{surface}"],
                      {"surface": {"order": "nine", "expr": "u*z*zb"}}),
    "family parameter in a file": (["charpoly", "--surface", "{surface}"],
                                   {"surface": {"order": 9, "family": {
                                       "name": "cd", "C": "x", "D": "0"}}}),
    "family parameter flag": (["charpoly", "--family", "cd", "--C", "x", "--D", "0",
                               "--order-total", "9"], {}),
    "missing family parameter m": (["resonances", "--family=mm", "--order-total=9"], {}),
    "missing family parameter T": (["resonances", "--family=mmt", "--m=1"], {}),
    "missing family parameter in a file": (["resonances", "--surface", "{surface}"],
                                           {"surface": {"order": 9, "family": {"name": "mm"}}}),
    "unknown family": (["resonances", "--family=mn", "--m=1"], {}),
    "family name not a string": (["resonances", "--surface", "{surface}"],
                                 {"surface": {"order": 9, "family": {"name": ["mm"]}}}),
    "negative map exponent": (["verify-map", "--family", "mm", "--m", "1", "--order-total", "9",
                               "--map", "{map}"],
                              {"map": {"f": [{"l": -1, "k": 2, "re": "1"}]}}),
    "negative series exponent": (["charpoly", "--surface", "{surface}"],
                                 {"surface": {"order": 9, "series": [
                                     {"a": 1, "b": 1, "c": 1, "re": "1"},
                                     {"a": -1, "b": 3, "c": 1, "re": "1"},
                                     {"a": 3, "b": -1, "c": 1, "re": "1"}]}}),
    "negative surface order": (["charpoly", "--surface", "{surface}"],
                               {"surface": {"order": -3, "series": [
                                   {"a": 1, "b": 1, "c": 1, "re": "1"}]}}),
    "series item above the order": (["charpoly", "--surface", "{surface}"],
                                    {"surface": {"order": 9, "series": [
                                        {"a": 1, "b": 1, "c": 1, "re": "1"},
                                        {"a": 5, "b": 5, "c": 1, "re": "7"}]}}),
    "map item above the order": (["verify-map", "--family", "quadric", "--order-total", "9",
                                  "--map", "{map}"],
                                 {"map": {"f": [{"l": 9, "k": 3, "re": "1"}]}}),
    "field item above the order": (["verify-field", "--family", "quadric", "--order-total", "9",
                                    "--field", "{field}"],
                                   {"field": {"Xz": [], "Xw": [{"l": 0, "k": 10, "im": "1"}]}}),
    "series not a list": (["charpoly", "--surface", "{surface}"],
                          {"surface": {"order": 9, "series": 5}}),
    "expr a number": (["charpoly", "--surface", "{surface}"],
                      {"surface": {"order": 9, "expr": 5}}),
    "expr null": (["charpoly", "--surface", "{surface}"],
                  {"surface": {"order": 9, "expr": None}}),
    "unread family key": (["charpoly", "--surface", "{surface}"],
                          {"surface": {"order": 9, "family": {"name": "cd", "c": "3"}}}),
    "unread builtin map key": (["verify-map", "--family", "mm", "--m", "1", "--order-total", "9",
                                "--map", "{map}"],
                               {"map": {"builtin": "ht", "T": "1/2"}}),
    "unread map key": (["verify-map", "--family", "mm", "--m", "1", "--order-total", "9",
                        "--map", "{map}"],
                       {"map": {"F": [{"l": 2, "k": 0, "re": "1"}]}}),
    "unread surface key": (["charpoly", "--surface", "{surface}"],
                           {"surface": {"ordre": 9, "expr": "u*z*zb"}}),
    "unread item key": (["charpoly", "--surface", "{surface}"],
                        {"surface": {"order": 9, "series": [
                            {"a": 1, "b": 1, "c": 1, "re": "1"},
                            {"a": 2, "b": 2, "c": 1, "Re": "5"}]}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LITERALS))
def test_malformed_literal_exit_2(capsys, tmp_path, case):
    argv, files = MALFORMED_LITERALS[case]
    paths = {}
    for name, obj in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert "parse error" in err


def test_series_item_above_the_order_is_named_as_in_an_expression(capsys, tmp_path):
    sfile = tmp_path / "surface.json"
    sfile.write_text(json.dumps({"order": 9, "series": [
        {"a": 1, "b": 1, "c": 1, "re": "1"}, {"a": 5, "b": 5, "c": 1, "re": "7"}]}))
    from_file = run_cli(capsys, "charpoly", "--surface", str(sfile))
    from_expr = run_cli(capsys, "charpoly", "--expr", "u*z*zb + 7*z^5*zb^5*u",
                        "--order-total", "9")
    message = "nfc: parse error: monomial z^5*zb^5*u^1 exceeds the truncation order 9\n"
    assert from_file == from_expr == (2, "", message)


def test_zero_items_above_the_order_are_allowed():
    spec = parse_surface_spec({"order": 9, "series": [
        {"a": 1, "b": 1, "c": 1, "re": "1"}, {"a": 5, "b": 5, "c": 1, "re": "0", "im": "0"}]})
    assert spec["series"] == {(1, 1, 1): ONE}
    m = parse_map_spec({"f": [{"l": 9, "k": 3}], "g": []}, 9)
    assert m.f.is_zero() and m.g.is_zero()


def test_builtin_map_and_field_defaults():
    assert parse_map_spec({"builtin": "ht"}, 9) == gen_Ht(1, 1, 9)
    assert parse_map_spec({"builtin": "ht", "m": 2, "t": "1/2"}, 9) == gen_Ht(2, Fraction(1, 2), 9)
    assert parse_field_spec({"builtin": "mmt"}, 9) == gen_X(1, 1, 9)
    assert parse_field_spec({"builtin": "mmt", "T": "-3"}, 9) == gen_X(1, -3, 9)
    with pytest.raises(ParseError, match="unknown builtin map 'hx'"):
        parse_map_spec({"builtin": "hx"}, 9)
    with pytest.raises(ParseError, match="unknown builtin field \\['mmt'\\]"):
        parse_field_spec({"builtin": ["mmt"]}, 9)


def test_repeated_item_takes_the_last_coefficient():
    spec = parse_surface_spec({"order": 9, "series": [
        {"a": 1, "b": 1, "c": 1, "re": "1"},
        {"a": 2, "b": 2, "c": 1, "re": "7"}, {"a": 2, "b": 2, "c": 1, "re": "5"},
        {"a": 3, "b": 3, "c": 1, "re": "7"}, {"a": 3, "b": 3, "c": 1, "re": "0"}]})
    assert spec["series"] == {(1, 1, 1): ONE, (2, 2, 1): GaussianRational(5)}
    items = [{"l": 2, "k": 1, "re": "1"}, {"l": 2, "k": 1, "re": "0"}]
    m = parse_map_spec({"f": items, "g": items[::-1]}, 9)
    assert m.f.is_zero() and m.g == HoloSeries2(9, {(2, 1): 1})
    Xz, Xw = parse_field_spec({"Xz": items, "Xw": items[::-1]}, 9)
    assert Xz.is_zero() and Xw == HoloSeries2(9, {(2, 1): 1})


def test_import_loads_no_code_generation_modules():
    # dataclasses pulls in inspect and ast, whose import a CLI call pays at
    # every start-up; only the modules that importing nfc.cli adds count, so
    # a site hook that loads one of them itself does not fail the test
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import nfc.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    new = set(proc.stdout.split())
    assert "nfc.cli" in new
    assert new.isdisjoint({"dataclasses", "inspect", "ast"}), sorted(new)


class TestPinnedOutput:
    """The stdout of each subcommand is pinned by sha256.

    Every report is exact and deterministic, so any change to parsing, the
    series arithmetic or the JSON writer that alters one byte fails here.
    The spec files are written to the working directory and named by a
    relative path, because the command line is echoed into the report.
    """

    FILES = {
        "surface.json": {"order": 10, "series": [
            {"a": 1, "b": 1, "c": 1, "re": "1", "im": "0"},
            {"a": 3, "b": 3, "c": 1, "re": "1"},
            {"a": 3, "b": 1, "c": 2, "re": "1/2", "im": "-2"},
            {"a": 1, "b": 3, "c": 2, "re": "1/2", "im": "2"},
            {"a": 2, "b": 2, "c": 3, "re": "-3"}]},
        "map.json": {"f": [{"l": 2, "k": 0, "re": "1", "im": "-1"},
                           {"l": 1, "k": 1, "re": "-2/3"}],
                     "g": [{"l": 2, "k": 1, "re": "0", "im": "1/2"}]},
    }

    PINNED = {
        "charpoly --expr": (
            ["charpoly", "--expr", "u*(z*zb + 1/4*z^2*zb^2 - z^3*zb^3 + (1 + 2*i)*z^3*zb^2"
             " + (1 - 2*i)*z^2*zb^3) + 2/3*z^2*zb^2*u^3", "--order-total", "9"],
            "35ff340b66ed4c71e97a92d26948a1851d3da6d0851b01845dbcf6785fd7dbb8"),
        "resonances --family": (
            ["resonances", "--family", "mm", "--m", "2", "--order-total", "9"],
            "cf8d386035db9c541ff6e83f71b7f2ba9277bd637eb6db8df1695381df9da35a"),
        "normalize --surface": (
            ["normalize", "--surface", "surface.json", "--order", "4"],
            "7e7cc378bfd86ecca081c42adbda388d6ee3a0ac38b7c7b85184f260257208e4"),
        "transform --map file": (
            ["transform", "--family", "cd", "--C", "1", "--D", "-3", "--map", "map.json",
             "--order-total", "9"],
            "0900fc2f10e42d662e61d112d45bed109f97c3f4c9f995539156ab26d9c68e41"),
        "verify-map --map ht": (
            ["verify-map", "--family", "mmt", "--m", "1", "--T", "1", "--map", "ht",
             "--t", "1/2", "--order-total", "9"],
            "39eaf23362d4da7fa3162835131b7c108d793a4f942ca83a4902a1de26091835"),
        "verify-field": (
            ["verify-field", "--family", "quadric", "--m", "1", "--T", "0",
             "--order-total", "9"],
            "8e7a4630f6b99239c09ca7877730750e3a348a26d7ab4c419b7e45dcbd390f48"),
        "selftest": (
            ["selftest"],
            "71c027899cfa53e748bb6261badab4f68adf77f4c74593dda34f975cacf03928"),
        "normalize --format text": (
            ["normalize", "--family", "mm", "--m", "1", "--order-total", "10",
             "--format", "text"],
            "c0c31cd96f0a08f00e3422fa6824157e8e3ef89a4ad3933239be8265aea210f9"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_stdout_digest(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        for fname, obj in self.FILES.items():
            (tmp_path / fname).write_text(json.dumps(obj))
        argv, expected = self.PINNED[name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected
