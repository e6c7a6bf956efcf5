"""Command-line front end.

Surfaces come from a JSON spec file, inline family flags, or a small
polynomial expression language in z, zb, u; reports are deterministic JSON
(or plain text) with every number serialized exactly.  Exit status: 0 on
success, 1 on domain errors (class violations, resonant stage under
--policy strict), 2 on usage or parse errors.

A spec lists a series as items: {a, b, c, re, im} for the surface, {l, k,
re, im} for the map components f, g and the field components Xz, Xw; re and
im are rational literals and default to 0; an exponent key listed twice in
one series takes the coefficient of its last item.  Every nonzero monomial,
listed or expanded from an expression, must have total degree at most the
truncation order N; a monomial above N is a parse error (exit 2) that names
it, never a silent drop.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .scalar import (
    GaussianRational,
    ZERO,
    ONE,
    I,
    gaussian_to_obj,
    parse_rational,
    rational_str,
)
from .series import FormalMap, HoloSeries2, Series3
from .surface import (
    GraphSurface,
    infinitesimal_defect,
    jet7,
    map_defect,
    transform,
    validate_class,
)
from .resonance import char_poly
from .normalizer import normalize
from .families import (FAMILY_PARAMS, FamilySpec, gen_cd, gen_Ht, gen_mm, gen_mmt,
                       gen_quadric, gen_X, generate)

DEFAULT_ORDER = 13


class ParseError(ValueError):
    """Syntax or validation error in user-supplied specs (exit status 2)."""


# ---------------------------------------------------------------------------
# expression language: polynomials in z, zb, u with rational literals,
# the imaginary unit i, operators + - * ^ and parentheses.


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        self._lex()
        self.idx = 0
        # The parse is exact at this order: a variable token adds to the
        # degree of a monomial at most the product of the exponents applied
        # to it, which is at most the product of all exponent literals > 1.
        self.order = sum(tok[0] == "var" for tok in self.toks) * math.prod(
            int(tok[1]) for prev, tok in zip(self.toks, self.toks[1:])
            if prev[0] == "^" and tok[0] == "num" and tok[1].denominator == 1 and tok[1] > 1)

    def _lex(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            start = i
            if ch.isdigit():
                while i < n and text[i].isdigit():
                    i += 1
                num = int(text[start:i])
                j = i
                while j < n and text[j].isspace():
                    j += 1
                if j < n and text[j] == "/":
                    j += 1
                    while j < n and text[j].isspace():
                        j += 1
                    dstart = j
                    while j < n and text[j].isdigit():
                        j += 1
                    if dstart == j:
                        raise ParseError(f"column {j + 1}: expected denominator digits")
                    den = int(text[dstart:j])
                    if den == 0:
                        raise ParseError(f"column {dstart + 1}: zero denominator")
                    self.toks.append(("num", Fraction(num, den), start))
                    i = j
                else:
                    self.toks.append(("num", Fraction(num), start))
                continue
            if ch.isalpha():
                while i < n and text[i].isalnum():
                    i += 1
                name = text[start:i]
                if name == "i":
                    self.toks.append(("imag", None, start))
                elif name in Series3.VARS:
                    self.toks.append(("var", name, start))
                else:
                    raise ParseError(f"column {start + 1}: unknown symbol {name!r}")
                continue
            if ch in "+-*^()":
                self.toks.append((ch, None, start))
                i += 1
                continue
            raise ParseError(f"column {start + 1}: unexpected character {ch!r}")
        self.toks.append(("end", None, n))

    def peek(self):
        return self.toks[self.idx]

    def take(self, kind=None):
        tok = self.toks[self.idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"column {tok[2] + 1}: expected {kind!r}, found {tok[0]!r}")
        self.idx += 1
        return tok


def _parse_expr(toks: _Tokens) -> Series3:
    acc = _parse_term(toks)
    while toks.peek()[0] in ("+", "-"):
        op = toks.take()[0]
        rhs = _parse_term(toks)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_term(toks: _Tokens) -> Series3:
    acc = _parse_factor(toks)
    while toks.peek()[0] == "*":
        toks.take()
        acc = acc * _parse_factor(toks)
    return acc


def _parse_factor(toks: _Tokens) -> Series3:
    # a unary sign applies after the power: -z^2 is -(z^2)
    kind = toks.peek()[0]
    if kind in ("+", "-"):
        toks.take()
        inner = _parse_factor(toks)
        return -inner if kind == "-" else inner
    base = _parse_atom(toks)
    while toks.peek()[0] == "^":
        toks.take()
        tok = toks.take("num")
        e = tok[1]
        if e.denominator != 1 or e < 0:
            raise ParseError(f"column {tok[2] + 1}: exponent must be a non-negative integer")
        out = Series3(toks.order, {(0, 0, 0): ONE})
        for _ in range(int(e)):
            out = out * base
        base = out
    return base


def _parse_atom(toks: _Tokens) -> Series3:
    kind, val, pos = toks.peek()
    if kind == "num":
        toks.take()
        return Series3(toks.order, {(0, 0, 0): val})
    if kind == "imag":
        toks.take()
        return Series3(toks.order, {(0, 0, 0): I})
    if kind == "var":
        toks.take()
        return Series3.var(val, toks.order)
    if kind == "(":
        toks.take()
        inner = _parse_expr(toks)
        toks.take(")")
        return inner
    raise ParseError(f"column {pos + 1}: unexpected token {kind!r}")


def parse_expression(text: str) -> dict:
    """Parse the expression language into a coefficient map (a,b,c) -> value."""
    toks = _Tokens(text)
    series = _parse_expr(toks)
    toks.take("end")
    return dict(series.terms)


# ---------------------------------------------------------------------------
# surface / map / field spec resolution


def _literal(val, what: str, integer: bool = False):
    """The exact value of one spec literal: an int, or a Fraction from "p/q"."""
    try:
        return int(str(val)) if integer else parse_rational(str(val))
    except ValueError:
        kind = "an integer" if integer else "a rational"
        raise ParseError(f"{what} must be {kind} literal, got {val!r}") from None


def _count(val, what: str) -> int:
    """A spec literal that must be a non-negative integer: an exponent or an order."""
    n = _literal(val, what, integer=True)
    if n < 0:
        raise ParseError(f"{what} must be non-negative, got {val!r}")
    return n


def _coefficient(item: dict) -> GaussianRational:
    """The coefficient re + i*im of a series item; absent parts are 0."""
    return GaussianRational(_literal(item.get("re", "0"), "re"),
                            _literal(item.get("im", "0"), "im"))


#: the exponent keys of a spec item, one per variable of the series type
_ITEM_KEYS = {Series3: "abc", HoloSeries2: "lk"}


def _monomial(key: tuple, names: tuple) -> str:
    return "*".join(f"{v}^{e}" for v, e in zip(names, key))


def _check_degree(key: tuple, order: int, names: tuple):
    """Reject a monomial above the truncation order, naming it."""
    if sum(key) > order:
        raise ParseError(f"monomial {_monomial(key, names)} exceeds the truncation order {order}")


def _read_items(items, cls, order: int, what: str) -> dict:
    """The nonzero coefficients of the spec items of one series of type cls.

    An item names the exponents of cls ({a, b, c} for Series3, {l, k} for
    HoloSeries2) and a coefficient re + i*im.  A key listed twice takes the
    coefficient of its last item, zero or not; a nonzero coefficient above
    the order is an error.
    """
    if not isinstance(items, list):
        raise ParseError(f"{what} must be a list of items")
    terms = {}
    for item in items:
        try:
            terms[tuple(_count(item[e], e) for e in _ITEM_KEYS[cls])] = _coefficient(item)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad {what} item {item!r}") from exc
    terms = {key: val for key, val in terms.items() if not val.is_zero()}
    for key in terms:
        _check_degree(key, order, cls.VARS)
    return terms


def _holo_side(obj: dict, side: str, order: int) -> HoloSeries2:
    """The HoloSeries2 of the items listed under obj[side]; zero when absent."""
    return HoloSeries2(order, _read_items(obj.get(side, []), HoloSeries2, order, side))


def _hermitian_check(terms: dict):
    for (a, b, c), v in terms.items():
        if terms.get((b, a, c), ZERO) != v.conjugate():
            raise ParseError(f"not Hermitian: monomial {_monomial((a, b, c), Series3.VARS)}"
                             " has no conjugate partner")


def surface_spec_to_obj(spec) -> dict:
    """Canonical JSON-ready form of a resolved surface spec."""
    out = {"order": spec["order"]}
    if "family" in spec:
        fam = dict(spec["family"])
        out["family"] = {k: (v if isinstance(v, (str, int)) else rational_str(v))
                         for k, v in fam.items()}
    else:
        out["series"] = [_term_obj(key, v) for key, v in sorted(spec["series"].items())]
    return out


def parse_surface_spec(obj, default_order: int = DEFAULT_ORDER) -> dict:
    """Normalize a raw spec object to {order, family|series}; an expr becomes its series."""
    if not isinstance(obj, dict):
        raise ParseError("surface spec must be a JSON object")
    order = _count(obj.get("order", default_order), "order")
    kinds = [k for k in ("family", "series", "expr") if k in obj]
    if len(kinds) != 1:
        raise ParseError("surface spec needs exactly one of: family, series, expr")
    kind = kinds[0]
    if kind == "family":
        fam = obj["family"]
        if not isinstance(fam, dict) or "name" not in fam:
            raise ParseError("family spec needs a name")
        name = fam["name"]
        if not isinstance(name, str) or name not in FAMILY_PARAMS:
            raise ParseError(f"unknown family {name!r}")
        params = {key: _literal(val, key, integer=key == "m")
                  for key, val in fam.items() if key != "name"}
        for key in FAMILY_PARAMS[name]:
            if key not in params:
                raise ParseError(f"family {name!r} needs the parameter {key}")
        return {"order": order, "family": {"name": name, **params}}
    if kind == "series":
        terms = _read_items(obj["series"], Series3, order, "series")
        _hermitian_check(terms)
        return {"order": order, "series": terms}
    text = obj["expr"]
    if not isinstance(text, str):
        raise ParseError("expr must be a string")
    terms = parse_expression(text)
    for key in sorted(terms):
        _check_degree(key, order, Series3.VARS)
    _hermitian_check(terms)
    return {"order": order, "series": terms}


def build_surface(spec) -> GraphSurface:
    if "family" in spec:
        fam = spec["family"]
        name = fam["name"]
        params = {k: v for k, v in fam.items() if k != "name"}
        return generate(FamilySpec(name=name, params=params, order=spec["order"]))
    return GraphSurface(Series3(spec["order"], spec["series"]))


def parse_map_spec(obj, order: int) -> FormalMap:
    if not isinstance(obj, dict):
        raise ParseError("map spec must be a JSON object")
    if "builtin" in obj:
        if obj["builtin"] != "ht":
            raise ParseError(f"unknown builtin map {obj['builtin']!r}")
        m = _literal(obj.get("m", 1), "m", integer=True)
        t = _literal(obj.get("t", "1"), "t")
        return gen_Ht(m, t, order)
    return FormalMap(_holo_side(obj, "f", order), _holo_side(obj, "g", order))


def parse_field_spec(obj, order: int):
    if not isinstance(obj, dict):
        raise ParseError("field spec must be a JSON object")
    if "builtin" in obj:
        if obj["builtin"] != "mmt":
            raise ParseError(f"unknown builtin field {obj['builtin']!r}")
        m = _literal(obj.get("m", 1), "m", integer=True)
        T = _literal(obj.get("T", "1"), "T")
        return gen_X(m, T, order)
    return _holo_side(obj, "Xz", order), _holo_side(obj, "Xw", order)


# ---------------------------------------------------------------------------
# reports


def _term_obj(key: tuple, val) -> dict:
    """The wire form of one monomial of a Series3: {a, b, c, re, im}."""
    a, b, c = key
    return {"a": a, "b": b, "c": c, **gaussian_to_obj(val)}


def _series_obj(s: Series3, cutoff: int) -> list:
    return [_term_obj(key, v) for key, v in s.sorted_terms() if sum(key) <= cutoff]


def _kpoly_obj(p) -> list:
    return [gaussian_to_obj(c) for c in p.coeffs]


def _defect_payload(defect: Series3) -> dict:
    """Whether a defect series vanishes, and its lowest nonzero monomial if not."""
    first = None
    if not defect.is_zero():
        key = min(defect.terms, key=lambda k: (sum(k), k))
        first = _term_obj(key, defect.terms[key])
    return {"defect_zero": defect.is_zero(), "order": defect.n, "first_nonzero": first}


def make_report(command: list, payload: dict, digest_src) -> dict:
    digest = hashlib.sha256(
        json.dumps(digest_src, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "command": command,
        "input_digest": digest,
        "tool_version": __version__,
        "results": payload,
    }


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    lines = [f"# {' '.join(str(c) for c in report['command'])}",
             f"tool version {report['tool_version']}, input digest {report['input_digest'][:16]}"]

    def render(obj, indent=""):
        if isinstance(obj, dict):
            for key in sorted(obj):
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{indent}{key}:")
                    render(val, indent + "  ")
                else:
                    lines.append(f"{indent}{key}: {val}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)):
                    render(val, indent + "  ")
                    lines.append(indent + "  -")
                else:
                    lines.append(f"{indent}- {val}")
        else:
            lines.append(f"{indent}{obj}")

    render(report["results"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _resolve_surface(args) -> tuple[dict, GraphSurface]:
    if args.surface:
        raw = _load_json(args.surface)
    elif args.family:
        fam = {"name": args.family}
        for key in ("m", "T", "C", "D"):
            if getattr(args, key) is not None:
                fam[key] = getattr(args, key)
        raw = {"family": fam}
    elif args.expr:
        raw = {"expr": args.expr}
    else:
        raise ParseError("no surface given: use --surface, --family or --expr")
    spec = parse_surface_spec(raw, default_order=args.order_total)
    return spec, build_surface(spec)


def _resolve_map(args, order: int) -> tuple[dict, FormalMap]:
    if not args.map:
        raise ParseError("no map given: use --map FILE or --map ht")
    if args.map == "ht":
        raw = {"builtin": "ht", "m": args.m if args.m is not None else 1,
               "t": args.t if args.t is not None else "1"}
    else:
        raw = _load_json(args.map)
    return raw, parse_map_spec(raw, order)


def _resolve_field(args, order: int):
    if args.field:
        raw = _load_json(args.field)
    else:
        raw = {"builtin": "mmt", "m": args.m if args.m is not None else 1,
               "T": args.T if args.T is not None else "1"}
    return raw, parse_field_spec(raw, order)


def _charpoly_payload(M: GraphSurface) -> dict:
    rep = char_poly(jet7(M))
    j = rep.jet
    return {
        "char_poly": _kpoly_obj(rep.char_poly),
        "monic_constant": gaussian_to_obj(rep.monic_constant),
        "resonances": rep.resonances,
        "jet7": {
            "phi22": gaussian_to_obj(j.phi22),
            "phi32": gaussian_to_obj(j.phi32),
            "phi33": gaussian_to_obj(j.phi33),
            "phi42": gaussian_to_obj(j.phi42),
            "phi43": gaussian_to_obj(j.phi43),
        },
    }


def cmd_charpoly(args) -> dict:
    spec, M = _resolve_surface(args)
    return make_report(args.echo, _charpoly_payload(M), surface_spec_to_obj(spec))


def cmd_resonances(args) -> dict:
    spec, M = _resolve_surface(args)
    rep = char_poly(jet7(M))
    payload = {
        "resonances": rep.resonances,
        "monic_constant": gaussian_to_obj(rep.monic_constant),
    }
    return make_report(args.echo, payload, surface_spec_to_obj(spec))


def cmd_normalize(args) -> dict:
    spec, M = _resolve_surface(args)
    K = args.order if args.order is not None else M.n - 6
    policy = args.policy.replace("-", "_")
    result = normalize(M, K, policy=policy)
    defect = map_defect(M, result.map, result.normal_form)
    payload = {
        "stages": [
            {
                "k": s.k,
                "status": s.status,
                "residuals": [_term_obj(key, v) for key, v in s.residuals],
                "gauge": ["".join(map(str, lab)) for lab in s.gauge],
            }
            for s in result.stages
        ],
        "resonances_predicted": result.resonances_predicted,
        "resonances_observed": result.resonances_observed,
        "normal_form": _series_obj(result.normal_form.phi, args.display_cutoff),
        "map_defect_zero_to_order": defect.n if defect.is_zero() else None,
        "char_poly": _kpoly_obj(result.char_poly_report.char_poly),
    }
    return make_report(args.echo, payload, surface_spec_to_obj(spec))


def cmd_transform(args) -> dict:
    spec, M = _resolve_surface(args)
    raw_map, m = _resolve_map(args, M.n)
    out = transform(M, m)
    report = validate_class(out)
    payload = {
        "surface": _series_obj(out.phi, args.display_cutoff),
        "in_class": report.in_class,
    }
    return make_report(args.echo, payload, [surface_spec_to_obj(spec), raw_map])


def cmd_verify_map(args) -> dict:
    spec, M = _resolve_surface(args)
    raw_map, m = _resolve_map(args, M.n)
    if args.target:
        tspec = parse_surface_spec(_load_json(args.target), default_order=M.n)
        Mt = build_surface(tspec)
        tobj = surface_spec_to_obj(tspec)
    else:
        Mt, tobj = M, None
    payload = _defect_payload(map_defect(M, m, Mt))
    return make_report(args.echo, payload, [surface_spec_to_obj(spec), raw_map, tobj])


def cmd_verify_field(args) -> dict:
    spec, M = _resolve_surface(args)
    raw_field, (Xz, Xw) = _resolve_field(args, M.n)
    payload = _defect_payload(infinitesimal_defect(M, Xz, Xw))
    return make_report(args.echo, payload, [surface_spec_to_obj(spec), raw_field])


def cmd_selftest(args) -> dict:
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:   # noqa: BLE001 - report, do not crash
            checks.append({"name": name, "ok": False, "error": str(exc)})
            return
        checks.append({"name": name, "ok": ok})

    check("quadric is nonresonant",
          lambda: char_poly(jet7(gen_quadric(9))).resonances == [])
    check("quadric monic constant 3/16",
          lambda: char_poly(jet7(gen_quadric(9))).monic_constant == GaussianRational(Fraction(3, 16)))
    check("M_1 resonances are {2, 3}",
          lambda: char_poly(jet7(gen_mm(1, 9))).resonances == [2, 3])
    check("M_2 resonances are {3, 5}",
          lambda: char_poly(jet7(gen_mm(2, 9))).resonances == [3, 5])
    check("M_{2,1} resonance is {3}",
          lambda: char_poly(jet7(gen_mmt(2, 1, 9))).resonances == [3])
    check("H_1 maps M_1 into itself (order 9)",
          lambda: map_defect(gen_mm(1, 9), gen_Ht(1, 1, 9), gen_mm(1, 9)).is_zero())
    check("vector field tangency for M_{1,1} (order 9)",
          lambda: infinitesimal_defect(gen_mmt(1, 1, 9), *gen_X(1, 1, 9)).is_zero())
    check("normalize fixes the quadric",
          lambda: normalize(gen_quadric(10), 4).map.is_identity())
    check("normalize solves all stages for C=0, D=-24 (K=4)",
          lambda: all(s.status == "solved" for s in normalize(gen_cd(0, -24, 10), 4).stages))
    ok = all(c["ok"] for c in checks)
    payload = {"checks": checks, "all_ok": ok}
    report = make_report(args.echo, payload, {"selftest": True})
    report["_exit"] = 0 if ok else 1
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfc",
        description="Exact characteristic polynomials, resonances and normal forms "
                    "for infinite-type hypersurface graphs in C^2.",
    )
    parser.add_argument("--version", action="version", version=f"nfc {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, with_map=False, with_field=False):
        p.add_argument("--surface", help="surface spec file (JSON)")
        p.add_argument("--family", help="built-in family: quadric, cd, mm, mmt")
        p.add_argument("--expr", help="surface expression in z, zb, u")
        p.add_argument("--m", type=int, help="family parameter m")
        p.add_argument("--T", help="family parameter T (rational)")
        p.add_argument("--C", help="family parameter C (rational)")
        p.add_argument("--D", help="family parameter D (rational)")
        p.add_argument("--order-total", type=int, default=DEFAULT_ORDER,
                       help=f"series truncation order N (default {DEFAULT_ORDER})")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if with_map:
            p.add_argument("--map", help="map spec file (JSON) or 'ht'")
            p.add_argument("--t", help="parameter t for the built-in map family")
            p.add_argument("--target", help="target surface spec file (verify-map)")
        if with_field:
            p.add_argument("--field", help="field spec file (JSON); default built-in")

    p = sub.add_parser("charpoly", help="monic characteristic polynomial of the 7-jet")
    common(p)
    p = sub.add_parser("resonances", help="integer resonances k >= 2")
    common(p)
    p = sub.add_parser("normalize", help="run the stage-by-stage normalization")
    common(p)
    p.add_argument("--order", type=int, help="last stage K (default N-6)")
    p.add_argument("--policy", choices=("strict", "gauge-zero"), default="gauge-zero")
    p.add_argument("--display-cutoff", type=int, default=9,
                   help="emit normal-form terms up to this total degree")
    p = sub.add_parser("transform", help="transform a surface by a formal map")
    common(p, with_map=True)
    p.add_argument("--display-cutoff", type=int, default=9)
    p = sub.add_parser("verify-map", help="check a map sends the surface into the target")
    common(p, with_map=True)
    p = sub.add_parser("verify-field", help="check a vector field is tangent to the surface")
    common(p, with_field=True)
    p = sub.add_parser("selftest", help="run the built-in example checks")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


_COMMANDS = {
    "charpoly": cmd_charpoly,
    "resonances": cmd_resonances,
    "normalize": cmd_normalize,
    "transform": cmd_transform,
    "verify-map": cmd_verify_map,
    "verify-field": cmd_verify_field,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = ["nfc"] + argv
    try:
        report = _COMMANDS[args.cmd](args)
    except ParseError as exc:
        print(f"nfc: parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"nfc: input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"nfc: {exc}", file=sys.stderr)
        return 1
    exit_code = report.pop("_exit", 0)
    sys.stdout.write(emit(report, getattr(args, "format", "json")))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
