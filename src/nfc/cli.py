"""Command-line front end.

A surface comes from exactly one of a JSON spec file, inline flags for a
built-in family (families.BUILTINS declares the built-ins and their
defaults), or a small polynomial expression language in z, zb, u; reports
are deterministic JSON (or plain text) with every number serialized
exactly.  Exit status: 0 on success, 1 on domain errors (class violations,
resonant stage under --policy strict), 2 on usage, parse or input errors.

An expression's tokens are read left to right, skipping whitespace: a
decimal number with an optional "/ denominator" (whitespace allowed around
the '/'), a run of letters and digits that must be i, z, zb or u, or one of
+ - * ^ ( ).  A digit is one that int() reads, from any script; a run that
starts with another digit, such as '²', any other character, a number too
long for int() and too deep a nesting are errors that name their column.  A
unary sign applies after the power: -z^2 is -(z^2).

A spec lists a series as items: {a, b, c, re, im} for the surface, {l, k,
re, im} for the map components f, g and the field components Xz, Xw; re and
im are rational literals and default to 0; an exponent key listed twice in
one series takes the coefficient of its last item.  Every nonzero monomial,
listed or expanded from an expression, must have total degree at most the
truncation order N; a monomial above N is a parse error (exit 2) that names
it, never a silent drop.  A key that nothing reads is a parse error that
names it, never replaced by a default: a surface spec reads order, family,
series, expr; a family object reads name and the parameters of every
built-in family; a built-in map or field reads builtin and that built-in's
parameters; an item-form map reads f, g and an item-form field Xz, Xw.
The same holds for flags: a parameter flag (--m, --T, --C, --D, --t) that
neither the chosen --family nor the chosen built-in map or field reads is a
parse error that names it, and only verify-map takes --target.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
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
    power,
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
from .normalizer import normalize, prenormalize_level1
from .families import (BUILTINS, DEFAULT_ORDER, FamilySpec, gen_cd, gen_Ht, gen_mm, gen_mmt,
                       gen_quadric, gen_X, generate)


class ParseError(ValueError):
    """Syntax or validation error in user-supplied specs (exit status 2)."""


class InputError(Exception):
    """A spec file that JSON cannot read (exit status 2)."""


# ---------------------------------------------------------------------------
# expression language: polynomials in z, zb, u with rational literals,
# the imaginary unit i, operators + - * ^ and parentheses.


#: one token of the grammar in the module docstring: a number (its denominator
#: in group 2), a run of letters and digits, or another non-space character;
#: finditer skips the whitespace between matches
_TOKEN = re.compile(r"(\d+)(?:\s*/\s*(\d*))?|([^\W_]+)|(\S)")


def _token(m: re.Match) -> tuple:
    """The (kind, value, start) of one match of _TOKEN; a bad token raises."""
    num, den, name, other = m.groups()
    start = m.start()
    if num is not None:
        if den == "":
            raise ParseError(f"column {m.start(2) + 1}: expected denominator digits")
        try:
            return ("num", Fraction(int(num), int(den or 1)), start)
        except ZeroDivisionError:
            raise ParseError(f"column {m.start(2) + 1}: zero denominator") from None
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError(f"column {start + 1}: number has too many digits") from None
    if name is not None and name[0].isalpha():
        if name != "i" and name not in Series3.VARS:
            raise ParseError(f"column {start + 1}: unknown symbol {name!r}")
        return ("imag", None, start) if name == "i" else ("var", name, start)
    # a run that starts with a digit int() does not read, such as '²'
    other = other or name[0]
    if other not in "+-*^()":
        raise ParseError(f"column {start + 1}: unexpected character {other!r}")
    return (other, None, start)


class _Tokens:
    def __init__(self, text: str):
        self.toks = [*map(_token, _TOKEN.finditer(text)), ("end", None, len(text))]
        self.idx = 0
        # The parse is exact at this order: a variable token adds to the
        # degree of a monomial at most the product of the exponents applied
        # to it, which is at most the product of all exponent literals > 1.
        self.order = sum(tok[0] == "var" for tok in self.toks) * math.prod(
            int(tok[1]) for prev, tok in zip(self.toks, self.toks[1:])
            if prev[0] == "^" and tok[0] == "num" and tok[1].denominator == 1 and tok[1] > 1)

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
        base = power(base, int(e), Series3(base.n, {(0, 0, 0): ONE}))
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
    try:
        series = _parse_expr(toks)
    except RecursionError:
        raise ParseError(f"column {toks.peek()[2] + 1}: expression nested too deeply") from None
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


def _param(key: str, val):
    """The exact value of a built-in's parameter: m is a positive integer, the rest rationals."""
    value = _literal(val, key, integer=key == "m")
    if key == "m" and value < 1:
        raise ParseError(f"m must be a positive integer, got {val!r}")
    return value


def _builtin(kind: str, name, what: str):
    """The BUILTINS entry of one kind for a name taken from a spec."""
    builtin = BUILTINS[kind].get(name) if isinstance(name, str) else None
    if builtin is None:
        raise ParseError(f"unknown {what} {name!r}")
    return builtin


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

#: the parameters of every built-in family, which a family spec may carry
#: whether or not its family reads them (--family passes each flag that is set)
_FAMILY_PARAMS = tuple(dict.fromkeys(
    key for fam in BUILTINS["surface"].values() for key in fam.params))

#: the parameters of every built-in, one flag each
_PARAM_FLAGS = tuple(dict.fromkeys(
    key for kind in BUILTINS.values() for builtin in kind.values() for key in builtin.params))


def _check_keys(obj: dict, known, what: str):
    """Reject, naming it, a key of obj that is not in known."""
    for key in obj:
        if key not in known:
            raise ParseError(f"unknown key {key!r} in {what}")


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
            key = tuple(_count(item[e], e) for e in _ITEM_KEYS[cls])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad {what} item {item!r}") from exc
        _check_keys(item, (*_ITEM_KEYS[cls], "re", "im"), f"{what} item")
        terms[key] = _coefficient(item)
    terms = {key: val for key, val in terms.items() if not val.is_zero()}
    for key in terms:
        _check_degree(key, order, cls.VARS)
    return terms


def _hermitian_check(terms: dict):
    for (a, b, c), v in terms.items():
        if terms.get((b, a, c), ZERO) != v.conjugate():
            raise ParseError(f"not Hermitian: monomial {_monomial((a, b, c), Series3.VARS)}"
                             " has no conjugate partner")


def surface_spec_to_obj(spec) -> dict:
    """Canonical JSON-ready form of a resolved surface spec."""
    out = {"order": spec["order"]}
    if "family" in spec:
        out["family"] = {k: (v if isinstance(v, (str, int)) else rational_str(v))
                         for k, v in spec["family"].items()}
    else:
        out["series"] = [_term_obj(key, v) for key, v in sorted(spec["series"].items())]
    return out


def parse_surface_spec(obj, default_order: int = DEFAULT_ORDER) -> dict:
    """Normalize a raw spec object to {order, family|series}; an expr becomes its series."""
    if not isinstance(obj, dict):
        raise ParseError("surface spec must be a JSON object")
    _check_keys(obj, ("order", "family", "series", "expr"), "surface spec")
    order = _count(obj.get("order", default_order), "order")
    kinds = [k for k in ("family", "series", "expr") if k in obj]
    if len(kinds) != 1:
        raise ParseError("surface spec needs exactly one of: family, series, expr")
    kind = kinds[0]
    if kind == "family":
        fam = obj["family"]
        if not isinstance(fam, dict) or "name" not in fam:
            raise ParseError("family spec needs a name")
        _check_keys(fam, ("name", *_FAMILY_PARAMS), "family spec")
        name, family = fam["name"], _builtin("surface", fam["name"], "family")
        params = {key: _param(key, val) for key, val in fam.items() if key != "name"}
        try:
            family.values(params, f"family {name!r}")
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        return {"order": order, "family": {"name": name, **params}}
    if kind == "series":
        terms = _read_items(obj["series"], Series3, order, "series")
    elif isinstance(obj["expr"], str):
        terms = parse_expression(obj["expr"])
        for key in sorted(terms):
            _check_degree(key, order, Series3.VARS)
    else:
        raise ParseError("expr must be a string")
    _hermitian_check(terms)
    return {"order": order, "series": terms}


def build_surface(spec) -> GraphSurface:
    if "family" in spec:
        params = dict(spec["family"])
        return generate(FamilySpec(name=params.pop("name"), params=params, order=spec["order"]))
    return GraphSurface(Series3(spec["order"], spec["series"]))


def _holo_spec(obj, order: int, kind: str, sides: tuple, assemble):
    """A map or field from a built-in or from the items under each side (zero when absent)."""
    if not isinstance(obj, dict):
        raise ParseError(f"{kind} spec must be a JSON object")
    if "builtin" in obj:
        builtin = _builtin(kind, obj["builtin"], f"builtin {kind}")
        _check_keys(obj, ("builtin", *builtin.params), f"builtin {kind} spec")
        return builtin.build(*(_param(key, obj.get(key, default))
                               for key, default in builtin.params.items()), order)
    _check_keys(obj, sides, f"{kind} spec")
    return assemble(*(HoloSeries2(order, _read_items(obj.get(side, []), HoloSeries2, order, side))
                      for side in sides))


def parse_map_spec(obj, order: int) -> FormalMap:
    """A map from {"builtin": "ht", m, t} or from the items of f and g."""
    return _holo_spec(obj, order, "map", ("f", "g"), FormalMap)


def parse_field_spec(obj, order: int) -> tuple[HoloSeries2, HoloSeries2]:
    """A field (Xz, Xw) from {"builtin": "mmt", m, T} or from the items of Xz and Xw."""
    return _holo_spec(obj, order, "field", ("Xz", "Xw"), lambda *sides: sides)


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
    with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON text is UTF-8
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too deep, too long
            raise InputError(str(exc)) from None


def _resolve_surface(args) -> tuple[dict, GraphSurface]:
    sources = [key for key in ("surface", "family", "expr") if getattr(args, key)]
    if len(sources) != 1:
        raise ParseError(f"{'more than one' if sources else 'no'} surface given:"
                         " use exactly one of --surface, --family, --expr")
    if args.surface:
        raw = _load_json(args.surface)
    elif args.family:
        # every family flag that is set, whether or not the family reads it
        raw = {"family": {"name": args.family, **{
            key: getattr(args, key) for key in _FAMILY_PARAMS if getattr(args, key) is not None}}}
    else:
        raw = {"expr": args.expr}
    spec = parse_surface_spec(raw, default_order=args.order_total)
    # the built-ins chosen: the family, a built-in map, the default field
    chosen = [BUILTINS["surface"].get(args.family),
              BUILTINS["map"].get(getattr(args, "map", None)),
              BUILTINS["field"]["mmt"] if hasattr(args, "field") and not args.field else None]
    read = {key for builtin in chosen if builtin is not None for key in builtin.params}
    for key in _PARAM_FLAGS:
        if getattr(args, key, None) is not None and key not in read:
            raise ParseError(f"flag --{key} is read by no chosen family, built-in map or field")
    return spec, build_surface(spec)


def _builtin_raw(kind: str, name: str, args) -> dict:
    """The raw spec of a built-in map or field: each parameter's flag, else its default."""
    return {"builtin": name, **{key: default if getattr(args, key) is None else getattr(args, key)
                                for key, default in BUILTINS[kind][name].params.items()}}


def _resolve_map(args, order: int) -> tuple[dict, FormalMap]:
    if not args.map:
        raise ParseError("no map given: use --map FILE or --map ht")
    raw = (_builtin_raw("map", args.map, args) if args.map in BUILTINS["map"]
           else _load_json(args.map))
    return raw, parse_map_spec(raw, order)


def _resolve_field(args, order: int):
    raw = _load_json(args.field) if args.field else _builtin_raw("field", "mmt", args)
    return raw, parse_field_spec(raw, order)


def _charpoly_payload(M: GraphSurface) -> dict:
    """The characteristic polynomial of the 7-jet, read after level-1 prenormalization
    as normalize reads it; a prenormalized M is its own prenormalization."""
    rep = char_poly(jet7(prenormalize_level1(M)[0]))
    j = rep.jet
    return {
        "char_poly": _kpoly_obj(rep.char_poly),
        "monic_constant": gaussian_to_obj(rep.monic_constant),
        "resonances": rep.resonances,
        "jet7": {name: gaussian_to_obj(x) for name, x in zip(j._fields, j)},
    }


def cmd_charpoly(args) -> dict:
    spec, M = _resolve_surface(args)
    return make_report(args.echo, _charpoly_payload(M), surface_spec_to_obj(spec))


def cmd_resonances(args) -> dict:
    report = cmd_charpoly(args)
    report["results"] = {key: report["results"][key] for key in ("resonances", "monic_constant")}
    return report


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

    def command(name, run, help, surface=True, with_map=False, with_field=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if surface:
            p.add_argument("--surface", help="surface spec file (JSON)")
            p.add_argument("--family", help=f"built-in family: {', '.join(BUILTINS['surface'])}")
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
        if with_field:
            p.add_argument("--field", help="field spec file (JSON); default built-in")
        return p

    command("charpoly", cmd_charpoly, "monic characteristic polynomial of the 7-jet")
    command("resonances", cmd_resonances, "integer resonances k >= 2")
    p = command("normalize", cmd_normalize, "run the stage-by-stage normalization")
    p.add_argument("--order", type=int, help="last stage K (default N-6)")
    p.add_argument("--policy", choices=("strict", "gauge-zero"), default="gauge-zero")
    p.add_argument("--display-cutoff", type=int, default=9,
                   help="emit normal-form terms up to this total degree")
    p = command("transform", cmd_transform, "transform a surface by a formal map", with_map=True)
    p.add_argument("--display-cutoff", type=int, default=9)
    p = command("verify-map", cmd_verify_map, "check a map sends the surface into the target",
                with_map=True)
    p.add_argument("--target", help="target surface spec file")
    command("verify-field", cmd_verify_field, "check a vector field is tangent to the surface",
            with_field=True)
    command("selftest", cmd_selftest, "run the built-in example checks", surface=False)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = ["nfc"] + argv
    try:
        report = args.run(args)
    except ParseError as exc:
        print(f"nfc: parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, InputError) as exc:
        print(f"nfc: input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"nfc: {exc}", file=sys.stderr)
        return 1
    exit_code = report.pop("_exit", 0)
    sys.stdout.write(emit(report, args.format))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
