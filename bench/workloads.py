"""The benchmark's four workloads: seeded inputs, the timed op, and output checks.

Every input is drawn from a fixed pool whose members are built from their
own pool index, so the reference digest of each member could be recorded
once (``reference.json``, written by ``record.py``).  The run's ``--seed``
only chooses which pool members run and in which order; ``nfc`` receives
the generated surfaces, jets and command lines, never the seed.

A check returns ``("ok", "")``, ``("known", why)`` for the known defects
listed in README.md, or ``("fail", why)``.  Known and failed ops both count
as failed ops; only ``fail`` makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

#: ``integer_roots_ge2`` scans divisors only up to this bound (ROADMAP
#: direction 4), so integer roots above it go missing; README.md lists this
#: known defect.
KNOWN_RESONANCE_CEILING = 10000

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path("bench") / "out"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coeff_text(v) -> str:
    return f"{v.nre},{v.nim},{v.den}"


def series_text(terms: dict) -> str:
    return ";".join(f"{','.join(map(str, key))}:{_coeff_text(v)}" for key, v in sorted(terms.items()))


def _bits(v) -> int:
    return max(abs(v.nre).bit_length(), abs(v.nim).bit_length(), v.den.bit_length())


def _rational(rng, nums, dens) -> Fraction:
    return Fraction(rng.choice(nums), rng.choice(dens))


def _q(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _hermitian_put(nfc, terms: dict, key, re: Fraction, im: Fraction):
    """Set phi_key and its conjugate partner; diagonal entries keep only re."""
    a, b, c = key
    if a == b:
        terms[key] = nfc.GaussianRational(re)
    else:
        v = nfc.GaussianRational(re, im)
        terms[key] = v
        terms[(b, a, c)] = v.conjugate()


class Workload:
    """Interface the runner and the recorder drive."""

    name = ""
    cli = False     # ops run through ``nfc.cli``

    def inputs(self, nfc, seed: int) -> list:
        """[(pool key, input)] for this seed, in run order."""
        return [(key, self.build(nfc, key)) for key in self.keys(seed)]

    def keys(self, seed: int) -> list:
        raise NotImplementedError

    def pool(self) -> list:
        """Every pool key, for the recorder."""
        raise NotImplementedError

    def build(self, nfc, key: str):
        raise NotImplementedError

    def prepare(self, items: list) -> None:
        """Put what the built inputs need on disk; the runner does not time it."""

    def run(self, nfc, item):
        raise NotImplementedError

    def reference(self, nfc, key: str, item, output):
        """The reference entry for an output (the recorder checks it first)."""
        raise NotImplementedError

    def check(self, nfc, key: str, item, output, ref) -> tuple:
        raise NotImplementedError

    def describe(self, item) -> str:
        """Canonical text of an input; equal text means equal input."""
        raise NotImplementedError

    def coeff_bits(self, output) -> int:
        """Largest numerator or denominator bit length in an output."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# normalize: shared output digest and checks


def normalize_digest(res) -> str:
    return digest("|".join((series_text(res.normal_form.phi.terms),
                            series_text(res.map.f.terms), series_text(res.map.g.terms))))


def check_normalize(nfc, M, K: int, res, ref: str) -> list:
    """Reasons a normalize output is wrong; empty when it is right."""
    why = []
    if normalize_digest(res) != ref:
        why.append("normal form or map differs from the reference")
    if not nfc.map_defect(M, res.map, res.normal_form).is_zero():
        why.append("map does not send the surface to its normal form")
    dropped = {key for stage in res.stages for key, _ in stage.residuals}
    bad = [key for key in nfc.check_normal_form(res.normal_form).violations()
           if key[2] <= K and key not in dropped]
    if bad:
        why.append(f"normal-form violations at levels <= K: {bad[:4]}")
    return why


def normalize_bits(res) -> int:
    values = [*res.normal_form.phi.terms.values(), *res.map.f.terms.values(),
              *res.map.g.terms.values()]
    return max((_bits(v) for v in values), default=0)


class _NormalizeWorkload(Workload):
    def run(self, nfc, item):
        M, K = item
        return nfc.normalize(M, K)

    def reference(self, nfc, key, item, output):
        return normalize_digest(output)

    def describe(self, item) -> str:
        M, K = item
        return f"N={M.n} K={K} {series_text(M.phi.terms)}"

    def coeff_bits(self, output) -> int:
        return normalize_bits(output)


# ---------------------------------------------------------------------------
# messy: surfaces whose stage maps are nonzero


#: The surface of tests/test_normalizer.py::test_messy_surface_full_run.
MESSY_TEST_SURFACE = {
    (1, 1, 1): Fraction(1),
    (2, 1, 1): Fraction(1, 2), (1, 2, 1): Fraction(1, 2),
    (2, 2, 2): Fraction(3),
    (3, 2, 2): Fraction(-1, 4), (2, 3, 2): Fraction(-1, 4),
    (2, 2, 1): Fraction(1, 4),
    (3, 3, 1): Fraction(-2, 3),
    (1, 1, 4): Fraction(5),
}
MESSY_FIXED_ORDERS = (10, 11)
MESSY_N = 10
MESSY_POOL = 48
MESSY_PICKS = 14
MESSY_TERMS = 35     # the filler runs out first: 30 to 35 terms
_JET_KEYS = ((2, 2, 1), (3, 3, 1), (3, 2, 1), (4, 2, 1), (4, 3, 1))
_ROWS = ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3))
# the (a, b) rows the stages clean are a, b <= 1 and the flat rows; filler
# monomials avoid them so each surface's stage maps come from its chosen terms
_FILLER = tuple((a, b, c) for a in range(2, MESSY_N) for b in range(2, a + 1)
                for c in range(2, MESSY_N) if 9 <= a + b + c <= MESSY_N
                and (a, b) not in ((2, 2), (3, 2), (3, 3)))


class Messy(_NormalizeWorkload):
    """normalize(M, N - 6) on surfaces far from normal form."""

    name = "messy"

    def pool(self):
        return [f"fixed/{n}" for n in MESSY_FIXED_ORDERS] + [f"pool/{i}" for i in range(MESSY_POOL)]

    def keys(self, seed):
        rng = random.Random(f"messy:{seed}")
        keys = [f"fixed/{n}" for n in MESSY_FIXED_ORDERS]
        keys += [f"pool/{i}" for i in rng.sample(range(MESSY_POOL), MESSY_PICKS)]
        rng.shuffle(keys)
        return keys

    def build(self, nfc, key):
        kind, arg = key.split("/")
        if kind == "fixed":
            n = int(arg)
            terms = {k: nfc.GaussianRational(v) for k, v in MESSY_TEST_SURFACE.items()}
            return nfc.GraphSurface(nfc.Series3(n, terms)), n - 6
        return self._dense(nfc, int(arg)), MESSY_N - 6

    @staticmethod
    def _dense(nfc, index: int):
        """30 to 35 terms: the 7-jet, a removable u-linear term, stage-3 and
        stage-4 terms, and filler at total degree 9..10 on levels >= 2."""
        rng = random.Random(f"messy/{index}")
        nums, dens = (-2, -1, 1, 2), (1, 2)
        terms = {(1, 1, 1): nfc.GaussianRational(1)}

        def put(key):
            _hermitian_put(nfc, terms, key, _rational(rng, nums, dens), _rational(rng, nums, dens))

        for key in _JET_KEYS:
            put(key)
        put((rng.choice((2, 3, 4)), 1, 1))
        for level in (3, 3, 4):
            put((*rng.choice(_ROWS), level))
        filler = list(_FILLER)
        rng.shuffle(filler)
        for key in filler:
            if len(terms) >= MESSY_TERMS:
                break
            if key not in terms:
                put(key)
        return nfc.GraphSurface(nfc.Series3(MESSY_N, terms))

    def check(self, nfc, key, item, output, ref):
        M, K = item
        why = check_normalize(nfc, M, K, output, ref)
        return ("fail", "; ".join(why)) if why else ("ok", "")


# ---------------------------------------------------------------------------
# families: normal-form surfaces whose stage maps are zero


FAMILY_N = 18
FAMILY_K = 12
#: family key -> (FamilySpec name, params, known resonances)
FAMILIES = {
    "quadric": ("quadric", {}, []),
    "cd(0,-24)": ("cd", {"C": Fraction(0), "D": Fraction(-24)}, []),
    "mm(1)": ("mm", {"m": 1}, [2, 3]),
    "mm(2)": ("mm", {"m": 2}, [3, 5]),
    "mmt(2,1)": ("mmt", {"m": 2, "T": Fraction(1)}, [3]),
}


class Families(_NormalizeWorkload):
    """normalize(M, 12) at N = 18 on the example families."""

    name = "families"

    def pool(self):
        return list(FAMILIES)

    def keys(self, seed):
        keys = list(FAMILIES)
        random.Random(f"families:{seed}").shuffle(keys)
        return keys

    def build(self, nfc, key):
        name, params, _ = FAMILIES[key]
        return nfc.generate(nfc.FamilySpec(name=name, params=dict(params), order=FAMILY_N)), FAMILY_K

    def check(self, nfc, key, item, output, ref):
        M, K = item
        why = check_normalize(nfc, M, K, output, ref)
        known = FAMILIES[key][2]
        if output.resonances_predicted != known or output.resonances_observed != known:
            why.append(f"resonances {output.resonances_predicted}/{output.resonances_observed}, "
                       f"expected {known}")
        return ("fail", "; ".join(why)) if why else ("ok", "")


# ---------------------------------------------------------------------------
# charpoly: characteristic polynomials and resonances of 7-jets


CHARPOLY_RANDOM_POOL = 2400
CHARPOLY_RESONANT_POOL = 600
CHARPOLY_RANDOM_PICKS = 800
CHARPOLY_RESONANT_PICKS = 200
RESONANT_R_MAX = 10**6


def resonant_R(index: int) -> int:
    """R for resonant pool member ``index``: log-uniform by octave on [2, 10^6]."""
    rng = random.Random(f"charpoly/resonant/{index}")
    octave = rng.randint(1, 19)
    return rng.randint(2**octave, min(2**(octave + 1) - 1, RESONANT_R_MAX))


def poly_text(report) -> str:
    return ";".join(_coeff_text(c) for c in report.char_poly.coeffs)


def integer_roots(coeffs) -> list:
    """Integer roots k >= 2 of a polynomial with (nre, nim, den) coefficients.

    Exact, by sympy's rational root finder; only ``record.py`` needs it.
    """
    import sympy

    k = sympy.Symbol("k")
    re = sympy.Poly([sympy.Rational(c.nre, c.den) for c in reversed(coeffs)], k)
    im = sympy.Poly([sympy.Rational(c.nim, c.den) for c in reversed(coeffs)], k)
    part = im if re.is_zero else re
    roots = [int(r) for r in part.ground_roots() if r.is_integer and r >= 2]
    return sorted(r for r in roots if _vanishes_at(coeffs, r))


def _vanishes_at(coeffs, k: int) -> bool:
    """Exact P(k) = 0 from the (nre, nim, den) coefficients, Horner in Fractions."""
    re = im = Fraction(0)
    for c in reversed(coeffs):
        re = re * k + Fraction(c.nre, c.den)
        im = im * k + Fraction(c.nim, c.den)
    return re == 0 and im == 0


class Charpoly(Workload):
    """char_poly on seeded 7-jets, a fifth of them resonant at a known R."""

    name = "charpoly"

    def pool(self):
        return ([f"random/{i}" for i in range(CHARPOLY_RANDOM_POOL)]
                + [f"resonant/{i}" for i in range(CHARPOLY_RESONANT_POOL)])

    def keys(self, seed):
        rng = random.Random(f"charpoly:{seed}")
        keys = [f"random/{i}" for i in rng.sample(range(CHARPOLY_RANDOM_POOL), CHARPOLY_RANDOM_PICKS)]
        keys += [f"resonant/{i}" for i in rng.sample(range(CHARPOLY_RESONANT_POOL),
                                                      CHARPOLY_RESONANT_PICKS)]
        rng.shuffle(keys)
        return keys

    def build(self, nfc, key):
        kind, arg = key.split("/")
        index = int(arg)
        if kind == "resonant":
            R = resonant_R(index)
            D = Fraction(12 * (2 * R * R - 4 * R + 3))
            spec = nfc.FamilySpec(name="cd", params={"C": Fraction(0), "D": D}, order=9)
            return nfc.jet7(nfc.generate(spec)), R
        rng = random.Random(f"charpoly/random/{index}")
        span = range(-6, 7), range(1, 7)

        def real():
            return nfc.GaussianRational(_rational(rng, *span))

        def cplx():
            return nfc.GaussianRational(_rational(rng, *span), _rational(rng, *span))

        return nfc.Jet7(phi22=real(), phi32=cplx(), phi33=real(), phi42=cplx(), phi43=cplx()), None

    def run(self, nfc, item):
        return nfc.char_poly(item[0])

    def reference(self, nfc, key, item, output):
        """[polynomial digest, complete integer roots >= 2 found by sympy, not by nfc]."""
        roots = integer_roots(output.char_poly.coeffs)
        R = item[1]
        if R is not None and R not in roots:
            raise ValueError(f"{key}: R = {R} is not a root of its characteristic polynomial")
        return [digest(poly_text(output)), roots]

    def check(self, nfc, key, item, output, ref):
        ref_poly, ref_roots = ref
        _, R = item
        got = list(output.resonances)
        why = []
        if digest(poly_text(output)) != ref_poly:
            why.append("characteristic polynomial differs from the reference")
        bad = [k for k in got if not _vanishes_at(output.char_poly.coeffs, k)]
        if bad:
            why.append(f"P(k) != 0 at reported resonances {bad}")
        if why:
            return "fail", "; ".join(why)
        if got == ref_roots and (R is None or R in got):
            return "ok", ""
        below = [k for k in ref_roots if k <= KNOWN_RESONANCE_CEILING]
        if got == below:
            missing = sorted(set(ref_roots) - set(got))
            return "known", (f"resonances {missing} above the {KNOWN_RESONANCE_CEILING} "
                             "scan ceiling missing")
        return "fail", f"resonances {got}, expected {ref_roots}"

    def describe(self, item) -> str:
        jet, R = item
        return f"R={R} " + " ".join(_coeff_text(getattr(jet, f)) for f in
                                    ("phi22", "phi32", "phi33", "phi42", "phi43"))

    def coeff_bits(self, output) -> int:
        return max(_bits(c) for c in (*output.char_poly.coeffs, output.monic_constant))


# ---------------------------------------------------------------------------
# cli: serial ``python -m nfc.cli`` subprocesses


#: ops per run for each command kind; the pools are sampled without replacement
CLI_MIX = {
    "charpoly": 14, "resonances": 14, "normalize-family": 12, "normalize-surface": 12,
    "transform": 14, "verify-map": 12, "verify-field": 12, "selftest": 10,
}
CLI_POOL = {
    "charpoly": 30, "resonances": 30, "normalize-family": 24, "normalize-surface": 24,
    "transform": 30, "verify-map": 24, "verify-field": 24, "selftest": 1,
}
_SMALL = (-3, -2, -1, 1, 2, 3), (1, 2, 3, 4)


def _family_args(rng, allow_quadric=True) -> list:
    kinds = ["cd", "mm", "mmt"] + (["quadric"] if allow_quadric else [])
    kind = rng.choice(kinds)
    if kind == "quadric":
        return ["--family=quadric"]
    if kind == "cd":
        return ["--family=cd", f"--C={rng.randint(-2, 2)}", f"--D={rng.randint(-30, 30)}"]
    if kind == "mm":
        return ["--family=mm", f"--m={rng.randint(1, 3)}"]
    return ["--family=mmt", f"--m={rng.randint(1, 2)}",
            f"--T={rng.choice(('0', '1', '2', '1/2', '-1'))}"]


def _cplx_text(re: Fraction, im: Fraction) -> str:
    return f"({_q(re)} + ({_q(im)})*i)"


def _cli_command(kind: str, index: int) -> tuple:
    """(argv, {relative path: file text}) for pool member ``index`` of ``kind``."""
    rng = random.Random(f"cli/{kind}/{index}")
    files = {}
    if kind == "charpoly":
        parts = ["u*z*zb", f"({_q(_rational(rng, *_SMALL))})*u*z^2*zb^2",
                 f"({_q(_rational(rng, *_SMALL))})*u*z^3*zb^3"]
        for a, b in ((3, 2), (4, 2), (4, 3)):
            re, im = _rational(rng, *_SMALL), _rational(rng, *_SMALL)
            parts.append(f"{_cplx_text(re, im)}*u*z^{a}*zb^{b}")
            parts.append(f"{_cplx_text(re, -im)}*u*z^{b}*zb^{a}")
        argv = ["charpoly", "--expr", " + ".join(parts), "--order-total=9"]
    elif kind == "resonances":
        argv = ["resonances", *_family_args(rng), "--order-total=9"]
    elif kind == "normalize-family":
        argv = ["normalize", *_family_args(rng), f"--order-total={rng.choice((10, 11, 12))}"]
    elif kind == "normalize-surface":
        path = (OUT_DIR / "cli" / f"surface-{index}.json").as_posix()
        series = [{"a": 1, "b": 1, "c": 1, "re": "1", "im": "0"}]
        chosen = {(2, 2, 1), (3, 3, 1), (3, 2, 1), (rng.choice((2, 3)), 1, 1),
                  (*rng.choice(_ROWS), 3), (rng.randint(2, 4), 2, 3)}
        for a, b, c in sorted(chosen):
            re, im = _rational(rng, *_SMALL), (Fraction(0) if a == b else _rational(rng, *_SMALL))
            series.append({"a": a, "b": b, "c": c, "re": _q(re), "im": _q(im)})
            if a != b:
                series.append({"a": b, "b": a, "c": c, "re": _q(re), "im": _q(-im)})
        files[path] = json.dumps({"order": 9, "series": series}, sort_keys=True)
        argv = ["normalize", f"--surface={path}"]
    elif kind == "transform":
        fam = ["--family=cd", f"--C={rng.randint(-2, 2)}", f"--D={rng.randint(-30, 30)}"]
        if rng.random() < 0.5:
            argv = ["transform", "--family=mm", f"--m={rng.randint(1, 2)}", "--map=ht",
                    f"--t={rng.choice(('1', '2', '1/2', '-1'))}", "--order-total=9"]
        else:
            path = (OUT_DIR / "cli" / f"map-{index}.json").as_posix()

            def side():
                out = []
                for _ in range(2):
                    l = rng.randint(0, 3)
                    k = rng.randint(max(0, 2 - l), 3 - l) if l < 3 else 0
                    re, im = _rational(rng, *_SMALL), _rational(rng, *_SMALL)
                    out.append({"l": l, "k": k, "re": _q(re), "im": _q(im)})
                return out

            files[path] = json.dumps({"f": side(), "g": side()}, sort_keys=True)
            argv = ["transform", *fam, f"--map={path}", "--order-total=9"]
    elif kind == "verify-map":
        m = rng.randint(1, 2)
        argv = ["verify-map", "--family=mm", f"--m={m}", "--map=ht",
                f"--t={rng.choice(('1', '2', '1/2', '-1'))}", f"--order-total={rng.choice((9, 11))}"]
    elif kind == "verify-field":
        argv = ["verify-field", "--family=mmt", f"--m={rng.randint(1, 2)}",
                f"--T={rng.choice(('0', '1', '2', '1/3'))}", "--order-total=9"]
    elif kind == "selftest":
        argv = ["selftest"]
    else:
        raise ValueError(f"unknown cli command kind {kind!r}")
    return argv, files


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli_subprocess(argv: list) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "nfc.cli", *argv], cwd=ROOT, env=cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120, check=False)
    return proc.returncode, proc.stdout


def run_cli_in_process(nfc_cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nfc_cli.main(list(argv))
    return code, out.getvalue().encode()


def _json_rational_bits(obj) -> int:
    if isinstance(obj, dict):
        return max((_json_rational_bits(v) for v in obj.values()), default=0)
    if isinstance(obj, list):
        return max((_json_rational_bits(v) for v in obj), default=0)
    if isinstance(obj, str) and obj.lstrip("-").replace("/", "", 1).isdigit():
        return max(int(part).bit_length() for part in obj.lstrip("-").split("/"))
    return 0


class Cli(Workload):
    """Serial CLI subprocesses over every subcommand."""

    name = "cli"
    cli = True

    def __init__(self, in_process: bool = False):
        # the traced run calls nfc.cli.main in-process so its spans are seen
        self.in_process = in_process

    def pool(self):
        return [f"{kind}/{i}" for kind, size in CLI_POOL.items() for i in range(size)]

    def keys(self, seed):
        rng = random.Random(f"cli:{seed}")
        keys = []
        for kind, count in CLI_MIX.items():
            size = CLI_POOL[kind]
            if size >= count:
                picks = rng.sample(range(size), count)
            else:
                picks = rng.choices(range(size), k=count)
            keys += [f"{kind}/{i}" for i in picks]
        rng.shuffle(keys)
        return keys

    def build(self, nfc, key):
        """(argv, {relative path: spec file text}); ``prepare`` writes the files."""
        kind, index = key.rsplit("/", 1)
        return _cli_command(kind, int(index))

    def prepare(self, items):
        for _, (_, files) in items:
            for path, text in files.items():
                target = ROOT / path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)

    def run(self, nfc, item):
        argv, _ = item
        if self.in_process:
            return run_cli_in_process(sys.modules["nfc.cli"], argv)
        return run_cli_subprocess(argv)

    def reference(self, nfc, key, item, output):
        code, stdout = output
        return [code, hashlib.sha256(stdout).hexdigest()[:16]]

    def check(self, nfc, key, item, output, ref):
        code, stdout = output
        got = [code, hashlib.sha256(stdout).hexdigest()[:16]]
        if got != ref:
            return "fail", f"exit {code} / stdout digest {got[1]}, expected {ref}"
        return "ok", ""

    def describe(self, item) -> str:
        return json.dumps(item, sort_keys=True)

    def coeff_bits(self, output) -> int:
        try:
            return _json_rational_bits(json.loads(output[1]))
        except ValueError:
            return 0


WORKLOADS = {cls.name: cls for cls in (Messy, Families, Charpoly, Cli)}
