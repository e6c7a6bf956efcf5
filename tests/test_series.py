"""Series kernel: arithmetic, composition, conjugation, reversion, maps."""

import random
from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, I, ONE, ZERO
from nfc.series import (
    FormalMap,
    HoloSeries2,
    Series1,
    Series3,
    compose_maps,
    hermitian_conjugate,
    invert_map,
    is_hermitian,
    split_real_imag,
    substitute,
    uni_function,
)
from nfc.series import _Point, _SparseSeries


def S(n, terms):
    return Series3(n, terms)


def var(name, n):
    return Series3.var(name, n)


class TestSeries3Arith:
    def test_product_truncation(self):
        zzu = S(6, {(1, 1, 1): 1})
        assert zzu * zzu == S(6, {(2, 2, 2): 1})

    def test_additive_identity(self):
        s = S(6, {(2, 1, 1): Fraction(3, 7), (1, 2, 1): Fraction(3, 7)})
        assert s + Series3.zero(6) == s

    def test_truncation_drops_high_degree(self):
        s = S(6, {(1, 1, 1): 1, (2, 2, 1): 1})
        sq = s * s
        assert sq == S(6, {(2, 2, 2): 1})  # the cross and top terms exceed N = 6

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatched truncation orders"):
            S(6, {}) + S(7, {})

    def test_no_zero_coefficients_stored(self):
        s = S(5, {(1, 1, 1): 1}) - S(5, {(1, 1, 1): 1})
        assert s.terms == {}

    def test_ring_axioms_random(self, make):
        n = 6
        for _ in range(20):
            a, b, c = (make.series3(n) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def pairwise_product(s, t) -> dict:
    """Reference product: one GaussianRational multiply and add per term pair.

    Keys may have any length, so it serves Series3 and HoloSeries2 alike.
    """
    n = s.n
    left = sorted(((sum(k), k, v) for k, v in s.terms.items()), key=lambda r: r[:2])
    right = sorted(((sum(k), k, v) for k, v in t.terms.items()), key=lambda r: r[:2])
    out: dict = {}
    for dl, k1, v1 in left:
        for dr, k2, v2 in right:
            if dl + dr > n:
                break
            key = tuple(x + y for x, y in zip(k1, k2))
            acc = out.get(key)
            acc = v1 * v2 if acc is None else acc + v1 * v2
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


#: coefficient kinds the kernel must handle: small, coprime denominators,
#: numerators and denominators above 2**64, purely imaginary
KERNEL_KINDS = ("small", "coprime", "large", "imaginary")
PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def kernel_coefficient(rng: random.Random, kind: str) -> GaussianRational:
    while True:
        if kind == "small":
            v = GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                                 Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        elif kind == "coprime":
            v = GaussianRational(Fraction(rng.randint(-9, 9), rng.choice(PRIMES)),
                                 Fraction(rng.randint(-9, 9), rng.choice(PRIMES) ** 2))
        elif kind == "large":
            big = 2**64 + rng.getrandbits(40)
            v = GaussianRational(Fraction(rng.getrandbits(90) - 2**89, big),
                                 Fraction(rng.getrandbits(70), big + rng.randint(1, 9)))
        else:
            v = GaussianRational(0, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if not v.is_zero():
            return v


def kernel_operand(rng: random.Random, n: int, kind: str, nterms: int) -> Series3:
    """Random Series3 with a constant term and a term at degree n."""
    keys = {(0, 0, 0)}
    a = rng.randint(0, n)
    b = rng.randint(0, n - a)
    keys.add((a, b, n - a - b))
    while len(keys) < nterms:
        a = rng.randint(0, n)
        b = rng.randint(0, n - a)
        keys.add((a, b, rng.randint(0, n - a - b)))
    mixed = kind == "mixed"
    return S(n, {k: kernel_coefficient(rng, rng.choice(KERNEL_KINDS) if mixed else kind)
                 for k in keys})


class TestProductKernel:
    def test_matches_pairwise_product(self):
        rng = random.Random(4096)
        kinds = KERNEL_KINDS + ("mixed",)
        for i in range(35):
            n = 4 + i % 7
            kind = kinds[i % len(kinds)]
            s = kernel_operand(rng, n, kind, rng.randint(3, 9))
            t = kernel_operand(rng, n, kinds[(i + 2) % len(kinds)], rng.randint(3, 9))
            prod = s * t
            assert prod.terms == pairwise_product(s, t)
            assert t * s == prod
            assert any(sum(k) == n for k in prod.terms)   # kept right at the cutoff

    def test_exact_cancellation_drops_the_key(self):
        rng = random.Random(77)
        for i in range(12):
            n = 4 + i % 7
            kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
            A = S(n, {(1, 0, 1): kernel_coefficient(rng, kind)})
            B = S(n, {(0, 1, 1): kernel_coefficient(rng, kind)})
            prod = (A + B) * (A - B)      # the cross terms AB - BA cancel
            assert (1, 1, 2) not in prod.terms
            assert prod.terms == pairwise_product(A + B, A - B)
            assert prod == A * A - B * B

    def test_truncation_boundary(self):
        n = 5
        s = S(n, {(0, 0, 0): 2, (2, 1, 2): Fraction(1, 3), (1, 0, 0): I})
        t = S(n, {(0, 0, 0): Fraction(1, 2), (0, 0, 1): 1, (5, 0, 0): -I})
        prod = s * t
        assert prod.terms == pairwise_product(s, t)
        # degree-5 products are kept; (2,1,3), (7,1,2) and (6,0,0) exceed N = 5
        assert prod == S(n, {(0, 0, 0): 1, (0, 0, 1): 2, (5, 0, 0): -2 * I,
                             (2, 1, 2): Fraction(1, 6), (1, 0, 0): I / 2, (1, 0, 1): I})

    def test_zero_operand(self):
        rng = random.Random(5)
        for n in (4, 7, 10):
            s = kernel_operand(rng, n, "mixed", 6)
            assert (s * Series3.zero(n)).is_zero()
            assert (Series3.zero(n) * s).is_zero()
            assert (Series3.zero(n) * Series3.zero(n)).is_zero()

    def test_cached_form_keeps_equality_hash_and_immutability(self):
        rng = random.Random(11)
        for n in (4, 10):
            s = kernel_operand(rng, n, "mixed", 8)
            twin = S(n, dict(s.terms))
            before = hash(s)
            first = s * s
            assert s._form is not None          # the integer form is now cached
            assert s == twin and twin == s and hash(s) == hash(twin) == before
            assert s * s == first and s * twin == first
            with pytest.raises(AttributeError, match="immutable"):
                s.terms = {}
            with pytest.raises(AttributeError, match="immutable"):
                s._form = None

    def test_holo_matches_pairwise_product(self):
        rng = random.Random(2718)
        for i in range(30):
            n = 4 + i % 7
            kind = KERNEL_KINDS[i % len(KERNEL_KINDS)]
            terms = []
            for _ in range(2):
                keys = {(0, 0), (rng.randint(0, n), 0)}
                while len(keys) < rng.randint(3, 8):
                    l = rng.randint(0, n)
                    keys.add((l, rng.randint(0, n - l)))
                keys = {(l, min(k, n - l)) for l, k in keys}
                terms.append(HoloSeries2(n, {k: kernel_coefficient(rng, kind) for k in keys}))
            h, g = terms
            assert (h * g).terms == pairwise_product(h, g)
            assert (h * HoloSeries2(n)).is_zero()
        h = HoloSeries2(5, {(1, 1): I, (0, 2): 1})
        g = HoloSeries2(5, {(1, 1): I, (0, 2): -1})
        assert (h * g).terms == {(2, 2): -ONE, (0, 4): -ONE}  # the cross terms cancel
        twin = HoloSeries2(5, dict(h.terms))
        before = hash(h)
        first = h * h
        assert h._form is not None
        assert h == twin and hash(h) == hash(twin) == before and h * h == first
        with pytest.raises(AttributeError, match="immutable"):
            h._form = None


class TestSubstitute:
    def test_identity_substitution(self):
        n = 6
        s = S(n, {(1, 1, 1): 1})
        assert substitute(s, var("z", n), var("zb", n), var("u", n)) == s

    def test_linearity_example(self):
        n = 4
        s = S(n, {(1, 0, 1): 1})  # z u
        out = substitute(s, var("z", n) + S(n, {(2, 0, 0): 1}), var("zb", n), var("u", n))
        assert out == S(n, {(1, 0, 1): 1, (2, 0, 1): 1})

    def test_binomial_example(self):
        n = 4
        s = S(n, {(0, 0, 2): 1})  # u^2
        out = substitute(s, var("z", n), var("zb", n), var("u", n) + S(n, {(1, 1, 0): 1}))
        assert out == S(n, {(0, 0, 2): 1, (1, 1, 1): 2, (2, 2, 0): 1})

    def test_constant_term_rejected(self):
        n = 4
        bad = var("z", n) + S(n, {(0, 0, 0): 1})
        with pytest.raises(ValueError, match="vanishing constant term"):
            substitute(S(n, {(1, 0, 0): 1}), bad, var("zb", n), var("u", n))

    def test_two_step_composition_associates(self, make):
        n = 6
        for _ in range(12):
            s = make.series3(n, nterms=5)
            # inner replacements: identity plus quadratic noise
            r1 = [var("z", n) + make.series3(n, 3, min_degree=2),
                  var("zb", n) + make.series3(n, 3, min_degree=2),
                  var("u", n) + make.series3(n, 3, min_degree=2)]
            r2 = [var("z", n) + make.series3(n, 3, min_degree=2),
                  var("zb", n) + make.series3(n, 3, min_degree=2),
                  var("u", n) + make.series3(n, 3, min_degree=2)]
            step = substitute(substitute(s, *r1), *r2)
            combined = [substitute(r, *r2) for r in r1]
            assert step == substitute(s, *combined)


def compose2_reference(h, z_repl, w_repl):
    """The former HoloSeries2.compose2: one product and one add per term of h."""
    n = h.n
    out = HoloSeries2(n)
    for (l, k), v in sorted(h.terms.items()):
        piece = HoloSeries2(n, {(0, 0): ONE})
        for _ in range(l):
            piece = piece * z_repl
        for _ in range(k):
            piece = piece * w_repl
        out = out + piece * v
    return out


def eval_series3_reference(h, z_repl, w_repl):
    """The former HoloSeries2.eval_series3: h at Series3 arguments, grouped by l."""
    n = z_repl.n
    by_l: dict = {}
    for (l, k), v in h.terms.items():
        by_l.setdefault(l, []).append((k, v))
    out = Series3(n)
    for l in sorted(by_l):
        wpoly = Series3(n)
        for k, v in by_l[l]:
            wk = Series3(n, {(0, 0, 0): ONE})
            for _ in range(k):
                wk = wk * w_repl
            wpoly = wpoly + wk * v
        zl = Series3(n, {(0, 0, 0): ONE})
        for _ in range(l):
            zl = zl * z_repl
        out = out + zl * wpoly
    return out


def holo_with_constant(make, n):
    h = make.holo2(n, nterms=6)
    return h + make.gaussian(span=3)


class TestSubstituteCarriers:
    """substitute against the two composition loops it replaced."""

    def test_holo_replacements_match_compose2(self, make):
        for i in range(24):
            n = 3 + i % 6
            h = holo_with_constant(make, n)
            z1 = make.holo2(n, 3) + (HoloSeries2.var("z", n) if i % 3 else 0)
            w1 = make.holo2(n, 3) + (HoloSeries2.var("w", n) if i % 4 else 0)
            out = substitute(h, z1, w1)
            assert type(out) is HoloSeries2
            assert out == compose2_reference(h, z1, w1)

    def test_series3_replacements_match_eval_series3(self, make):
        for i in range(24):
            n = 3 + i % 6
            h = holo_with_constant(make, n)
            z1 = make.series3(n, 3) + (var("z", n) if i % 3 else 0)
            w1 = var("u", n) + make.hermitian_series3(n, 4) * I
            out = substitute(h, z1, w1)
            assert type(out) is Series3
            assert out == eval_series3_reference(h, z1, w1)

    def test_series3_into_holo_replacements(self):
        n = 5
        hz, hw = HoloSeries2.var("z", n), HoloSeries2.var("w", n)
        s = S(n, {(1, 0, 2): 3, (0, 1, 0): I, (0, 0, 0): 2})
        assert substitute(s, hz, hw, hw) == HoloSeries2(n, {(1, 2): 3, (0, 1): I, (0, 0): 2})

    @pytest.mark.parametrize("kind", [Series3, HoloSeries2])
    def test_errors(self, kind):
        n = 4
        x = kind.var(kind.VARS[0], n)
        for s in (S(n, {(1, 1, 1): 1}), HoloSeries2(n, {(1, 1): 1})):
            m = len(s.VARS)
            with pytest.raises(ValueError, match=f"takes {m} replacements, got {m + 1}"):
                substitute(s, *[x] * (m + 1))
            with pytest.raises(ValueError, match="mismatched truncation orders"):
                substitute(s, *[x] * (m - 1), kind.var(kind.VARS[0], n + 1))
            with pytest.raises(ValueError, match="vanishing constant term"):
                substitute(s, *[x] * (m - 1), x + 1)
        other = HoloSeries2 if kind is Series3 else Series3
        with pytest.raises(TypeError, match="one type"):
            substitute(HoloSeries2(n, {(1, 1): 1}), x, other.var("z", n))


class _PowCache:
    """Lazily extended powers of a fixed series, by plain series products."""

    __slots__ = ("base", "pows")

    def __init__(self, base):
        self.base = base
        self.pows = [None, base]

    def __call__(self, e: int):
        while len(self.pows) <= e:
            self.pows.append(self.pows[-1] * self.base)
        return self.pows[e]


def substitute_reference(s, *repls):
    """The former body of ``substitute``: GaussianRational assembly, one gcd per op.

    Terms are grouped by every exponent but the last; the polynomial in the
    last replacement is built by scalar multiples and adds of reduced
    series, and is then multiplied by cached powers of the others.
    """
    n = s.n
    kind = type(repls[0])
    *heads, plast = [_PowCache(r) for r in repls]
    groups: dict = {}
    for key, v in s.terms.items():
        groups.setdefault(key[:-1], []).append((key[-1], v))
    one = (0,) * len(kind.VARS)
    out = kind(n)
    for prefix in sorted(groups):
        poly = kind(n)
        cst = ZERO
        for e, v in groups[prefix]:
            if e == 0:
                cst = cst + v
            else:
                poly = poly + plast(e) * v
        if not cst.is_zero():
            poly = poly + kind(n, {one: cst})
        if poly.is_zero():
            continue
        for pw, e in zip(heads, prefix):
            if e:
                poly = pw(e) * poly
        out = out + poly
    return out


def real_point(make, n):
    """(Z, conj Z, U) with U Hermitian: the points a reversion evaluates at."""
    Z = var("z", n) + make.series3(n, 4, min_degree=1) * Fraction(1, 3)
    U = var("u", n) + make.hermitian_series3(n, 4)
    return Z, hermitian_conjugate(Z), U


def huge(make):
    """A Gaussian rational whose numerators and denominator exceed 2**64."""
    return GaussianRational(Fraction(3 ** 45 * make.rng.randint(1, 9), 7 ** 27),
                            Fraction(-(5 ** 30) * make.rng.randint(1, 9), 11 ** 20))


class TestIntegerComposition:
    """``substitute`` against ``substitute_reference`` on every kind of input.

    Equal series can still differ in how a coefficient is stored, so both
    ``==`` and the sorted (key, nre, nim, den) lists are compared.
    """

    @staticmethod
    def check(s, *repls):
        out, ref = substitute(s, *repls), substitute_reference(s, *repls)
        assert type(out) is type(ref)
        assert out == ref
        stored = [(k, v.nre, v.nim, v.den) for k, v in out.sorted_terms()]
        assert stored == [(k, v.nre, v.nim, v.den) for k, v in ref.sorted_terms()]
        return out

    def test_hermitian_at_real_point(self, make):
        for i in range(10):
            n = 5 + i % 4
            s = make.hermitian_series3(n, 8, min_degree=1) + S(n, {(1, 1, 1): Fraction(2, 3)})
            point = real_point(make, n)
            assert is_hermitian(s) and _Point(point).real and any(a == b for a, b, _ in s.terms)
            assert is_hermitian(self.check(s, *point))

    def test_hermitian_at_non_real_point(self, make):
        for i in range(10):
            n = 5 + i % 4
            s = make.hermitian_series3(n, 8, min_degree=1)
            Z, Zc, U = real_point(make, n)
            if i % 2:
                Zc = Zc + S(n, {(0, 1, 1): I})                  # conj Z is not Zc
            else:
                U = U + S(n, {(2, 0, 0): GaussianRational(1, 1)})   # U is not Hermitian
            assert not _Point((Z, Zc, U)).real
            self.check(s, Z, Zc, U)

    def test_non_hermitian(self, make):
        for i in range(10):
            n = 5 + i % 4
            s = make.series3(n, 8) + S(n, {(2, 0, 1): I})
            assert not is_hermitian(s)
            self.check(s, *real_point(make, n))

    def test_holo_into_series3_and_holo(self, make):
        for i in range(10):
            n = 4 + i % 5
            h = holo_with_constant(make, n)
            W = var("u", n) + make.hermitian_series3(n, 4) * I
            self.check(h, var("z", n) + make.series3(n, 3, min_degree=2), W)
            self.check(h, HoloSeries2.var("z", n) + make.holo2(n, 3),
                       HoloSeries2.var("w", n) + make.holo2(n, 3))

    def test_exact_cancellation(self):
        n = 6
        # within a group: U^2 - U loses its u^2 term for U = u + u^2
        U = var("u", n) + S(n, {(0, 0, 2): 1})
        out = self.check(S(n, {(0, 0, 2): 1, (0, 0, 1): -1}), var("z", n), var("zb", n), U)
        assert out.coeff(0, 0, 2) == ZERO and out.coeff(0, 0, 1) == -ONE
        # across groups: z - zb at Zc = Z
        Z = var("z", n) + S(n, {(1, 0, 1): Fraction(1, 2)})
        assert self.check(S(n, {(1, 0, 0): 1, (0, 1, 0): -1}), Z, Z, var("u", n)).is_zero()
        # a group against its mirror: i z u - i zb u at the real point Z = z + zb
        s = S(n, {(1, 0, 1): I, (0, 1, 1): -I})
        Z = var("z", n) + var("zb", n)
        assert is_hermitian(s) and _Point((Z, Z, var("u", n))).real
        assert self.check(s, Z, Z, var("u", n)).is_zero()

    def test_coefficients_above_2_64(self, make):
        for i in range(4):
            n = 5 + i % 2
            s = make.hermitian_series3(n, 5, min_degree=1)
            big = S(n, {(1, 2, 1): huge(make), (0, 1, 2): huge(make)})
            s = s + big + hermitian_conjugate(big)
            Z, Zc, U = real_point(make, n)
            Z = Z + S(n, {(2, 0, 1): huge(make)})
            Zc = hermitian_conjugate(Z)
            U = U + S(n, {(1, 1, 0): GaussianRational(Fraction(3 ** 50, 2 ** 70))})
            out = self.check(s, Z, Zc, U)
            assert max(v.den for v in out.terms.values()) > 2 ** 64
            self.check(s + S(n, {(3, 0, 0): huge(make)}), Z, Zc, U)

    def test_zero_series(self, make):
        n = 5
        for s in (S(n, {}), HoloSeries2(n)):
            repls = real_point(make, n)[: len(s.VARS)]
            assert self.check(s, *repls).is_zero()

    def test_pull_back_shares_the_reversion_point(self, make):
        n = 7
        for _ in range(4):
            z1 = var("z", n) + make.series3(n, 3, min_degree=2)
            u1 = var("u", n) + make.hermitian_series3(n, 3, min_degree=2)
            v1 = make.hermitian_series3(n, 6)
            p = make.series3(n, 5)
            Z, U, v, q = invert_real_triple(z1, u1, v1, p)
            assert (Z, U) == invert_real_triple(z1, u1)
            Zc = hermitian_conjugate(Z)
            assert v == substitute_reference(v1, Z, Zc, U)
            assert q == substitute_reference(p, Z, Zc, U)
        with pytest.raises(TypeError, match="pulled-back series must be Series3"):
            invert_real_triple(z1, u1, HoloSeries2(n))
        with pytest.raises(ValueError, match="mismatched truncation orders"):
            invert_real_triple(z1, u1, S(n + 1, {}))
        # a constant and a u-linear term pull back exactly; so does z1's u-linear term
        for n in (5, 8):
            z1 = var("z", n) + S(n, {(0, 0, 1): make.gaussian() or I})
            z1 = z1 + make.series3(n, 4, min_degree=2)
            u1 = var("u", n) + make.hermitian_series3(n, 4, min_degree=2)
            p = make.series3(n, 5, min_degree=2)
            p = p + S(n, {(0, 0, 1): make.gaussian() or ONE, (0, 0, 0): make.gaussian()})
            Z, U, q = invert_real_triple(z1, u1, p)
            assert q == substitute_reference(p, Z, hermitian_conjugate(Z), U)

    def test_pull_back_rejects_z_linear_terms(self, make):
        # the pull-back point lags Z by its degree-N part, which a z- or
        # zb-linear term would carry into the result at degree N
        n = 7
        z1 = var("z", n) + S(n, {(0, 0, 1): I}) + make.series3(n, 3, min_degree=2)
        u1 = var("u", n) + make.hermitian_series3(n, 3, min_degree=2)
        for key in ((1, 0, 0), (0, 1, 0)):
            p = make.series3(n, 4, min_degree=2) + S(n, {key: make.gaussian() or ONE})
            with pytest.raises(ValueError, match="no term linear in z or zb"):
                invert_real_triple(z1, u1, p)


class TestSharedCore:
    def test_carriers_do_not_mix(self):
        n = 4
        with pytest.raises(TypeError, match="cannot combine Series3 with HoloSeries2"):
            Series3.var("z", n) + HoloSeries2.var("z", n)
        with pytest.raises(TypeError, match="cannot combine HoloSeries2 with Series3"):
            HoloSeries2.var("z", n) * Series3.var("z", n)
        assert Series3.zero(n) != HoloSeries2.zero(n)
        assert HoloSeries2.zero(n) != Series3.zero(n)
        assert S(n, {(1, 0, 0): 1}) != HoloSeries2(n, {(1, 0): 1})

    def test_scalar_on_the_left(self):
        n = 3
        for s in (Series3.var("z", n), HoloSeries2(n, {(1, 1): I, (0, 2): 1})):
            for c in (1, Fraction(-1, 2), ONE, I):
                assert c + s == s + c
                assert c - s == -(s - c)
                assert c * s == s * c
        assert 1 - Series3.var("z", n) == S(n, {(0, 0, 0): 1, (1, 0, 0): -1})

    def test_holo_scalar_coercion(self):
        n = 4
        h = HoloSeries2(n, {(1, 1): I, (0, 2): 1})
        assert h + 1 == HoloSeries2(n, {(1, 1): I, (0, 2): 1, (0, 0): 1})
        half = Fraction(1, 2)
        assert h - half == HoloSeries2(n, {(1, 1): I, (0, 2): 1, (0, 0): -half})
        assert (h + I) - I == h
        assert 2 * h == h + h and (h * 0).is_zero()
        assert HoloSeries2.var("w", n).has_constant_term() is False
        assert (h + 1).has_constant_term() and (h + 1).min_degree() == 0

    def test_series3_product_in_its_class_dict(self):
        assert Series3.__dict__["__mul__"] is Series3.__dict__["__rmul__"]

    def test_immutable_names_the_class(self):
        for s in (Series3.zero(3), HoloSeries2.zero(3)):
            with pytest.raises(AttributeError, match=f"{type(s).__name__} is immutable"):
                s.n = 4


class TestHermitian:
    def test_fixed_point(self):
        s = S(5, {(1, 1, 1): 1})
        assert hermitian_conjugate(s) == s
        assert is_hermitian(s)

    def test_conjugation_rule(self):
        s = S(5, {(1, 2, 1): I})
        assert hermitian_conjugate(s) == S(5, {(2, 1, 1): -I})

    def test_hermitian_combination(self):
        s = S(5, {(1, 2, 1): I, (2, 1, 1): -I})
        assert hermitian_conjugate(s) == s

    def test_involution_random(self, make):
        for _ in range(20):
            s = make.series3(6)
            assert hermitian_conjugate(hermitian_conjugate(s)) == s

    def test_split_real_imag(self, make):
        s_h = make.hermitian_series3(6)
        h1, h2 = split_real_imag(s_h)
        assert h1 == s_h and h2.is_zero()
        h1, h2 = split_real_imag(s_h * I)
        assert h1.is_zero() and h2 == s_h
        s = S(6, {(1, 1, 1): GaussianRational(1, 1)})
        h1, h2 = split_real_imag(s)
        assert h1 == S(6, {(1, 1, 1): 1}) and h2 == S(6, {(1, 1, 1): 1})

    def test_split_reassembles(self, make):
        for _ in range(20):
            s = make.series3(6)
            h1, h2 = split_real_imag(s)
            assert is_hermitian(h1) and is_hermitian(h2)
            assert h1 + h2 * I == s

    def test_product_of_hermitian_is_hermitian(self, make):
        for _ in range(20):
            a = make.hermitian_series3(7)
            b = make.hermitian_series3(7)
            assert is_hermitian(a * b)


def invert_real_triple(z1: Series3, u1: Series3, *pull: Series3) -> tuple:
    """Reference for ``transform``: invert (z, zb, u) -> (z1, conj z1, u1).

    Returns (Z, U) in the image variables with Z(z1, conj z1, u1) = z and
    U(z1, conj z1, u1) = u to order N.  z1 must be z plus terms that are at
    least linear with the only admissible linear term a multiple of u (this
    is what stage maps produce through w = u + i*phi); u1 must be Hermitian
    and equal u plus terms of degree >= 2.  Each further series p in
    ``pull``, which must have no term linear in z or zb, is pulled back to
    the image variables too: p(Z, conj Z, U) is appended to the result.

    With F = z1 - z and G = u1 - u, (Z, U) is the fixed point of
    Z = z - F(Z, conj Z, U), U = u - G(Z, conj Z, U).  It is reached by a
    precision ramp: for d = 0, ..., N one Gauss-Seidel pass at order d,
    started from the order-(d-1) result Z', updates U first and then Z at
    the point (Z', conj Z', U).  G has no linear term and F's only linear
    term is a multiple of u, so each pass fixes degree d of both components,
    and the order-d result is the order-d part of the inverse.  G is
    Hermitian and the points are real, so G's compositions are halved.  The
    pull-backs reuse the last pass's point and its power tables: Z - Z' is
    homogeneous of degree N, so p takes the same value there to order N.
    The image of M under a map is the pull-back of v1 (see
    ``tests/test_surface.py``).
    """
    n = z1.n
    if u1.n != n:
        raise ValueError(f"mismatched truncation orders {u1.n} != {n}")
    F = z1 - Series3.var("z", n)
    G = u1 - Series3.var("u", n)
    for key in F.terms:
        if sum(key) <= 1 and key != (0, 0, 1):
            raise ValueError("reversion requires identity linear part")
    for key in G.terms:
        if sum(key) <= 1:
            raise ValueError("reversion requires identity linear part")
    if not is_hermitian(u1):
        raise ValueError("u-component of the triple must be Hermitian")
    for p in pull:
        if type(p) is not Series3:
            raise TypeError("pulled-back series must be Series3")
        if p.n != n:
            raise ValueError(f"mismatched truncation orders {p.n} != {n}")
        if (1, 0, 0) in p.terms or (0, 1, 0) in p.terms:
            raise ValueError("pulled-back series must have no term linear in z or zb")
    Z = U = Series3(0)
    for d in range(n + 1):
        Z = Series3(d, Z.terms)
        point = _Point((Z, hermitian_conjugate(Z), Series3(d, U.terms)))
        U = Series3.var("u", d) - point.compose(Series3(d, G.terms))
        point = _Point((Z, hermitian_conjugate(Z), U))
        Z = Series3.var("z", d) - point.compose(Series3(d, F.terms))
    return (Z, U, *(point.compose(p) for p in pull))


def full_order_reversion(z1, u1):
    """Reference: Jacobi fixed-point passes at full order N until nothing moves."""
    n = z1.n
    zv, uv = var("z", n), var("u", n)
    F, G = z1 - zv, u1 - uv
    Z, U = zv, uv
    for _ in range(3 * (n + 2)):
        Zc = hermitian_conjugate(Z)
        Znew = zv - (F if F.is_zero() else substitute(F, Z, Zc, U))
        Unew = uv - (G if G.is_zero() else substitute(G, Z, Zc, U))
        if Znew == Z and Unew == U:
            return Z, U
        Z, U = Znew, Unew
    raise AssertionError("reference reversion did not converge")


class TestInvertRealTriple:
    def test_identity(self):
        n = 5
        Z, U = invert_real_triple(var("z", n), var("u", n))
        assert Z == var("z", n) and U == var("u", n)

    def test_catalan_reversion(self):
        n = 4
        u1 = var("u", n) + S(n, {(0, 0, 2): 1})
        Z, U = invert_real_triple(var("z", n), u1)
        assert Z == var("z", n)
        assert U == S(n, {(0, 0, 1): 1, (0, 0, 2): -1, (0, 0, 3): 2, (0, 0, 4): -5})

    def test_geometric_reversion(self):
        n = 3
        z1 = var("z", n) + S(n, {(1, 0, 1): 1})
        Z, U = invert_real_triple(z1, var("u", n))
        assert U == var("u", n)
        assert Z == S(n, {(1, 0, 0): 1, (1, 0, 1): -1, (1, 0, 2): 1})

    def test_u_linear_term_in_z_component(self):
        # z1 = z + c*u arises from stage-2 maps; still invertible
        n = 5
        z1 = var("z", n) + S(n, {(0, 0, 1): GaussianRational(Fraction(1, 2), 1)})
        Z, U = invert_real_triple(z1, var("u", n))
        assert substitute(Z, z1, hermitian_conjugate(z1), var("u", n)) == var("z", n)

    def test_non_identity_linear_part_rejected(self):
        n = 4
        with pytest.raises(ValueError, match="identity linear part"):
            invert_real_triple(var("z", n) * 2, var("u", n))
        with pytest.raises(ValueError, match="identity linear part"):
            invert_real_triple(var("z", n), var("u", n) + S(n, {(0, 0, 1): 1}))

    def test_matches_full_order_iteration(self, make):
        cases = [(var("z", 7), var("u", 7))]
        for i in range(20):
            n = 6 + i % 4
            u_term = S(n, {(0, 0, 1): make.gaussian() or I})
            z1 = var("z", n) + u_term + make.series3(n, 3, min_degree=2)
            u1 = var("u", n) + make.hermitian_series3(n, 3, min_degree=2)
            cases.append((z1, u1))
        for z1, u1 in cases:
            assert invert_real_triple(z1, u1) == full_order_reversion(z1, u1)

    def test_round_trip_random(self, make):
        n = 6
        for _ in range(15):
            z1 = var("z", n) + make.series3(n, 3, min_degree=2)
            u_noise = make.hermitian_series3(n, 3, min_degree=2)
            u1 = var("u", n) + u_noise
            Z, U = invert_real_triple(z1, u1)
            zc = hermitian_conjugate(z1)
            assert substitute(Z, z1, zc, u1) == var("z", n)
            assert substitute(U, z1, zc, u1) == var("u", n)
        # the stage-2 shape: z1 with a u-linear term
        n = 8
        for _ in range(5):
            z1 = var("z", n) + S(n, {(0, 0, 1): make.gaussian() or I})
            z1 = z1 + make.series3(n, 4, min_degree=2)
            u1 = var("u", n) + make.hermitian_series3(n, 3, min_degree=2)
            Z, U = invert_real_triple(z1, u1)
            zc = hermitian_conjugate(z1)
            assert substitute(Z, z1, zc, u1) == var("z", n)
            assert substitute(U, z1, zc, u1) == var("u", n)


def full_order_map_inverse(m):
    """Reference: Jacobi fixed-point passes at full order N until nothing moves."""
    n = m.n
    zv, wv = HoloSeries2.var("z", n), HoloSeries2.var("w", n)
    fi, gi = HoloSeries2(n), HoloSeries2(n)
    for _ in range(3 * (n + 2)):
        z1, w1 = zv + fi, wv + gi
        fn, gn = -substitute(m.f, z1, w1), -substitute(m.g, z1, w1)
        if fn == fi and gn == gi:
            return FormalMap(fi, gi)
        fi, gi = fn, gn
    raise AssertionError("reference map inversion did not converge")


def dense_map(make, n, f01=ZERO, g10=ZERO):
    """A map with the given linear coefficients, every term of degree 2 and 3,
    and a few sparse higher terms."""
    low = {(l, k) for l in range(4) for k in range(4 - l) if l + k >= 2}
    no_linear = ((0, 0), (1, 0), (0, 1))
    f = HoloSeries2(n, {**{key: make.gaussian(span=3) for key in low}, (0, 1): f01})
    g = HoloSeries2(n, {**{key: make.gaussian(span=3) for key in low}, (1, 0): g10})
    return FormalMap(f + make.holo2(n, 4, exclude=no_linear), g + make.holo2(n, 4, exclude=no_linear))


class TestFormalMaps:
    def test_invariants_enforced(self):
        n = 5
        with pytest.raises(ValueError, match="f"):
            FormalMap(HoloSeries2(n, {(1, 0): 1}), HoloSeries2(n))
        with pytest.raises(ValueError, match="g"):
            FormalMap(HoloSeries2(n), HoloSeries2(n, {(0, 1): 1}))

    def test_identity_laws(self, make):
        n = 6
        ident = FormalMap.identity(n)
        m = make.formal_map(n)
        assert compose_maps(ident, m) == m
        assert compose_maps(m, ident) == m

    def test_compose_example(self):
        n = 4
        outer = FormalMap(HoloSeries2(n), HoloSeries2(n, {(0, 2): 1}))       # w + w^2
        inner = FormalMap(HoloSeries2(n, {(1, 1): 1}), HoloSeries2(n))       # z + zw
        comp = compose_maps(outer, inner)
        assert comp.f == HoloSeries2(n, {(1, 1): 1})
        assert comp.g == HoloSeries2(n, {(0, 2): 1})
        # other order: the w-increment feeds the zw term
        comp2 = compose_maps(inner, outer)
        assert comp2.g == HoloSeries2(n, {(0, 2): 1})
        assert comp2.f == HoloSeries2(n, {(1, 1): 1, (1, 2): 1})

    def test_invert_example(self):
        n = 4
        m = FormalMap(HoloSeries2(n), HoloSeries2(n, {(0, 2): 1}))
        inv = invert_map(m)
        assert inv.g == HoloSeries2(n, {(0, 2): -1, (0, 3): 2, (0, 4): -5})

    def test_round_trips_random(self, make):
        n = 6
        ident = FormalMap.identity(n)
        for _ in range(25):
            m = make.formal_map(n)
            inv = invert_map(m)
            assert compose_maps(m, inv) == ident
            assert compose_maps(inv, m) == ident
            assert invert_map(inv) == m

    def test_matches_full_order_iteration(self, make):
        for n in range(6, 13):
            c = make.gaussian() or ONE
            m = dense_map(make, n, f01=c) if n % 2 else dense_map(make, n, g10=c)
            assert invert_map(m) == full_order_map_inverse(m)
        for i in range(6):
            m = make.formal_map(6 + i)
            assert invert_map(m) == full_order_map_inverse(m)

    def test_non_unipotent_1_jet_rejected(self):
        # the 1-jet [[1, 1/2], [1/2, 1]] has det 3/4: invertible, but its
        # inverse's 1-jet has diagonal 4/3, so the inverse is no FormalMap
        n = 5
        half = Fraction(1, 2)
        m = FormalMap(HoloSeries2(n, {(0, 1): half}), HoloSeries2(n, {(1, 0): half}))
        with pytest.raises(ValueError, match="f01"):
            invert_map(m)

    def test_compose_associative(self, make):
        n = 6
        for _ in range(10):
            a, b, c = (make.formal_map(n, 3) for _ in range(3))
            assert compose_maps(compose_maps(a, b), c) == compose_maps(a, compose_maps(b, c))


class TestPointSolve:
    """``_Point.solve``: the series s with s(point) = rhs, for every kind."""

    @pytest.fixture(autouse=True)
    def count_sums(self, monkeypatch):
        """Count series sums, so that ``check`` can require none inside ``solve``."""
        self.sums = 0
        add = _SparseSeries.__add__

        def counted(left, right):
            self.sums += 1
            return add(left, right)

        monkeypatch.setattr(_SparseSeries, "__add__", counted)

    def check(self, point, rhs):
        # the residual stays an integer table: no series sum reduces it
        before = self.sums
        s = point.solve(rhs)
        assert self.sums == before
        assert type(s) is type(rhs) and point.compose(s) == rhs

    def test_series1(self, make):
        n = 9
        for _ in range(10):
            x = Series1.var("x", n)
            p = x + Series1(n, {(j,): make.gaussian() for j in range(2, n + 1)})
            rhs = Series1(n, {(j,): make.gaussian() for j in range(n + 1)})
            self.check(_Point((p,)), rhs)

    def test_holo2_with_f01_or_g10(self, make):
        n = 8
        zv, wv = HoloSeries2.var("z", n), HoloSeries2.var("w", n)
        low = ((0, 0), (1, 0), (0, 1))
        for i in range(10):
            c = make.gaussian() or ONE
            f, g = make.holo2(n, 5, exclude=low), make.holo2(n, 5, exclude=low)
            point = _Point((zv + wv * c + f, wv + g) if i % 2 else (zv + f, wv + zv * c + g))
            self.check(point, make.holo2(n, 8))

    def test_real_series3_with_u_linear_term(self, make):
        n = 7
        for _ in range(6):
            Z = var("z", n) + var("u", n) * (make.gaussian() or I) + make.series3(n, 4, min_degree=2)
            U = var("u", n) + make.hermitian_series3(n, 4, min_degree=2)
            point = _Point((Z, hermitian_conjugate(Z), U))
            assert point.real
            self.check(point, make.series3(n, 8))
            self.check(point, make.hermitian_series3(n, 8, min_degree=1))

    def test_real_series3_over_distinct_primes(self):
        # every coefficient has its own prime denominator, so the residual's
        # denominator grows with the pieces and is raised to their lcm
        n = 7
        z, zb, u = var("z", n), var("zb", n), var("u", n)
        Z = z + u * GaussianRational(Fraction(1, 3), Fraction(2, 5)) + S(n, {
            (2, 1, 0): Fraction(1, 7), (1, 0, 2): GaussianRational(0, Fraction(3, 11))})
        h = S(n, {(2, 0, 1): GaussianRational(Fraction(1, 13), Fraction(1, 5)),
                  (1, 1, 1): Fraction(2, 7)})
        point = _Point((Z, hermitian_conjugate(Z), u + h + hermitian_conjugate(h)))
        assert point.real
        rhs = S(n, {(1, 0, 0): Fraction(1, 3), (0, 1, 1): GaussianRational(0, Fraction(1, 5)),
                    (2, 1, 1): Fraction(4, 7), (0, 3, 0): Fraction(-1, 11),
                    (1, 1, 2): GaussianRational(Fraction(2, 13), Fraction(1, 3))})
        self.check(point, rhs)
        self.check(point, rhs + hermitian_conjugate(rhs) + z * zb * u * Fraction(1, 13))

    def test_linear_part_with_nonzero_e_squared_rejected(self):
        n = 5
        zv, wv = HoloSeries2.var("z", n), HoloSeries2.var("w", n)
        half = Fraction(1, 2)
        point = _Point((zv + wv * half, wv + zv * half))
        with pytest.raises(ValueError, match="E\\^2 = 0"):
            point.solve(zv)


class TestUniSeries:
    """Univariate series (``Series1``) on the sparse core."""

    def test_arcsin(self):
        s = uni_function("arcsin", 5)
        assert [str(s.coeff(j)) for j in range(6)] == ["0", "1", "0", "1/6", "0", "3/40"]

    def test_tan(self):
        s = uni_function("tan", 5)
        assert [str(s.coeff(j)) for j in range(6)] == ["0", "1", "0", "1/3", "0", "2/15"]

    def test_exp_log_inverse(self):
        n = 7
        e = uni_function("exp", n) - 1   # exp(x) - 1
        lg = uni_function("log1p", n)
        assert substitute(lg, e) == Series1.var("x", n)

    def test_pow_rational_binomial(self):
        for t in (Fraction(1), Fraction(2, 3), Fraction(-5, 7)):
            n = 2
            pw = uni_function("pow_rational", n, exponent=Fraction(1, 2))
            inner = Series1(n, {(1,): -t})
            out = substitute(pw, inner)
            assert out.coeff(0) == ONE
            assert out.coeff(1) == GaussianRational(-t / 2)
            assert out.coeff(2) == GaussianRational(-t * t / 8)

    def test_pow_rational_multiplicative(self):
        n = 6
        third = uni_function("pow_rational", n, exponent=Fraction(1, 3))
        cube = third * third * third
        assert cube == Series1(n, {(0,): ONE, (1,): ONE})  # (1+x)^{1/3} cubed is 1 + x

    def test_compose_needs_zero_constant(self):
        n = 3
        with pytest.raises(ValueError, match="vanishing constant term"):
            substitute(uni_function("exp", n), Series1(n, {(0,): ONE, (1,): ONE}))

    def test_division(self):
        # 1 / (1 - x) as the product with (1 + t)^-1 at t = -x
        n = 5
        den = 1 - Series1.var("x", n)
        geo = substitute(uni_function("pow_rational", n, exponent=Fraction(-1)), den - 1)
        assert geo == Series1(n, {(j,): ONE for j in range(n + 1)})
        assert geo * den == Series1(n, {(0,): ONE})

    def test_diff_keeps_the_kind(self):
        s = uni_function("exp", 5)
        assert s.diff("x") == uni_function("exp", 5) - Series1(5, {(5,): Fraction(1, 120)})
        h = HoloSeries2(4, {(2, 1): 3, (0, 2): I})
        assert h.diff("w") == HoloSeries2(4, {(2, 0): 3, (0, 1): 2 * I})
