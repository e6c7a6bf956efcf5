"""Series kernel: arithmetic, composition, conjugation, reversion, maps."""

import random
from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, I, ONE, ZERO
from nfc.series import (
    FormalMap,
    HoloSeries2,
    Series3,
    UniSeries,
    compose_maps,
    hermitian_conjugate,
    invert_map,
    invert_real_triple,
    is_hermitian,
    split_real_imag,
    substitute,
    uni_compose,
    uni_function,
)


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

    def test_compose_associative(self, make):
        n = 6
        for _ in range(10):
            a, b, c = (make.formal_map(n, 3) for _ in range(3))
            assert compose_maps(compose_maps(a, b), c) == compose_maps(a, compose_maps(b, c))


class TestUniSeries:
    def test_arcsin(self):
        s = uni_function("arcsin", 5)
        assert [str(c) for c in s.coeffs] == ["0", "1", "0", "1/6", "0", "3/40"]

    def test_tan(self):
        s = uni_function("tan", 5)
        assert [str(c) for c in s.coeffs] == ["0", "1", "0", "1/3", "0", "2/15"]

    def test_exp_log_inverse(self):
        n = 7
        e = uni_function("exp", n) - UniSeries(n, [ONE])   # exp(x) - 1
        lg = uni_function("log1p", n)
        assert uni_compose(lg, e) == UniSeries.x(n)

    def test_pow_rational_binomial(self):
        for t in (Fraction(1), Fraction(2, 3), Fraction(-5, 7)):
            n = 2
            pw = uni_function("pow_rational", n, exponent=Fraction(1, 2))
            inner = UniSeries(n, [ZERO, GaussianRational(-t)])
            out = uni_compose(pw, inner)
            assert out.coeff(0) == ONE
            assert out.coeff(1) == GaussianRational(-t / 2)
            assert out.coeff(2) == GaussianRational(-t * t / 8)

    def test_pow_rational_multiplicative(self):
        n = 6
        third = uni_function("pow_rational", n, exponent=Fraction(1, 3))
        cube = third * third * third
        assert cube == UniSeries(n, [ONE, ONE])  # (1+x)^{1/3} cubed is 1 + x

    def test_compose_needs_zero_constant(self):
        n = 3
        with pytest.raises(ValueError, match="vanishing constant term"):
            uni_compose(uni_function("exp", n), UniSeries(n, [ONE, ONE]))

    def test_division(self):
        n = 5
        num = UniSeries(n, [ONE])
        den = UniSeries(n, [ONE, -ONE])     # 1 - x
        geo = num / den
        assert geo == UniSeries(n, [ONE] * (n + 1))
        assert geo * den == num
