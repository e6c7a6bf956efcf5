"""Shared deterministic random generators for the property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, ZERO
from nfc.series import FormalMap, HoloSeries2, Series3, hermitian_conjugate
from nfc.surface import GraphSurface, Jet7, jet7
from nfc.resonance import matrix_A
from nfc.normalizer import stage_system
from nfc.families import gen_cd, gen_mm, gen_mmt


class Maker:
    """Factory of random exact objects, driven by one seeded RNG."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rational(self, span: int = 6) -> Fraction:
        num = self.rng.randint(-span, span)
        den = self.rng.randint(1, span)
        return Fraction(num, den)

    def gaussian(self, span: int = 6) -> GaussianRational:
        return GaussianRational(self.rational(span), self.rational(span))

    def series3(self, n: int, nterms: int = 6, min_degree: int = 1) -> Series3:
        terms = {}
        for _ in range(nterms):
            a = self.rng.randint(0, n)
            b = self.rng.randint(0, n - a)
            c = self.rng.randint(0, n - a - b)
            if a + b + c < min_degree:
                continue
            terms[(a, b, c)] = self.gaussian()
        return Series3(n, terms)

    def hermitian_series3(self, n: int, nterms: int = 6, min_degree: int = 2) -> Series3:
        s = self.series3(n, nterms, min_degree)
        half = GaussianRational(Fraction(1, 2))
        return (s + hermitian_conjugate(s)) * half

    def holo2(self, n: int, nterms: int = 5, exclude=()) -> HoloSeries2:
        terms = {}
        for _ in range(nterms):
            l = self.rng.randint(0, n)
            k = self.rng.randint(0, n - l)
            if (l, k) in exclude or l + k == 0:
                continue
            terms[(l, k)] = self.gaussian(span=3)
        return HoloSeries2(n, terms)

    def formal_map(self, n: int, nterms: int = 4) -> FormalMap:
        # g10 = 0 keeps the 1-jet unipotent (f01 * g10 = 0), which
        # invert_map requires; test_series.dense_map draws g10 != 0
        f = self.holo2(n, nterms, exclude=((0, 0), (1, 0)))
        g = self.holo2(n, nterms, exclude=((0, 0), (0, 1), (1, 0)))
        return FormalMap(f, g)

    def class_surface(self, n: int, nterms: int = 5, prenormalized: bool = True) -> GraphSurface:
        """Random in-class surface with phi11 = 1, Hermitian, normal coordinates."""
        terms = {(1, 1, 1): GaussianRational(1)}
        for _ in range(nterms):
            c = self.rng.randint(1, max(1, n - 4))
            a = self.rng.randint(1, n - c - 1)
            b = self.rng.randint(1, n - c - a)
            if (a, b, c) == (1, 1, 1):
                continue
            if prenormalized and c == 1 and (a == 1 or b == 1):
                continue
            v = self.gaussian(span=3)
            terms[(a, b, c)] = terms.get((a, b, c), ZERO) + v
            conj_key = (b, a, c)
            vc = v.conjugate()
            terms[conj_key] = terms.get(conj_key, ZERO) + (vc if conj_key != (a, b, c) else ZERO)
        # re-hermitize exactly
        s = Series3(n, terms)
        half = GaussianRational(Fraction(1, 2))
        s = (s + hermitian_conjugate(s)) * half
        if prenormalized:
            s = Series3(n, {key: v for key, v in s.terms.items()
                            if not (key[2] == 1 and 1 in key[:2] and key[:2] != (1, 1))})
        return GraphSurface(s)

    def jet(self) -> Jet7:
        return Jet7(
            phi22=GaussianRational(self.rational()),
            phi32=self.gaussian(),
            phi33=GaussianRational(self.rational()),
            phi42=self.gaussian(),
            phi43=self.gaussian(),
        )


def _with_jet(M: GraphSurface, j: Jet7) -> GraphSurface:
    """M with its u-linear 7-jet entries, and their conjugates, set to j."""
    terms = dict(M.phi.terms)
    for (a, b), v in (((2, 2), j.phi22), ((3, 2), j.phi32), ((3, 3), j.phi33),
                      ((4, 2), j.phi42), ((4, 3), j.phi43)):
        terms[(a, b, 1)], terms[(b, a, 1)] = v, v.conjugate()
    return GraphSurface(Series3(M.n, terms))


def tagged_block_mismatches(make: Maker) -> list:
    """Where the stage-system 9x9 block differs from the transcribed matrix_A.

    Probes every k <= N - 6 on 5 class draws of ``make``, which have zero
    7-jets, and on surfaces that reach the jet-dependent entries: 4 draws
    with a random nonzero 7-jet (N = 11, 11, 13, 13), M_1, M_2, M_{2,1} and
    C = 3, D = -7.  Returns (surface, k, i, j) for each differing entry, and
    (surface, "zero jet") for each of the latter whose 7-jet is zero.
    """
    surfaces = [make.class_surface(11, nterms=6) for _ in range(5)]
    with_jet = [_with_jet(make.class_surface(n, nterms=6), make.jet())
                for n in (11, 11, 13, 13)]
    with_jet += [gen_mm(1, 12), gen_mm(2, 12), gen_mmt(2, 1, 12), gen_cd(3, -7, 12)]
    out = [(trial, "zero jet") for trial, M in enumerate(with_jet, len(surfaces))
           if jet7(M) == Jet7.zero()]
    for trial, M in enumerate(surfaces + with_jet):
        A = matrix_A(jet7(M))
        for k in range(2, M.n - 5):
            blk = stage_system(M, k).tagged_block()
            Ak = [[e(GaussianRational(k)) for e in row] for row in A]
            out += [(trial, k, i, j) for i in range(9) for j in range(9)
                    if Ak[i][j] != GaussianRational(blk[i][j])]
    return out


@pytest.fixture
def make():
    return Maker(seed=20240811)


@pytest.fixture
def make2():
    return Maker(seed=987654321)
