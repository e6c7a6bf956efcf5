"""Shared deterministic random generators for the property tests."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, ZERO
from nfc.series import FormalMap, HoloSeries2, Series3, hermitian_conjugate
from nfc.surface import GraphSurface, Jet7


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


@pytest.fixture
def make():
    return Maker(seed=20240811)


@pytest.fixture
def make2():
    return Maker(seed=987654321)
