"""Seeded random generators for polynomials, vector fields and forms.

Every sampler takes an explicit random.Random, so the seed of that generator
fully determines what is drawn.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg
from .graded import SuperSpace, monomial_parity
from .superpoly import SuperPolynomial, VectorField
from .forms import FormContext


def rational(rng: random.Random, zero_ok=True) -> Fraction:
    num = rng.randint(-4, 4)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.choice([1, 1, 1, 2, 3]))


def monomial_keys(space: SuperSpace, degree: int):
    keys = []
    for key in combinations_with_replacement(range(len(space)), degree):
        if any(space.parities[v] and key.count(v) > 1 for v in key):
            continue
        keys.append(key)
    return keys


def _draw_terms(rng, space, pool, terms) -> SuperPolynomial:
    """Sum of `terms` monomials, each a key drawn from `pool` then a coefficient."""
    return SuperPolynomial.sum(space, (
        SuperPolynomial.monomial(space, pool[rng.randrange(len(pool))],
                                 rational(rng, zero_ok=False))
        for _ in range(terms)))


def polynomial(rng, space, max_degree, parity=None, terms=3,
               min_degree=0) -> SuperPolynomial:
    pool = []
    for d in range(min_degree, max_degree + 1):
        for key in monomial_keys(space, d):
            if parity is not None and monomial_parity(space, key) != parity:
                continue
            pool.append(key)
    if not pool:
        return SuperPolynomial.zero(space)
    return _draw_terms(rng, space, pool, terms)


def homogeneous_monomial(rng, space, degree, parity=None) -> SuperPolynomial:
    pool = [k for k in monomial_keys(space, degree)
            if parity is None or monomial_parity(space, k) == parity]
    if not pool:
        raise ValueError("no monomials with the requested degree/parity")
    key = pool[rng.randrange(len(pool))]
    return SuperPolynomial.monomial(space, key, rational(rng, zero_ok=False))


def vector_field(rng, space, parity, max_degree, terms=2) -> VectorField:
    imgs = []
    for i in range(len(space)):
        imgs.append(polynomial(rng, space, max_degree,
                               parity=(parity + space.parities[i]) % 2, terms=terms))
    return VectorField(space, imgs)


def form(rng, ctx: FormContext, max_degree, max_form_degree, terms=3) -> SuperPolynomial:
    pool = []
    for d in range(max_degree + 1):
        for key in monomial_keys(ctx.space, d):
            if ctx.form_degree(key) <= max_form_degree:
                pool.append(key)
    return _draw_terms(rng, ctx.space, pool, terms)


def multilinear(rng, space, degree, terms=4, parity=None) -> VectorField:
    """A field with images of degree `degree`: `terms` draws of a target y_w
    and a key, of parity |key| + p_w equal to `parity` unless it is None."""
    pool = [(w, key) for w, p in enumerate(space.parities)
            for key in monomial_keys(space, degree)
            if parity is None or (monomial_parity(space, key) + p) % 2 == parity]
    images = [[] for _ in space.names]
    for _ in range(terms):
        w, key = pool[rng.randrange(len(pool))]
        images[w].append(SuperPolynomial.monomial(space, key, rational(rng, zero_ok=False)))
    return VectorField(space, [SuperPolynomial.sum(space, parts) for parts in images])


def vector(rng, space):
    return [rational(rng) for _ in range(len(space))]


def invertible_graded_matrix(rng, space):
    """Random invertible parity-preserving matrix (columns = new basis vectors)."""
    n = len(space)
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if space.parities[i] == space.parities[j]:
                    m[i][j] = rational(rng)
        try:
            linalg.inverse(m)
            return m
        except ValueError:
            continue
