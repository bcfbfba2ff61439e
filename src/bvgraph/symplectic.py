"""Constant symplectic structures, Hamiltonian fields, brackets, odd Laplacian.

A symplectic space is the super-skew matrix b of its constant 2-form omega,
and the operators read b and its inverse only.  The coefficients c_v of
da = sum_v c_v dy_v are signed left derivatives of the monomials of a, the
Hamiltonian field is Phi^{-1} applied to them, and the odd Laplacian is the
second-order operator 1/2 sum Phi^{-1}[u][v] d_u d_v with signs; the
contraction matrix Phi and its inverse are b and b^{-1} with signs.
Brackets are Hamiltonian fields applied to functions.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg
from .graded import (EVEN, ODD, SuperSpace, dense_vectors, integer_terms, span_space,
                     sparse_sum, tensor_space, vector_parity)
from .superpoly import SuperPolynomial, VectorField, left_partials, merge_keys


class BilinearForm:
    """Matrix of a parity-homogeneous super-(skew)symmetric bilinear form."""

    __slots__ = ("space", "rows", "parity", "symmetry", "_nondegenerate")

    def __init__(self, space: SuperSpace, rows, parity, symmetry, check=True):
        self.space = space
        zero = Fraction(0)  # one object for all zero entries, most of a dense form's
        self.rows = tuple(tuple(zero if x == 0 else Fraction(x) for x in r) for r in rows)
        self.parity = parity
        self.symmetry = symmetry  # "sym" | "skew"
        self._nondegenerate = None
        if check:
            self.validate()

    def validate(self):
        n = len(self.space)
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix shape mismatch")
        s = 1 if self.symmetry == "sym" else -1
        for i in range(n):
            pi = self.space.parities[i]
            for j in range(n):
                pj = self.space.parities[j]
                if self.rows[i][j] != 0 and (pi + pj) % 2 != self.parity:
                    raise ValueError(f"entry ({i},{j}) breaks parity homogeneity")
                koszul = -1 if (pi and pj) else 1
                if self.rows[i][j] != s * koszul * self.rows[j][i]:
                    raise ValueError(f"declared {self.symmetry}metry fails at ({i},{j})")

    def is_nondegenerate(self) -> bool:
        """Whether the matrix has full rank; found once per form, whose rows
        are a tuple of tuples and never change."""
        if self._nondegenerate is None:
            n = len(self.space)
            self._nondegenerate = n == 0 or linalg.rank(self.rows) == n
        return self._nondegenerate

    def inverse(self) -> "BilinearForm":
        """Inverse form on the dual space, via the D_l/D_r diagram; the dual
        basis is indexed as the form's, so it keeps the form's ``space``.

        Chasing the diagram with Koszul signs gives Binv = B^{-1} * E with
        E = diag((-1)^{p_i * |form|}); for odd symmetric forms the result is
        antisymmetric.
        """
        binv = linalg.inverse(self.rows)  # ValueError if degenerate
        if self.parity == ODD:
            for i in range(len(binv)):
                for j in range(len(binv)):
                    if self.space.parities[j] == ODD:
                        binv[i][j] = -binv[i][j]
        sym = self.symmetry
        if self.parity == ODD:
            sym = "skew" if self.symmetry == "sym" else "sym"
        return BilinearForm(self.space, binv, self.parity, sym)

    def evaluate(self, u, v) -> Fraction:
        """<u, v> = sum_ij u_i B_ij v_j, each vector a dense sequence or a
        sparse {index: coefficient} dict."""
        vs = [(j, b) for j, b in _entries(v) if b]
        return sum((a * self.rows[i][j] * b for i, a in _entries(u) if a for j, b in vs),
                   Fraction(0))

    def restrict(self, vectors):
        """Gram matrix on a list of (homogeneous) vectors."""
        return [[self.evaluate(u, v) for v in vectors] for u in vectors]

    def tensor_with(self, other: "BilinearForm") -> "BilinearForm":
        """<a1 (x) w1, a2 (x) w2> = (-1)^{|w1||a2|} <a1,a2> <w1,w2>."""
        na, nw = len(self.space), len(other.space)
        rows = [[Fraction(0)] * (na * nw) for _ in range(na * nw)]
        for a1 in range(na):
            for w1 in range(nw):
                for a2 in range(na):
                    sgn = -1 if (other.space.parities[w1] and self.space.parities[a2]) else 1
                    for w2 in range(nw):
                        v = self.rows[a1][a2] * other.rows[w1][w2]
                        if v:
                            rows[a1 * nw + w1][a2 * nw + w2] = sgn * v
        parity = (self.parity + other.parity) % 2
        symmetry = "sym" if self.symmetry == other.symmetry else "skew"
        return BilinearForm(tensor_space(self.space, other.space), rows, parity, symmetry)


def _entries(x):
    """The (index, coefficient) pairs of a dense sequence or a sparse dict."""
    return x.items() if isinstance(x, dict) else enumerate(x)


def i2_of_quadratic(sigma: SuperPolynomial) -> BilinearForm:
    """The even symmetric bilinear form i_2(sigma) of a quadratic function;
    ValueError unless sigma is even and quadratic."""
    n = len(sigma.space)
    pars = sigma.space.parities
    rows = [[Fraction(0)] * n for _ in range(n)]
    for key, val in sigma.terms.items():
        if len(key) != 2:
            raise ValueError("sigma must be quadratic")
        i, j = key
        if i == j:
            rows[i][i] += 2 * val
        else:
            rows[i][j] += val
            rows[j][i] += (-1 if (pars[i] and pars[j]) else 1) * val
    return BilinearForm(sigma.space, rows, EVEN, "sym")


class SymplecticSpace:
    """Superspace with a constant nondegenerate 2-form omega (even or odd).

    The space is the matrix b = Upsilon(omega) of omega, a super-skew
    BilinearForm; b and its inverse, taken once, give every operator.
    Phi, with i_{d/dy_u}(omega) = sum_v Phi[v][u] dy_v, is Phi[v][u] =
    (-1)^{p_u} b[u][v], and Phi^{-1} = (-1)^{1 + |omega|} b^{-1}, b^{-1}
    the form ``inverse``.
    """

    def __init__(self, form: BilinearForm):
        if form.symmetry != "skew":
            raise ValueError("a symplectic form is super-skew")
        self.space = form.space
        self.form = form
        self.parity = form.parity
        if self.parity == ODD:
            ev, od = self.space.dim()
            if ev != od:
                raise ValueError("odd symplectic space must have dimension n|n")
        self.inverse = form.inverse()
        sign = 1 if self.parity == ODD else -1
        # the nonzero entries (u, Phi^{-1}[u][v] * D) of each column v, as
        # ints over the lcm D of the denominators of Phi^{-1}
        self._minv_scale, entries = integer_terms(
            {(u, v): sign * x for u, row in enumerate(self.inverse.rows)
             for v, x in enumerate(row) if x})
        self._minv_cols = [[] for _ in self.space.parities]
        for (u, v), x in entries:
            self._minv_cols[v].append((u, x))

    # -- canonical models -----------------------------------------------------
    @classmethod
    def canonical_even(cls, n: int, m: int) -> "SymplecticSpace":
        """V_{2n|m} with omega = sum dp_i dq_i + 1/2 sum dx_i dx_i."""
        names = ([f"p{i+1}" for i in range(n)] + [f"q{i+1}" for i in range(n)]
                 + [f"x{i+1}" for i in range(m)])
        return cls._canonical(names, [EVEN] * (2 * n) + [ODD] * m, n, EVEN)

    @classmethod
    def canonical_odd(cls, n: int) -> "SymplecticSpace":
        """U_{n|n} with omega = sum dx_i dxi_i."""
        names = [f"x{i+1}" for i in range(n)] + [f"xi{i+1}" for i in range(n)]
        return cls._canonical(names, [EVEN] * n + [ODD] * n, n, ODD)

    @classmethod
    def _canonical(cls, names, parities, n, parity):
        """b[y_i][y_{n+i}] = 1, b[y_{n+i}][y_i] = -1 (i < n), b[y_j][y_j] = -1 (j >= 2n)."""
        rows = [[0] * len(names) for _ in names]
        for i in range(n):
            rows[i][n + i], rows[n + i][i] = 1, -1
        for j in range(2 * n, len(names)):
            rows[j][j] = -1
        return cls(BilinearForm(SuperSpace(names, parities), rows, parity, "skew"))

    # -- Hamiltonian correspondence --------------------------------------------
    def hamiltonian_field(self, a: SuperPolynomial) -> VectorField:
        """Phi^{-1}(da): the field alpha with i_alpha(omega) = da.

        alpha(y_u) = sum_v Phi^{-1}[u][v] c_v, where da = sum_v c_v dy_v with
        the coefficients on the left.  For a monomial m,

            c_v = (-1)^{(1 + p_v)|m|} d^L_v m,

        d^L_v the left derivative (for an even v it carries the multiplicity).
        This is exact: d is the odd derivation with d(y_v) = dy_v, so the
        occurrence of y_v after a prefix P of m gives (-1)^{|P|} P dy_v S, and
        moving dy_v (parity p_v + 1) to the right past the suffix S costs
        (-1)^{(p_v + 1)|S|}.  The product of the two signs is (-1)^{|P|} =
        the sign of d^L_v for an odd v, and (-1)^{|P| + |S|} = (-1)^{|m|} for
        an even v.  It is the same da as FormContext.d gives, read off without
        building the 2N-variable form.

        The sum runs over ints: a's coefficients times their lcm D_a
        (``graded.integer_terms``) and Phi^{-1} times D_Phi, divided once per
        output term by D_a D_Phi.
        """
        if a.space != self.space:
            raise ValueError("Hamiltonian not on this space")
        pars = self.space.parities
        cols = self._minv_cols
        d, coeffs = integer_terms(a.terms)

        def terms():
            for key, val in coeffs:
                for v, rest, f in _gradient(pars, key):
                    c = f * val
                    for u, x in cols[v]:
                        yield (u, rest), x * c
        imgs = [{} for _ in pars]
        for (u, rest), c in sparse_sum(terms(), d * self._minv_scale).items():
            imgs[u][rest] = c
        return VectorField(self.space, [SuperPolynomial(self.space, t) for t in imgs])

    def hamiltonian_of(self, eta: VectorField) -> SuperPolynomial:
        """The Hamiltonian of a symplectic field, with no constant term.

        i_eta(omega) = sum_v c_v dy_v, c_v = sum_u eta(y_u) Phi[v][u], and the
        Poincare integral maps a term m dy_v to (-1)^{|m|} m y_v / (deg m + 1).
        It inverts d when i_eta(omega) is closed (eta symplectic); else ValueError.
        """
        if eta.space != self.space:
            raise ValueError("field not on this space")
        pars = self.space.parities

        def terms():
            for u, row in enumerate(self.form.rows):
                for v, b in ((v, b) for v, b in enumerate(row) if b):
                    for key, val in eta.images[u].terms.items():
                        term, sign = merge_keys(self.space, key, (v,))
                        if term is not None:
                            sign *= (-1) ** (pars[u] + sum(pars[i] for i in key))
                            yield term, sign * b * val / (len(key) + 1)
        h = SuperPolynomial(self.space, sparse_sum(terms()))
        if self.hamiltonian_field(h).images != eta.images:
            raise ValueError("field is not symplectic")
        return h

    # -- brackets ---------------------------------------------------------------
    def poisson(self, a: SuperPolynomial, b: SuperPolynomial) -> SuperPolynomial:
        """{a,b} = (-1)^a L_alpha(b) on an even symplectic space; the sign is
        taken termwise, as the field of the grading involution of a."""
        if self.parity != EVEN:
            raise ValueError("Poisson bracket needs an even symplectic form")
        return self.hamiltonian_field(a.grading_involution())(b)

    def antibracket(self, a: SuperPolynomial, b: SuperPolynomial) -> SuperPolynomial:
        """{a,b} = L_alpha(b) on an odd symplectic space (linear P-manifold);
        a need not be parity homogeneous."""
        if self.parity != ODD:
            raise ValueError("antibracket needs an odd symplectic form")
        return self.hamiltonian_field(a)(b)

    def odd_laplacian(self, a: SuperPolynomial) -> SuperPolynomial:
        """Delta(a) = 1/2 nabla(Phi^{-1} da), as a second-order operator.

        On a monomial m, with c_v its gradient coefficients
        (``hamiltonian_field``),

            Delta(m) = 1/2 sum_{u,v} (-1)^{p_u |m|} Phi^{-1}[u][v] d^L_u c_v.

        This is exact: alpha = Phi^{-1}(dm) has parity |m| + 1, since
        Phi^{-1}[u][v] is 0 unless p_u + p_v is odd, and the divergence
        nabla(alpha) = sum_u (-1)^{p_u + p_u |alpha|} d^L_u alpha(y_u) gives
        the sign (-1)^{p_u |m|}.  Summing monomial by monomial makes it exact
        on inhomogeneous a too, as the divergence takes its sign termwise.

        One walk of m (``superpoly.left_partials``) gives each variable w its
        first position and its factor f_w in d^L_w m, and each (u, v) term is
        sign arithmetic on them.  p_u != p_v, so u != v, and d^L_u y_rest has
        the factor f_u of u in m: dropping the even one of u, v from m leaves
        the multiplicity of the other, or the parity of the prefix of the odd
        one, as it was.  The signs (-1)^{p_u |m|} and (-1)^{(1 + p_v)|m|} of
        c_v agree, as p_u = 1 + p_v mod 2, so they cancel: the pair adds
        Phi^{-1}[u][v] f_u f_v times the coefficient of m to the monomial
        with both first positions dropped.  Only the u of column v of
        Phi^{-1} that occur in m contribute.

        The sum runs over ints: a's coefficients times their lcm D_a
        (``graded.integer_terms``) and Phi^{-1} times D_Phi, divided once per
        output term by 2 D_a D_Phi.
        """
        if self.parity != ODD:
            raise ValueError("the odd Laplacian needs an odd symplectic form")
        if a.space != self.space:
            raise ValueError("polynomial not on this space")
        pars = self.space.parities
        cols = self._minv_cols
        d, coeffs = integer_terms(a.terms)

        def terms():
            for key, val in coeffs:
                walk = left_partials(pars, key)
                for v, (pv, fv) in walk.items():
                    c = fv * val
                    for u, x in cols[v]:
                        if u in walk:
                            pu, fu = walk[u]
                            i, j = (pu, pv) if pu < pv else (pv, pu)
                            yield key[:i] + key[i + 1:j] + key[j + 1:], fu * x * c
        return SuperPolynomial(self.space,
                               sparse_sum(terms(), 2 * d * self._minv_scale))


def _gradient(pars, key):
    """(v, rest, f) for each v in the canonical monomial m = y_key, in one walk
    of m, where c_v = f * y_rest in dm = sum_v c_v dy_v; see
    ``hamiltonian_field``.  Odd variables never repeat, so |m| is the parity
    of the count of odd variables."""
    walk = left_partials(pars, key)
    s = sum(pars[v] for v in walk) % 2
    for v, (pos, f) in walk.items():
        yield v, key[:pos] + key[pos + 1:], -f if s and not pars[v] else f


class LagrangianSubspace:
    """A Lagrangian of an odd nondegenerate form: a graded isotropic subspace
    of half the total dimension, given by a basis."""

    def __init__(self, form: BilinearForm, vectors):
        if form.parity != ODD:
            raise ValueError("Lagrangian gauges live in odd symplectic spaces")
        if not form.is_nondegenerate():
            raise ValueError("the form is degenerate: a Lagrangian needs a nondegenerate one")
        self.form = form
        self.vectors = dense_vectors(form.space, vectors)
        n = len(form.space) // 2
        if len(self.vectors) != n:
            raise ValueError("a Lagrangian in n|n has total dimension n")
        self.parities = [vector_parity(form.space, v) for v in self.vectors]
        if linalg.rank(self.vectors) != n:
            raise ValueError("basis vectors are dependent")
        if any(map(any, form.restrict(self.vectors))):
            raise ValueError("subspace is not isotropic")

    def subspace(self) -> SuperSpace:
        return span_space(self.parities)


def restrict_polynomial(f: SuperPolynomial, vectors, sub_space: SuperSpace) -> SuperPolynomial:
    """Pull back along the inclusion span(vectors) -> ambient, in given coordinates."""
    images = [SuperPolynomial(sub_space, {(s,): Fraction(v[i])
                                          for s, v in enumerate(vectors) if v[i]})
              for i in range(len(f.space))]
    return f.substitute(images, sub_space)
