"""Symbolic bracket tables over formal momentum arguments.

Generators are labelled by species:

    J   adjoint currents            J^a(m)
    G   one-index partners          G^{a mu}(m)
    H   antisymmetric pairs         H^{a mu nu}(m)
    S1  closed one-chain            S1^mu(m),   m_mu S1^mu(m) == 0
    S3  closed three-chain          S3^{mu nu rho}(m),  m_rho S3^{mu nu rho}(m) == 0
    L   vector-field generators     L_mu(m)

Momenta are formal symbol combinations; coefficients are exact polynomials
in momentum components and the charge indeterminates k, c1, c2.  Five named
bracket tables are provided (MF, EMB1, CLASSICAL_MF, EMB2, DIFF_EXT); each
bracket is bilinear and antisymmetric by construction, and the Jacobiator
is reduced modulo the chain closedness relations so that vanishing is an
exact statement about normal forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .lie_core import StructureConstants
from .poly import Poly, format_poly
from .scalars import as_int_if_integral

__all__ = [
    "MomentumSymbol",
    "Momentum",
    "GeneratorTerm",
    "Expression",
    "AlgebraTable",
    "TableMismatchError",
    "TABLE_NAMES",
    "make_table",
    "J",
    "G",
    "H",
    "S1",
    "S3",
    "L",
    "generator",
    "generator_labels",
    "bracket",
    "jacobiator",
    "reduce_closedness",
    "redefine",
    "verify_embedding",
    "all_generators",
    "jacobi_sweep",
    "emb1_obstruction",
    "EmbeddingReport",
    "JacobiReport",
    "ObstructionReport",
]

_SPECIES_ORDER = {"L": 0, "J": 1, "G": 2, "H": 3, "S1": 4, "S3": 5, "1": 9}

TABLE_NAMES = ("MF", "EMB1", "CLASSICAL_MF", "EMB2", "DIFF_EXT")

_TABLE_SPECIES = {
    "MF": ("J", "H", "S3"),
    "EMB1": ("J", "G", "H", "S3"),
    "CLASSICAL_MF": ("J", "H", "S1"),
    "EMB2": ("J", "G", "H", "S1"),
    "DIFF_EXT": ("L", "J", "G", "H", "S1"),
}

_K = Poly.variable("k")
_C1 = Poly.variable("c1")
_C2 = Poly.variable("c2")


class TableMismatchError(ValueError):
    """A species was used with a table that does not define it."""


@dataclass(frozen=True)
class MomentumSymbol:
    """A formal momentum vector with N components, independent of all others."""

    name: str
    N: int

    def __add__(self, other):
        return Momentum.of(self) + Momentum.of(other)

    def __neg__(self):
        return -Momentum.of(self)


class Momentum(NamedTuple):
    """Integer linear combination of momentum symbols.

    A tuple, so memo and expression keys holding it hash and compare in C.
    """

    N: int
    parts: tuple  # tuple[tuple[str, int], ...] sorted by symbol name

    @classmethod
    def of(cls, x) -> "Momentum":
        if isinstance(x, Momentum):
            return x
        if isinstance(x, MomentumSymbol):
            return cls(x.N, ((x.name, 1),))
        raise TypeError(f"cannot interpret {x!r} as a momentum")

    @classmethod
    def zero(cls, N: int) -> "Momentum":
        return cls(N, ())

    def __add__(self, other):
        """One merge of the two sorted ``parts``, dropping zero coefficients."""
        other = Momentum.of(other)
        if other.N != self.N:
            raise ValueError("momenta live in different dimensions")
        p1, p2 = self.parts, other.parts
        n1, n2 = len(p1), len(p2)
        i = j = 0
        out = []
        while i < n1 and j < n2:
            a, b = p1[i], p2[j]
            if a[0] < b[0]:
                out.append(a)
                i += 1
            elif b[0] < a[0]:
                out.append(b)
                j += 1
            else:
                c = a[1] + b[1]
                if c:
                    out.append((a[0], c))
                i += 1
                j += 1
        return Momentum(self.N, (*out, *p1[i:], *p2[j:]))

    def __neg__(self):
        return Momentum(self.N, tuple((k, -v) for k, v in self.parts))

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def at(self, vectors: dict) -> tuple:
        """The integer vector this momentum takes when each symbol name maps
        to a numeric vector in ``vectors``."""
        out = [0] * self.N
        for name, c in self.parts:
            for i, x in enumerate(vectors[name]):
                out[i] += c * x
        return tuple(out)

    def component(self, mu: int) -> Poly:
        """The mu-th component as a polynomial in symbol-component variables."""
        if not 1 <= mu <= self.N:
            raise IndexError(f"component {mu} out of range 1..{self.N}")
        out = Poly()
        for name, c in self.parts:
            out = out + c * Poly.variable(f"{name}_{mu}")
        return out

    def render(self) -> str:
        if not self.parts:
            return "0"
        pieces = []
        for name, c in self.parts:
            if c == 1:
                body = name
            elif c == -1:
                body = f"-{name}"
            else:
                body = f"{c}{name}"
            if pieces and not body.startswith("-"):
                pieces.append(f"+{body}")
            else:
                pieces.append(body)
        return "".join(pieces)


def _ideal_substitution(arg: Momentum) -> dict[str, Poly]:
    """Variable substitution whose fixed points are normal forms modulo the
    ideal generated by the components of ``arg`` (a coordinate change that
    eliminates the alphabetically last symbol of ``arg``)."""
    name, gamma = arg.parts[-1]
    sub = {}
    for mu in range(1, arg.N + 1):
        rest = Poly()
        for other, c in arg.parts:
            if other != name:
                rest = rest + c * Poly.variable(f"{other}_{mu}")
        sub[f"{name}_{mu}"] = rest * as_int_if_integral(Fraction(-1, gamma))
    return sub


class GeneratorTerm(NamedTuple):
    """One normalized generator; antisymmetric index blocks are stored sorted.

    A tuple, like :class:`Momentum`, so the bracket memo keys on it in C.
    """

    species: str
    adjoint: int  # 0 when the species carries no adjoint label
    sidx: tuple  # spacetime indices after normalization
    arg: Momentum

    def sort_key(self):
        return (_SPECIES_ORDER[self.species], self.adjoint, self.sidx, self.arg.parts)

    @property
    def label(self) -> tuple:
        """The generator without its argument: ("J", a), ("G", a, mu),
        ("H", a, mu, nu), ("S1", mu), ("S3", mu, nu, rho) or ("L", mu);
        :func:`generator` is the inverse."""
        if self.species in _ADJOINT_SPECIES:
            return (self.species, self.adjoint) + self.sidx
        return (self.species,) + self.sidx

    def render(self) -> str:
        sp = self.species
        if sp == "1":
            return ""
        body = sp
        if sp in ("J", "G", "H"):
            body += f"^{self.adjoint}"
        if self.sidx:
            body += "{" + ",".join(str(i) for i in self.sidx) + "}"
        return body + f"({self.arg.render()})"


def _sort_with_sign(indices: tuple) -> tuple[int, Optional[tuple]]:
    """Permutation sign and sorted tuple; repeated indices give sign 0."""
    if len(set(indices)) != len(indices):
        return 0, None
    sign = 1
    idx = list(indices)
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign, tuple(idx)


_ANTISYM_ARITY = {"H": 2, "S3": 3}
_ADJOINT_SPECIES = ("J", "G", "H")
_SPACETIME_ARITY = {"J": 0, "G": 1, "H": 2, "S1": 1, "S3": 3, "L": 1}


def _normal_term(species, adjoint, sidx, arg) -> tuple[int, Optional[GeneratorTerm]]:
    sidx = tuple(sidx)
    sign = 1
    if species in _ANTISYM_ARITY:
        sign, sidx = _sort_with_sign(sidx)
        if sign == 0:
            return 0, None
    return sign, GeneratorTerm(species, adjoint, sidx, arg)


# Expression term key: (GeneratorTerm, delta argument or None)


class Expression:
    """Finite sum of (polynomial coefficient) x (generator) x (optional delta).

    Held in normal form: zero coefficients pruned, antisymmetric index blocks
    normalized at construction.  Equality is structural equality of normal
    forms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                if not poly.is_zero:
                    self.terms[key] = poly

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Expression") -> "Expression":
        terms = dict(self.terms)
        for key, poly in other.terms.items():
            acc = terms.get(key)
            terms[key] = poly if acc is None else acc + poly
        return Expression(terms)

    def __neg__(self) -> "Expression":
        return Expression({k: -p for k, p in self.terms.items()})

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def scaled(self, factor) -> "Expression":
        """Multiply every coefficient by a Poly or scalar."""
        return Expression({k: p * factor for k, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, hash(p)) for k, p in self.terms.items()))

    def substitute(self, mapping: dict[str, Poly]) -> "Expression":
        """Apply a variable substitution to every coefficient polynomial."""
        return Expression({k: p.substitute(mapping) for k, p in self.terms.items()})

    def discharged(self) -> "Expression":
        """Evaluate delta-supported coefficients on the delta's support.

        Each coefficient multiplying delta(a) is reduced modulo the ideal
        generated by the components of a (the substitution that sets a = 0);
        delta markers are kept.  Terms whose coefficient vanishes on support
        drop out.
        """
        out = {}
        for (term, delta), poly in self.terms.items():
            if delta is not None and not delta.is_zero:
                poly = poly.substitute(_ideal_substitution(delta))
                if poly.is_zero:
                    continue
            out[(term, delta)] = poly
        return Expression(out)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        lines = []
        for (term, delta) in sorted(
            self.terms, key=lambda kd: (kd[0].sort_key(), kd[1].parts if kd[1] else ())
        ):
            poly = self.terms[(term, delta)]
            cs = format_poly(poly)
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            pieces = [p for p in (term.render(), f"delta({delta.render()})" if delta else "") if p]
            body = "*".join(pieces) if pieces else "1"
            lines.append(f"{cs}*{body}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<Expression {self.render()!r}>"


def _single(species, adjoint, sidx, arg, coeff=None, delta=None) -> Expression:
    arg = Momentum.of(arg)
    sign, term = _normal_term(species, adjoint, sidx, arg)
    if term is None:
        return Expression()
    poly = Poly.const(sign) if coeff is None else coeff * sign
    return Expression({(term, delta): poly})


def J(a: int, arg) -> Expression:
    return _single("J", a, (), arg)


def G(a: int, mu: int, arg) -> Expression:
    return _single("G", a, (mu,), arg)


def H(a: int, mu: int, nu: int, arg) -> Expression:
    return _single("H", a, (mu, nu), arg)


def S1(mu: int, arg) -> Expression:
    return _single("S1", 0, (mu,), arg)


def S3(mu: int, nu: int, rho: int, arg) -> Expression:
    return _single("S3", 0, (mu, nu, rho), arg)


def L(mu: int, arg) -> Expression:
    return _single("L", 0, (mu,), arg)


_MAKERS = {"J": J, "G": G, "H": H, "S1": S1, "S3": S3, "L": L}


def generator(label: tuple, arg) -> Expression:
    """The generator named by ``label`` (see :attr:`GeneratorTerm.label`) at ``arg``."""
    make = _MAKERS.get(label[0])
    if make is None:
        raise ValueError(f"unknown generator label {label!r}")
    return make(*label[1:], arg)


def generator_labels(species: tuple, dim: int, N: int) -> list:
    """Labels of every generator of the given species, in sweep order.

    Adjoint index first, then the spacetime indices; an antisymmetric block
    appears once, in increasing order.
    """
    out = []
    for s in species:
        if s not in _SPACETIME_ARITY:
            raise ValueError(f"unknown species {s!r}")
        blocks = list(itertools.combinations(range(1, N + 1), _SPACETIME_ARITY[s]))
        if s in _ADJOINT_SPECIES:
            out += [(s, a) + block for a in range(1, dim + 1) for block in blocks]
        else:
            out += [(s,) + block for block in blocks]
    return out


class AlgebraTable:
    """One of the five named bracket tables, bound to structure constants.

    ``chain_mode`` is FORMAL (S3 kept as a formal chain symbol) or
    CONCRETE_3D (S3 realized as the alternating symbol times delta(arg),
    N = 3 only).
    """

    def __init__(self, name: str, sc: StructureConstants, N: int = 3, chain_mode: str = "FORMAL"):
        if name not in TABLE_NAMES:
            raise ValueError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")
        if chain_mode not in ("FORMAL", "CONCRETE_3D"):
            raise ValueError(f"unknown chain_mode {chain_mode!r}")
        if N < 1:
            raise ValueError("N must be positive")
        if name in ("MF", "EMB1") and N < 2:
            raise ValueError(f"{name} table needs N >= 2 (the three-chain species is trivial only from N = 2 up)")
        if chain_mode == "CONCRETE_3D":
            if N != 3:
                raise ValueError("CONCRETE_3D chain mode requires N = 3")
            if "S3" not in _TABLE_SPECIES[name]:
                raise ValueError(f"{name} table has no three-chain to concretize")
        self.name = name
        self.sc = sc
        self.N = N
        self.chain_mode = chain_mode
        self.species = _TABLE_SPECIES[name]
        # sparse views of f and d for the adjoint sums; integral values as int
        self._f_rows: dict = {}
        self._d_rows: dict = {}
        for (a, b, c), v in sc.f.items():
            self._f_rows.setdefault((a, b), []).append((c, as_int_if_integral(v)))
        for (a, b, c), v in sc.d.items():
            self._d_rows.setdefault((a, b), []).append((c, as_int_if_integral(v)))
        self._memo: dict = {}

    def __repr__(self):
        return f"AlgebraTable({self.name}, dim={self.sc.dim}, N={self.N}, {self.chain_mode})"


def make_table(name: str, sc: StructureConstants, N: int = 3, chain_mode: str = "FORMAL") -> AlgebraTable:
    return AlgebraTable(name, sc, N, chain_mode)


# -- elementary brackets ------------------------------------------------------


class _Out:
    """Accumulator that applies index normalization and chain concretization."""

    def __init__(self, table: AlgebraTable):
        self.table = table
        self.terms: dict = {}

    def add(self, species, adjoint, sidx, arg, coeff):
        if not isinstance(coeff, Poly):
            coeff = Poly.const(coeff)
        sign, term = _normal_term(species, adjoint, tuple(sidx), arg)
        if term is None:
            return
        if sign != 1:
            coeff = coeff * sign
        key = (term, None)
        if species == "S3" and self.table.chain_mode == "CONCRETE_3D":
            # S3^{123}(a) -> +delta(a); other index orders already folded in
            unit = GeneratorTerm("1", 0, (), Momentum.zero(arg.N))
            key = (unit, arg)
        acc = self.terms.get(key)
        self.terms[key] = coeff if acc is None else acc + coeff

    def expression(self) -> Expression:
        return Expression(self.terms)


def _elementary(table: AlgebraTable, t1: GeneratorTerm, t2: GeneratorTerm) -> Expression:
    """Bracket of two unit generators, t1 before t2 in canonical species order."""
    memo_key = (t1, t2)
    cached = table._memo.get(memo_key)
    if cached is not None:
        return cached

    name = table.name
    s1, s2 = t1.species, t2.species
    m, n = t1.arg, t2.arg
    tot = m + n
    out = _Out(table)

    if s1 == "J" and s2 == "J":
        a, b = t1.adjoint, t2.adjoint
        for c, v in table._f_rows.get((a, b), ()):
            out.add("J", c, (), tot, v)
        if name in ("MF", "CLASSICAL_MF"):
            for c, v in table._d_rows.get((a, b), ()):
                for mu in range(1, table.N + 1):
                    for nu in range(1, table.N + 1):
                        if mu != nu:
                            out.add("H", c, (mu, nu), tot, m.component(mu) * n.component(nu) * v)
        if name in ("CLASSICAL_MF", "EMB2", "DIFF_EXT") and a == b:
            for rho in range(1, table.N + 1):
                out.add("S1", 0, (rho,), tot, -_K * m.component(rho))
    elif s1 == "J" and s2 == "G":
        a, b = t1.adjoint, t2.adjoint
        for c, v in table._f_rows.get((a, b), ()):
            out.add("G", c, t2.sidx, tot, v)
    elif s1 == "J" and s2 == "H":
        a, b = t1.adjoint, t2.adjoint
        for c, v in table._f_rows.get((a, b), ()):
            out.add("H", c, t2.sidx, tot, v)
        if name in ("MF", "EMB1") and a == b:
            mu, nu = t2.sidx
            for rho in range(1, table.N + 1):
                out.add("S3", 0, (mu, nu, rho), tot, m.component(rho))
    elif s1 == "G" and s2 == "G":
        a, b = t1.adjoint, t2.adjoint
        if name in ("EMB1", "EMB2", "DIFF_EXT"):
            mu, nu = t1.sidx[0], t2.sidx[0]
            for c, v in table._d_rows.get((a, b), ()):
                out.add("H", c, (mu, nu), tot, v)
    elif s1 == "L":
        mu = t1.sidx[0]
        if s2 == "L":
            nu = t2.sidx[0]
            out.add("L", 0, (nu,), tot, n.component(mu))
            out.add("L", 0, (mu,), tot, -m.component(nu))
            cocycle = _C1 * m.component(nu) * n.component(mu) + _C2 * m.component(mu) * n.component(nu)
            for rho in range(1, table.N + 1):
                out.add("S1", 0, (rho,), tot, cocycle * m.component(rho))
        elif s2 == "J":
            out.add("J", t2.adjoint, (), tot, n.component(mu))
        elif s2 == "G":
            nu = t2.sidx[0]
            out.add("G", t2.adjoint, (nu,), tot, n.component(mu))
            if nu == mu:
                for rho in range(1, table.N + 1):
                    out.add("G", t2.adjoint, (rho,), tot, m.component(rho))
        elif s2 == "H":
            nu, rho = t2.sidx
            out.add("H", t2.adjoint, (nu, rho), tot, n.component(mu))
            if nu == mu:
                for sig in range(1, table.N + 1):
                    out.add("H", t2.adjoint, (sig, rho), tot, m.component(sig))
            if rho == mu:
                for sig in range(1, table.N + 1):
                    out.add("H", t2.adjoint, (nu, sig), tot, m.component(sig))
        elif s2 == "S1":
            nu = t2.sidx[0]
            out.add("S1", 0, (nu,), tot, n.component(mu))
            if nu == mu:
                for rho in range(1, table.N + 1):
                    out.add("S1", 0, (rho,), tot, m.component(rho))
    # every other ordered pair (chains against non-L, H against G/H, ...) is zero

    expr = out.expression()
    table._memo[memo_key] = expr
    return expr


def bracket(table: AlgebraTable, X: Expression, Y: Expression) -> Expression:
    """Bilinear antisymmetric bracket per the table's defining relations.

    Both arguments are checked against the table's species before any term
    is bracketed, so an undefined species is rejected on either side even
    when the other side is zero.
    """
    for term, _ in itertools.chain(X.terms, Y.terms):
        if term.species != "1" and term.species not in table.species:
            raise TableMismatchError(f"species {term.species} is not defined by table {table.name}")
    out = Expression()
    terms = out.terms
    for (t1, d1), c1 in X.terms.items():
        if t1.species == "1":
            continue  # pure delta terms are central
        key1 = t1.sort_key()
        for (t2, d2), c2 in Y.terms.items():
            if t2.species == "1":
                continue
            if key1 <= t2.sort_key():
                base, sign = _elementary(table, t1, t2), 1
            else:
                base, sign = _elementary(table, t2, t1), -1
            if base.is_zero:
                continue
            carried = d1 if d1 is not None else d2
            if d1 is not None and d2 is not None:
                raise NotImplementedError("bracket of two delta-carrying terms")
            coeff = c1 * c2 if sign == 1 else -(c1 * c2)
            for key, poly in base.terms.items():
                if carried is not None:
                    if key[1] is not None:
                        raise NotImplementedError("stacked delta factors")
                    key = (key[0], carried)
                acc = terms.get(key)
                val = poly * coeff
                if acc is not None:
                    val = acc + val
                if val.is_zero:
                    terms.pop(key, None)
                else:
                    terms[key] = val
    return out


# -- closedness reduction ------------------------------------------------------


def _pivot_division(comps: dict, arg: Momentum, N: int) -> dict:
    """Canonical representative of a one-chain coefficient vector modulo the
    rank-one relation submodule spanned by the components of ``arg``."""
    avec = {mu: arg.component(mu) for mu in range(1, N + 1)}
    pivot = None
    for mu in range(N, 0, -1):
        if not avec[mu].is_zero:
            pivot = mu
            break
    if pivot is None:
        return comps
    # divide by the component variable of the alphabetically last symbol
    lead_sym = arg.parts[-1][0]
    lead_var = f"{lead_sym}_{pivot}"
    c_pivot = comps.get(pivot, Poly())
    q, rem = c_pivot.divmod_linear(avec[pivot], lead_var)
    out = {}
    for mu in range(1, N + 1):
        c = comps.get(mu, Poly())
        red = rem if mu == pivot else c - q * avec[mu]
        if not red.is_zero:
            out[mu] = red
    return out


def _wedge_vanishes(comps: dict, arg: Momentum, N: int) -> bool:
    """True iff the three-chain coefficient vector lies in the relation
    submodule spanned by arg wedge (two-index basis), tested via the wedge
    with arg vanishing in degree four (valid for N >= 4)."""
    avec = {mu: arg.component(mu) for mu in range(1, N + 1)}

    def c(tri):
        sign, srt = _sort_with_sign(tri)
        if sign == 0:
            return Poly()
        return comps.get(srt, Poly()) * sign

    for quad in itertools.combinations(range(1, N + 1), 4):
        acc = Poly()
        for pos in range(4):
            rest = quad[:pos] + quad[pos + 1:]
            acc = acc + (-1) ** pos * avec[quad[pos]] * c(rest)
        if not acc.is_zero:
            return False
    return True


def reduce_closedness(X: Expression) -> Expression:
    """Delete chain contractions that vanish by closedness.

    One-chain groups (fixed argument and delta marker) are reduced to the
    canonical representative modulo multiples of the argument vector, so any
    coefficient pattern q * a_mu against S1^mu(a) drops out exactly.  At
    N = 3 the single three-chain component is reduced modulo the ideal of
    the argument components; at N >= 4 a whole three-chain group is deleted
    when it lies in the relation submodule (wedge test), else left intact.
    """
    out: dict = {}
    s1_groups: dict = {}
    s3_groups: dict = {}
    for (term, delta), poly in X.terms.items():
        if term.species == "S1" and not term.arg.is_zero:
            s1_groups.setdefault((term.arg, delta), {})[term.sidx[0]] = poly
        elif term.species == "S3" and not term.arg.is_zero:
            s3_groups.setdefault((term.arg, delta), {})[term.sidx] = poly
        else:
            out[(term, delta)] = poly

    for (arg, delta), comps in s1_groups.items():
        for mu, poly in _pivot_division(comps, arg, arg.N).items():
            out[(GeneratorTerm("S1", 0, (mu,), arg), delta)] = poly

    for (arg, delta), comps in s3_groups.items():
        N = arg.N
        if N == 3:
            sub = _ideal_substitution(arg)
            reduced = {tri: p.substitute(sub) for tri, p in comps.items()}
            reduced = {tri: p for tri, p in reduced.items() if not p.is_zero}
        elif N >= 4 and _wedge_vanishes(comps, arg, N):
            reduced = {}
        else:
            reduced = comps
        for tri, poly in reduced.items():
            out[(GeneratorTerm("S3", 0, tri, arg), delta)] = poly

    return Expression(out)


def jacobiator(table: AlgebraTable, X: Expression, Y: Expression, Z: Expression) -> Expression:
    """[X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]], reduced modulo closedness."""
    acc = bracket(table, X, bracket(table, Y, Z))
    acc = acc + bracket(table, Y, bracket(table, Z, X))
    acc = acc + bracket(table, Z, bracket(table, X, Y))
    return reduce_closedness(acc)


def redefine(X: Expression) -> Expression:
    """The current redefinition J^a(m) -> J^a(m) + m_mu G^{a mu}(m)."""
    out = Expression()
    for (term, delta), poly in X.terms.items():
        out = out + Expression({(term, delta): poly})
        if term.species == "J":
            for mu in range(1, term.arg.N + 1):
                out = out + _single(
                    "G", term.adjoint, (mu,), term.arg, poly * term.arg.component(mu), delta
                )
    return out


# -- generator sweeps ----------------------------------------------------------


def all_generators(table: AlgebraTable, sym: MomentumSymbol) -> list[tuple[str, Expression]]:
    """Every generator of the table with the given momentum symbol, labelled."""
    if sym.N != table.N:
        raise ValueError("symbol dimension differs from table dimension")
    gens = [generator(label, sym) for label in generator_labels(table.species, table.sc.dim, table.N)]
    return [(_generator(x).render(), x) for x in gens]


@dataclass
class JacobiReport:
    triples_checked: int
    failures: list  # list[(label, rendered expression)]

    @property
    def passed(self) -> bool:
        return not self.failures


def _triples(table: AlgebraTable):
    """Unordered generator triples (with repetition) at symbols m, n, r.

    Yields three (label, expression) pairs, at m, n and r in that order,
    following the order of ``all_generators``.
    """
    gens = [all_generators(table, MomentumSymbol(s, table.N)) for s in ("m", "n", "r")]
    n_gen = len(gens[0])
    for i in range(n_gen):
        for jdx in range(i, n_gen):
            for kdx in range(jdx, n_gen):
                yield gens[0][i], gens[1][jdx], gens[2][kdx]


def _generator(expr: Expression) -> GeneratorTerm:
    """The generator of a single-generator expression such as J(a, m)."""
    return next(iter(expr.terms))[0]


# Sweep reports list at most this many failing triples, in sweep order.
_FAILURES_LISTED = 20


def jacobi_sweep(table: AlgebraTable) -> JacobiReport:
    """Exhaustive Jacobiator check over unordered generator triples.

    The bracket is antisymmetric by construction, so the Jacobiator is
    totally antisymmetric and unordered triples (with repetition) cover all
    orderings.  In CONCRETE_3D mode delta-supported coefficients are
    evaluated on support before the zero test.
    """
    count = 0
    failures: list = []
    for (lab_x, x), (lab_y, y), (lab_z, z) in _triples(table):
        jac = jacobiator(table, x, y, z)
        if table.chain_mode == "CONCRETE_3D":
            jac = jac.discharged()
        count += 1
        if not jac.is_zero:
            if len(failures) < _FAILURES_LISTED:
                failures.append((f"({lab_x}, {lab_y}, {lab_z})", jac.render()))
    return JacobiReport(count, failures)


def emb1_expected_obstruction(table: AlgebraTable, x: Expression, y: Expression, z: Expression) -> Expression:
    """d^{abc} m_rho S3^{mu nu rho}(m+n+r) for the (J^a(m), G^{b mu}(n),
    G^{c nu}(r)) triple, in the table's chain mode."""
    tx, ty, tz = _generator(x), _generator(y), _generator(z)
    tot = tx.arg + ty.arg + tz.arg
    dval = table.sc.d_at(tx.adjoint, ty.adjoint, tz.adjoint)
    out = _Out(table)
    if dval != 0:
        for rho in range(1, table.N + 1):
            out.add("S3", 0, (ty.sidx[0], tz.sidx[0], rho), tot, tx.arg.component(rho) * dval)
    return out.expression()


@dataclass
class ObstructionReport:
    jgg_checked: int
    other_checked: int
    mismatches: list
    nonzero_on_support: bool

    @property
    def passed(self) -> bool:
        return not self.mismatches


def emb1_obstruction(table: AlgebraTable) -> ObstructionReport:
    """Check that EMB1's Jacobiator is exactly the (J, G, G) obstruction.

    Every triple other than (J, G, G)-type must have zero Jacobiator; each
    (J^a(m), G^{b mu}(n), G^{c nu}(r)) triple must equal
    d^{abc} m_rho S3^{mu nu rho}(m+n+r) exactly.  In CONCRETE_3D mode both
    sides are compared after on-support evaluation and the report records
    whether any obstruction survives on the support (it does iff d != 0).
    Mismatches are listed in sweep order.
    """
    if table.name != "EMB1":
        raise ValueError("obstruction sweep is defined for the EMB1 table")
    concrete = table.chain_mode == "CONCRETE_3D"
    jgg = other = 0
    mismatches: list = []
    nonzero_support = False
    for (lab_x, x), (lab_y, y), (lab_z, z) in _triples(table):
        jac = jacobiator(table, x, y, z)
        if concrete:
            jac = jac.discharged()
        is_jgg = (_generator(x).species, _generator(y).species, _generator(z).species) == ("J", "G", "G")
        if is_jgg:
            jgg += 1
            want = emb1_expected_obstruction(table, x, y, z)
            if concrete:
                want = want.discharged()
            nonzero_support = nonzero_support or (concrete and not jac.is_zero)
        else:
            other += 1
            want = Expression()
        if jac != want and len(mismatches) < _FAILURES_LISTED:
            if is_jgg:
                detail = "got:\n" + jac.render() + "\nwant:\n" + want.render()
            else:
                detail = "expected zero, got:\n" + jac.render()
            mismatches.append((f"({lab_x}, {lab_y}, {lab_z})", detail))
    return ObstructionReport(jgg, other, mismatches, nonzero_support)


# -- embedding checks ----------------------------------------------------------


@dataclass
class EmbeddingReport:
    pairs_checked: int
    mismatches: list

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_embedding(source: AlgebraTable, target: AlgebraTable) -> EmbeddingReport:
    """Exact check that the redefinition intertwines source and target brackets.

    For every pair of source generators X, Y the expressions
    bracket(target, redefine(X), redefine(Y)) and redefine(bracket(source, X, Y))
    must agree exactly.
    """
    allowed = {("MF", "EMB1"), ("CLASSICAL_MF", "EMB2")}
    if (source.name, target.name) not in allowed:
        raise ValueError(
            f"unsupported pair ({source.name}, {target.name}); "
            f"supported source -> target pairs: {sorted(allowed)}"
        )
    if source.sc is not target.sc and (source.sc.f != target.sc.f or source.sc.d != target.sc.d):
        raise ValueError("source and target must share structure constants")
    if source.N != target.N:
        raise ValueError("source and target must share N")
    m = MomentumSymbol("m", source.N)
    n = MomentumSymbol("n", source.N)
    xs = all_generators(source, m)
    ys = all_generators(source, n)
    checked = 0
    mismatches: list = []
    for i, (lab_x, x) in enumerate(xs):
        rx = redefine(x)
        for lab_y, y in ys[i:]:
            lhs = bracket(target, rx, redefine(y))
            rhs = redefine(bracket(source, x, y))
            checked += 1
            if lhs != rhs:
                if len(mismatches) < 10:
                    diff = lhs - rhs
                    mismatches.append((f"[{lab_x}, {lab_y}]", "difference:\n" + diff.render()))
    return EmbeddingReport(checked, mismatches)
