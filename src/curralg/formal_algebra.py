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
from fractions import Fraction
from typing import NamedTuple, Optional

from .lie_core import StructureConstants
from .poly import Poly, _mono_mul, format_poly
from .scalars import as_int_if_integral

__all__ = [
    "Momentum",
    "GeneratorTerm",
    "Expression",
    "AlgebraTable",
    "TableMismatchError",
    "TABLE_NAMES",
    "TABLE_SPECIES",
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
    "EMBEDDINGS",
    "verify_embedding",
    "all_generators",
    "jacobi_sweep",
    "emb1_obstruction",
    "SymbolicReport",
]

_SPECIES_ORDER = {"L": 0, "J": 1, "G": 2, "H": 3, "S1": 4, "S3": 5, "1": 9}

# the species of each table; its extension terms are the ones these allow
TABLE_SPECIES = {
    "MF": ("J", "H", "S3"),
    "EMB1": ("J", "G", "H", "S3"),
    "CLASSICAL_MF": ("J", "H", "S1"),
    "EMB2": ("J", "G", "H", "S1"),
    "DIFF_EXT": ("L", "J", "G", "H", "S1"),
}
TABLE_NAMES = tuple(TABLE_SPECIES)

_K = Poly.variable("k")
_C1 = Poly.variable("c1")
_C2 = Poly.variable("c2")


class TableMismatchError(ValueError):
    """A species was used with a table that does not define it."""


class Momentum(NamedTuple):
    """Integer linear combination of momentum symbols.

    A tuple, so memo and expression keys holding it hash and compare in C.
    """

    N: int
    parts: tuple  # tuple[tuple[str, int], ...] sorted by symbol name

    @classmethod
    def symbol(cls, name: str, N: int) -> "Momentum":
        """A formal momentum vector with N components, independent of all others."""
        return cls(N, ((name, 1),))

    def __add__(self, other):
        """The sum, by the monomial product's merge of sorted pairs, which
        drops a zero coefficient."""
        if other.N != self.N:
            raise ValueError("momenta live in different dimensions")
        return Momentum(self.N, _mono_mul(self.parts, other.parts))

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
            return f"delta({self.arg.render()})"
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
    inversions = sum(x > y for x, y in itertools.combinations(indices, 2))
    return (-1) ** inversions, tuple(sorted(indices))


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


class Expression:
    """Finite sum of (polynomial coefficient) x (generator), keyed by
    :class:`GeneratorTerm`.

    The scalar species "1" at argument a is delta(a), the value CONCRETE_3D
    gives a three-chain.  Held in normal form: zero coefficients pruned,
    antisymmetric index blocks normalized at construction.  Equality is
    structural equality of normal forms.

    Immutable by contract: ``+``, :func:`bracket`, :func:`jacobiator`,
    :func:`reduce_closedness` and :func:`redefine` may return the shared
    zero ``_ZERO``, a memo entry or their own argument, so no caller may
    mutate a result's terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                if not poly.is_zero:
                    self.terms[key] = poly

    @classmethod
    def _of(cls, terms: dict) -> "Expression":
        """Wrap a dict already free of zero coefficients, without a copy;
        an empty dict gives the shared ``_ZERO``."""
        if not terms:
            return _ZERO
        out = object.__new__(cls)
        out.terms = terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Expression") -> "Expression":
        terms = dict(self.terms)
        _add_into(terms, other.terms.items())
        return Expression._of(terms)

    def __neg__(self) -> "Expression":
        return Expression({k: -p for k, p in self.terms.items()})

    def __sub__(self, other: "Expression") -> "Expression":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, hash(p)) for k, p in self.terms.items()))

    def discharged(self) -> "Expression":
        """Evaluate delta-supported coefficients on the delta's support.

        Each coefficient multiplying delta(a) is reduced modulo the ideal
        generated by the components of a (the substitution that sets a = 0);
        the deltas are kept.  Terms whose coefficient vanishes on support
        drop out.
        """
        out = {}
        for term, poly in self.terms.items():
            if term.species == "1" and not term.arg.is_zero:
                poly = poly.substitute(_ideal_substitution(term.arg))
            out[term] = poly
        return Expression(out)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        lines = []
        for term in sorted(self.terms, key=GeneratorTerm.sort_key):
            cs = format_poly(self.terms[term])
            if " + " in cs or " - " in cs:
                cs = f"({cs})"
            lines.append(f"{cs}*{term.render()}")
        return "\n".join(lines)

    def __repr__(self):
        return f"<Expression {self.render()!r}>"


def _single(species, adjoint, sidx, arg, coeff=None) -> Expression:
    sign, term = _normal_term(species, adjoint, sidx, arg)
    if term is None:
        return Expression()
    poly = Poly.const(sign) if coeff is None else coeff * sign
    return Expression({term: poly})


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

    The adjoint sums read the rows ``sc.f_rows`` and ``sc.d_rows``.  The
    table memoises its elementary brackets in ``_memo``, keyed by the
    generator pair in canonical order only (see :func:`bracket`); every
    zero entry is the one shared empty expression.
    """

    def __init__(self, name: str, sc: StructureConstants, N: int = 3, chain_mode: str = "FORMAL"):
        if name not in TABLE_NAMES:
            raise ValueError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")
        if chain_mode not in ("FORMAL", "CONCRETE_3D"):
            raise ValueError(f"unknown chain_mode {chain_mode!r}")
        if N < 1:
            raise ValueError("N must be positive")
        if "S3" in TABLE_SPECIES[name] and N < 2:
            raise ValueError(f"{name} table needs N >= 2 (the three-chain species is trivial only from N = 2 up)")
        if chain_mode == "CONCRETE_3D":
            if N != 3:
                raise ValueError("CONCRETE_3D chain mode requires N = 3")
            if "S3" not in TABLE_SPECIES[name]:
                raise ValueError(f"{name} table has no three-chain to concretize")
        self.name = name
        self.sc = sc
        self.N = N
        self.chain_mode = chain_mode
        self.species = TABLE_SPECIES[name]
        # what bracket's species check reads: the table's species and delta
        self._allowed = frozenset(self.species) | {"1"}
        # elementary brackets, keyed (t1, t2) in canonical order only
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
        if species == "S3" and self.table.chain_mode == "CONCRETE_3D":
            # S3^{123}(a) -> +delta(a); other index orders already folded in
            term = GeneratorTerm("1", 0, (), arg)
        _add_into(self.terms, ((term, coeff),))

    def expression(self) -> Expression:
        return Expression._of(self.terms)


# the one shared zero, which Expression._of gives for every empty result: so
# every zero elementary bracket, and every zero that bracket, jacobiator,
# reduce_closedness or redefine returns, is this object; never mutated
_ZERO = Expression()


def _add_into(terms: dict, items) -> None:
    """Add (key, poly) pairs into ``terms``, keeping it free of zeros."""
    for key, poly in items:
        acc = terms.get(key)
        if acc is not None:
            poly = acc + poly
        if poly.is_zero:
            terms.pop(key, None)
        else:
            terms[key] = poly


def _elementary(table: AlgebraTable, t1: GeneratorTerm, t2: GeneratorTerm) -> Expression:
    """Bracket of two unit generators, t1 before t2 in canonical species
    order, computed and stored in the table's memo."""
    s1, s2 = t1.species, t2.species
    m, n = t1.arg, t2.arg
    tot = m + n
    out = _Out(table)

    if s1 == "J" and s2 in _ADJOINT_SPECIES:
        # the adjoint action [J^a, X^b] = f^{abc} X^c, then the extension
        # terms that the table's species allow
        a, b = t1.adjoint, t2.adjoint
        for c, v in table.sc.f_rows.get((a, b), ()):
            out.add(s2, c, t2.sidx, tot, v)
        if s2 == "J" and "G" not in table.species:
            for c, v in table.sc.d_rows.get((a, b), ()):
                for mu in range(1, table.N + 1):
                    for nu in range(1, table.N + 1):
                        if mu != nu:
                            out.add("H", c, (mu, nu), tot, m.component(mu) * n.component(nu) * v)
        if s2 == "J" and a == b and "S1" in table.species:
            for rho in range(1, table.N + 1):
                out.add("S1", 0, (rho,), tot, -_K * m.component(rho))
        if s2 == "H" and a == b and "S3" in table.species:
            mu, nu = t2.sidx
            for rho in range(1, table.N + 1):
                out.add("S3", 0, (mu, nu, rho), tot, m.component(rho))
    elif s1 == "G" and s2 == "G":
        for c, v in table.sc.d_rows.get((t1.adjoint, t2.adjoint), ()):
            out.add("H", c, t1.sidx + t2.sidx, tot, v)
    elif s1 == "L" and s2 == "L":
        mu, nu = t1.sidx[0], t2.sidx[0]
        out.add("L", 0, (nu,), tot, n.component(mu))
        out.add("L", 0, (mu,), tot, -m.component(nu))
        cocycle = _C1 * m.component(nu) * n.component(mu) + _C2 * m.component(mu) * n.component(nu)
        for rho in range(1, table.N + 1):
            out.add("S1", 0, (rho,), tot, cocycle * m.component(rho))
    elif s1 == "L":
        # the Lie derivative: n_mu X(m+n), plus m_sig X(m+n) with each
        # spacetime index of X that equals mu moved to sig
        mu, sidx = t1.sidx[0], t2.sidx
        out.add(s2, t2.adjoint, sidx, tot, n.component(mu))
        for i, nu in enumerate(sidx):
            if nu == mu:
                for sig in range(1, table.N + 1):
                    out.add(s2, t2.adjoint, sidx[:i] + (sig,) + sidx[i + 1:], tot, m.component(sig))
    # every other ordered pair (chains against non-L, H against G/H, ...) is zero

    expr = table._memo[t1, t2] = out.expression()
    return expr


def bracket(table: AlgebraTable, X: Expression, Y: Expression) -> Expression:
    """Bilinear antisymmetric bracket per the table's defining relations.

    Both arguments are checked against the table's species before any term
    is bracketed, so an undefined species is rejected on either side even
    when the other side is zero.  A zero result is the shared ``_ZERO``.

    Each generator pair is looked up in the memo as (t1, t2), then as
    (t2, t1) with sign -1; only when both miss are the sort keys compared
    and the elementary bracket computed, in canonical order.  The memo
    holds canonical keys only, so a hit in either order is the one entry.
    """
    allowed = table._allowed
    for term in itertools.chain(X.terms, Y.terms):
        if term.species not in allowed:
            raise TableMismatchError(f"species {term.species} is not defined by table {table.name}")
    if not X.terms or not Y.terms:
        return _ZERO
    memo = table._memo
    terms: dict = {}
    for t1, c1 in X.terms.items():
        if t1.species == "1":
            continue  # deltas are central
        for t2, c2 in Y.terms.items():
            if t2.species == "1":
                continue
            base, sign = memo.get((t1, t2)), 1
            if base is None:
                base, sign = memo.get((t2, t1)), -1
                if base is None:
                    if t1.sort_key() <= t2.sort_key():
                        base, sign = _elementary(table, t1, t2), 1
                    else:
                        base = _elementary(table, t2, t1)
            if not base.terms:
                continue
            coeff = c1 * c2 if sign == 1 else -(c1 * c2)
            # _add_into's sum, inlined: a call per generator pair slowed the
            # su(3), N = 3 table sweeps by about 4 % (11 of 12 paired runs)
            for key, poly in base.terms.items():
                acc = terms.get(key)
                val = poly * coeff
                if acc is not None:
                    val = acc + val
                if val.is_zero:
                    terms.pop(key, None)
                else:
                    terms[key] = val
    return Expression._of(terms)


# -- closedness reduction ------------------------------------------------------


def _pivot_division(comps: dict, arg: Momentum, N: int) -> dict:
    """Canonical representative of a one-chain coefficient vector modulo the
    rank-one relation submodule spanned by the components of ``arg``.

    ``arg`` is nonzero, so every component is, and the pivot is the last one.
    """
    avec = {mu: arg.component(mu) for mu in range(1, N + 1)}
    # divide by the component variable of the alphabetically last symbol
    lead_var = f"{arg.parts[-1][0]}_{N}"
    q, rem = comps.get(N, Poly()).divmod_linear(avec[N], lead_var)
    out = {}
    for mu in range(1, N + 1):
        red = rem if mu == N else comps.get(mu, Poly()) - q * avec[mu]
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

    One-chain groups (fixed argument) are reduced to the canonical
    representative modulo multiples of the argument vector, so any
    coefficient pattern q * a_mu against S1^mu(a) drops out exactly.  At
    N = 3 the single three-chain component is reduced modulo the ideal of
    the argument components; at N >= 4 a whole three-chain group is deleted
    when it lies in the relation submodule (wedge test), else left intact.
    An expression with no chain term to reduce is returned as it is.
    """
    out: dict = {}
    s1_groups: dict = {}
    s3_groups: dict = {}
    for term, poly in X.terms.items():
        if term.species == "S1" and not term.arg.is_zero:
            s1_groups.setdefault(term.arg, {})[term.sidx[0]] = poly
        elif term.species == "S3" and not term.arg.is_zero:
            s3_groups.setdefault(term.arg, {})[term.sidx] = poly
        else:
            out[term] = poly
    if not s1_groups and not s3_groups:
        return X

    for arg, comps in s1_groups.items():
        for mu, poly in _pivot_division(comps, arg, arg.N).items():
            out[GeneratorTerm("S1", 0, (mu,), arg)] = poly

    for arg, comps in s3_groups.items():
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
            out[GeneratorTerm("S3", 0, tri, arg)] = poly

    return Expression._of(out)


def jacobiator(table: AlgebraTable, X: Expression, Y: Expression, Z: Expression) -> Expression:
    """[X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]], reduced modulo closedness."""
    terms: dict = {}
    _add_into(terms, bracket(table, X, bracket(table, Y, Z)).terms.items())
    _add_into(terms, bracket(table, Y, bracket(table, Z, X)).terms.items())
    _add_into(terms, bracket(table, Z, bracket(table, X, Y)).terms.items())
    return reduce_closedness(Expression._of(terms))


def redefine(X: Expression) -> Expression:
    """The current redefinition J^a(m) -> J^a(m) + m_mu G^{a mu}(m)."""
    pairs = []
    for term, poly in X.terms.items():
        pairs.append((term, poly))
        if term.species == "J":
            for mu in range(1, term.arg.N + 1):
                pairs += _single("G", term.adjoint, (mu,), term.arg, poly * term.arg.component(mu)).terms.items()
    terms: dict = {}
    _add_into(terms, pairs)
    return Expression._of(terms)


# -- generator sweeps ----------------------------------------------------------


def all_generators(table: AlgebraTable, sym: Momentum) -> list[tuple[str, Expression]]:
    """Every generator of the table at the momentum symbol ``sym``, labelled."""
    if sym.N != table.N:
        raise ValueError("symbol dimension differs from table dimension")
    gens = [generator(label, sym) for label in generator_labels(table.species, table.sc.dim, table.N)]
    return [(_generator(x).render(), x) for x in gens]


class SymbolicReport(NamedTuple):
    """How many items a symbolic sweep checked, and its first failures as
    (label, detail) pairs in sweep order.  An EMB1 obstruction sweep also
    counts its (J, G, G) triples and, in CONCRETE_3D mode, records whether
    any of their Jacobiators survives on the delta support."""

    checked: int
    failures: list
    jgg_checked: int = 0
    nonzero_on_support: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def other_checked(self) -> int:
        return self.checked - self.jgg_checked

    @property
    def triples_checked(self) -> int:
        # verify-tables' "triples" row reads this name: perfbench's tamper test edits that line
        return self.checked


def _triples(table: AlgebraTable):
    """Unordered generator triples (with repetition) at symbols m, n and r,
    as (label, expression) pairs in the order of ``all_generators``."""
    gens = [all_generators(table, Momentum.symbol(s, table.N)) for s in ("m", "n", "r")]
    for i, j, k in itertools.combinations_with_replacement(range(len(gens[0])), 3):
        yield gens[0][i], gens[1][j], gens[2][k]


def _generator(expr: Expression) -> GeneratorTerm:
    """The generator of a single-generator expression such as J(a, m)."""
    return next(iter(expr.terms))


# Sweep reports list at most this many failing triples, in sweep order.
_FAILURES_LISTED = 20


def _sweep(table: AlgebraTable, obstruction: bool) -> SymbolicReport:
    """Compare every unordered triple's reduced Jacobiator with its expected value.

    The expected value is zero, except that with ``obstruction`` each
    (J, G, G) triple must equal :func:`emb1_expected_obstruction`.  In
    CONCRETE_3D mode both sides are evaluated on the delta support first.
    """
    concrete = table.chain_mode == "CONCRETE_3D"
    count = jgg = 0
    failures: list = []
    on_support = False
    for (lab_x, x), (lab_y, y), (lab_z, z) in _triples(table):
        jac = jacobiator(table, x, y, z)
        if concrete:
            jac = jac.discharged()
        count += 1
        want = _ZERO
        is_jgg = obstruction and (_generator(x).species, _generator(y).species, _generator(z).species) == ("J", "G", "G")
        if is_jgg:
            jgg += 1
            want = emb1_expected_obstruction(table, x, y, z)
            if concrete:
                want = want.discharged()
                on_support = on_support or not jac.is_zero
        if jac.terms != want.terms and len(failures) < _FAILURES_LISTED:
            if is_jgg:
                detail = "got:\n" + jac.render() + "\nwant:\n" + want.render()
            else:
                detail = ("expected zero, got:\n" if obstruction else "") + jac.render()
            failures.append((f"({lab_x}, {lab_y}, {lab_z})", detail))
    return SymbolicReport(count, failures, jgg, on_support)


def jacobi_sweep(table: AlgebraTable) -> SymbolicReport:
    """Exhaustive Jacobiator check over unordered generator triples.

    The bracket is antisymmetric by construction, so the Jacobiator is
    totally antisymmetric and unordered triples (with repetition) cover all
    orderings.  In CONCRETE_3D mode delta-supported coefficients are
    evaluated on support before the zero test.
    """
    return _sweep(table, obstruction=False)


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


def emb1_obstruction(table: AlgebraTable) -> SymbolicReport:
    """Check that EMB1's Jacobiator is exactly the (J, G, G) obstruction.

    Every triple other than (J, G, G)-type must have zero Jacobiator; each
    (J^a(m), G^{b mu}(n), G^{c nu}(r)) triple must equal
    d^{abc} m_rho S3^{mu nu rho}(m+n+r) exactly.  In CONCRETE_3D mode the
    report records whether any obstruction survives on the support (it
    does iff d != 0).
    """
    if table.name != "EMB1":
        raise ValueError("obstruction sweep is defined for the EMB1 table")
    return _sweep(table, obstruction=True)


# -- embedding checks ----------------------------------------------------------


# the (source, target) table pairs the redefinition embeds one into the other
EMBEDDINGS = (("CLASSICAL_MF", "EMB2"), ("MF", "EMB1"))


def verify_embedding(source: AlgebraTable, target: AlgebraTable) -> SymbolicReport:
    """Exact check that the redefinition intertwines source and target brackets.

    For every pair of source generators X, Y the expressions
    bracket(target, redefine(X), redefine(Y)) and redefine(bracket(source, X, Y))
    must agree exactly.
    """
    if (source.name, target.name) not in EMBEDDINGS:
        raise ValueError(
            f"unsupported pair ({source.name}, {target.name}); "
            f"supported source -> target pairs: {sorted(EMBEDDINGS)}"
        )
    if source.sc is not target.sc and (source.sc.f != target.sc.f or source.sc.d != target.sc.d):
        raise ValueError("source and target must share structure constants")
    if source.N != target.N:
        raise ValueError("source and target must share N")
    xs = all_generators(source, Momentum.symbol("m", source.N))
    ys = all_generators(source, Momentum.symbol("n", source.N))
    checked = 0
    failures: list = []
    for i, (lab_x, x) in enumerate(xs):
        rx = redefine(x)
        for lab_y, y in ys[i:]:
            lhs = bracket(target, rx, redefine(y))
            rhs = redefine(bracket(source, x, y))
            checked += 1
            if lhs != rhs and len(failures) < _FAILURES_LISTED:
                failures.append((f"[{lab_x}, {lab_y}]", "difference:\n" + (lhs - rhs).render()))
    return SymbolicReport(checked, failures)
