"""Numeric truncated-Fock realization of the lattice current algebra.

The trajectory sector is a commuting canonical pair of circle fields per
spacetime direction: oscillator modes q^mu_k, p_{mu,k} (0 < |k| <= M) with

    [p_{mu,j}, q^nu_k] = delta^nu_mu delta_{j+k,0},

plus a zero-mode momentum lattice: states carry a label w in Z^N clipped to
|w_mu| <= P, the vertex zero mode shifts w by m, and p_{mu,0}|w> = i w_mu |w>.
Vertex modes V_{m,j} (Fourier modes of e^{imq}) act exactly on a basis state:
the annihilator content is bounded by the state's p occupation and the
creator content by the mode-matching constraint, so no series truncation is
involved; only the basis itself is truncated.

Dressing the exact current bilinears of :mod:`curralg.wick_currents` with
vertex modes realizes the lattice families (J, G, H dressed, the closed
one-chain S1, and the dressed gl(N)+momentum family L).  Every realized
generator preserves the total excitation level, so commutator identities
hold to float precision on any state inside the cutoffs; deviations appear
only where the momentum window or the current-sector particle cap clips an
intermediate state, and those shrink as the truncation stage grows.

Translation rule: every realized operator shifts the lattice label w by
its momentum m, and but for one term of L its amplitudes do not depend on w,
so a column is its kernel at w + m.  The kernel of an operator on an
oscillator key (qp_key, cur_key) is its projected column on
(qp_key, 0, cur_key) with the lattice label taken out, built once and kept
under that key's index.  The column on (qp_key, w, cur_key) puts every
kernel term at w + m, and is empty when w + m leaves the window, since all
its terms land on that one point.
The term that depends on w is L_mu's zero mode w_mu V_{m,0}, which vanishes
at w = 0: L applies it last, and a column at w_mu != 0 adds w_mu times
V_{m,0}'s kernel last.  Built at amplitude 1.0 and kept in column order, a
kernel column is the projected exact application bit for bit.

Each space also memoises the per-key terms the kernels are built from: the
current bilinear terms per (label, mode, cur_key), read off
:func:`curralg.fock_oracle.apply_body` with each exact amplitude rounded
once, and the vertex terms per (m, j, qp_key), in emission order and not
merged.  A state adds ``amp * coeff`` per term in list order, so memoised
and recomputed columns agree bit for bit.

Each space indexes its basis: :meth:`VertexSpace.index` gives a basis key
(qp_key, w, cur_key) one ``int`` the first time it meets the key, and
:meth:`VertexSpace.key` maps it back.  Columns, the states they sum into
and the stores that hold them are over these indices, so a hot lookup
hashes an ``int``, not a key nested three tuples deep.  The entry points
take and return basis keys, and map each probe to its index once.

The kernels and the projected columns live per space and operator, keyed
by index.  The operator key is the only description of an operator, and
:meth:`VertexSpace.apply` maps it to the operator.  A column depends on the
operator and the space alone, so every generator set on one space, and
every table sweep and charge fit run on it, computes each kernel and each
column once.  Both are stored flat, as immutable tuples: a kernel as
(qp_key, cur_key, amp, ...), a column as (index, amp, ...), the empty one
as ``()``.  Most columns hold one or two terms, so a dict per column would
cost more than its terms.  Every sum over stored columns runs through one
accumulator, :func:`curralg.fock_oracle._add_column`, which the oracle's
memo shares and which repeats :func:`curralg.fock_oracle.state_add`'s
operations.  A sum runs the same operations in the same order over indices
as over keys, so every float and every dict order is the one the keys
would give.

A numeric table sweep makes the symbolic generators once per generator
pair, the closed form's maps once per momentum pair, and the operator
handles once per both.  Per probe it runs only the commutator column, the
formal bracket, its terms' columns and their distance; the bracket depends
on the pair alone, but its call count is pinned until ROADMAP item 2.

Phase convention: the basis is rephased by i^(n_q - n_p), with n_q and
n_p the state's trajectory q and p quanta.  This diagonal similarity leaves
every commutator and fitted charge as it is, and takes the factors i of
the q creators, the p annihilators and the zero mode p_{mu,0} (and the -i
of the momentum part of L) out of every amplitude, so all amplitudes are
real.  This is the only module that computes in floating point (real
doubles); everything upstream is exact.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import add, mul
from typing import Callable, NamedTuple, Optional

from . import formal_algebra as fa
from .fock_oracle import _add_at, _add_column, _key_with, _osc_key, apply_body, key_level, key_level_npart, state_add
from .lie_core import StructureConstants
from .wick_currents import CurrentBody, build_currents, measure_level

__all__ = [
    "TruncationSpec",
    "VACUUM_QP",
    "BoundaryError",
    "FitError",
    "OperatorMatrix",
    "VertexSpace",
    "RealizedGenerators",
    "default_probe_keys",
    "p_slot_key",
    "q_slot_key",
    "measure_vertex_level",
    "measure_c1_c2",
    "ChargeFit",
    "default_charges",
    "check_table_numeric",
    "NUMERIC_TABLES",
    "stage_deviations",
    "BracketDeviation",
]

_TRAJ = "traj"
# Fits of exact-in-principle float amplitudes: residuals and probe spreads
# above this are failures.
_FIT_TOL = 1e-9


class BoundaryError(ValueError):
    """A requested momentum cannot be represented inside the lattice window."""


class FitError(ValueError):
    """A charge fit found no usable matrix element or an inconsistent column."""


class TruncationSpec:
    """Cutoffs for the truncated Fock space.

    L bounds the total excitation level (trajectory plus current sector),
    P the zero-mode momentum lattice (|w_mu| <= P), M the circle-mode window
    of the trajectory oscillators (0 < |k| <= M).  ``current_cap`` bounds the
    current-sector particle number; a level bound alone keeps infinitely
    many current zero-mode states, so the cap is part of the truncation.
    Construction checks every cutoff; two specs are equal when their
    cutoffs are.
    """

    __slots__ = ("N", "L", "P", "M", "current_cap")

    def __init__(self, N: int = 2, L: int = 4, P: int = 2, M: int = 2, current_cap: int = 3):
        if N < 1:
            raise ValueError("N must be at least 1")
        if L < 1 or P < 1 or M < 1:
            raise ValueError("L, P, M must be at least 1")
        if current_cap < 2:
            raise ValueError("current_cap below 2 leaves no room for a bilinear")
        self.N, self.L, self.P, self.M, self.current_cap = N, L, P, M, current_cap

    def _cutoffs(self) -> tuple:
        return (self.N, self.L, self.P, self.M, self.current_cap)

    def __eq__(self, other):
        if not isinstance(other, TruncationSpec):
            return NotImplemented
        return self._cutoffs() == other._cutoffs()

    def __hash__(self):
        return hash(self._cutoffs())

    def __repr__(self):
        return "TruncationSpec(N={}, L={}, P={}, M={}, current_cap={})".format(*self._cutoffs())

    def scaled_stage(self) -> "TruncationSpec":
        """The next truncation stage: every cutoff that can bite grows."""
        return TruncationSpec(self.N, self.L + 2, self.P + 1, self.M, self.current_cap + 2)


# -- basis bookkeeping ----------------------------------------------------
# A full basis key is (qp_key, w, cur_key): trajectory oscillator
# occupations, the lattice point, and current-sector occupations.  Both
# occupation keys use the slot conventions of curralg.fock_oracle, whose
# oscillator core this module calls: a q slot is ((traj, mu), False, -k)
# and a p slot ((traj, mu), True, -k), k >= 1, so the oscillator CCR maps
# onto the same creator/annihilator amplitude rules.

VACUUM_QP: tuple = ()


@lru_cache(maxsize=None)
def _creator_multisets(N: int, M: int, level: int) -> tuple:
    """All q-creator multisets {(mu, k): r} with sum k*r == level, k <= M.

    In the order of their count vectors over the kinds (mu, k), the first
    kind most significant.
    """
    ks = range(1, M + 1)
    # one direction's count vectors over k, with their levels, kept within ``level``
    one = []
    for rs in itertools.product(*(range(level // k + 1) for k in ks)):
        lv = sum(k * r for k, r in zip(ks, rs))
        if lv <= level:
            one.append((rs, lv))
    return tuple(
        tuple(((mu, k), r) for mu, (rs, _) in enumerate(picks, 1) for k, r in zip(ks, rs) if r)
        for picks in itertools.product(one, repeat=N)
        if sum(lv for _, lv in picks) == level
    )


class VertexSpace:
    """Shared context: structure constants, current bodies, and the cutoffs."""

    def __init__(self, sc: StructureConstants, spec: TruncationSpec):
        self.sc = sc
        self.spec = spec
        self.bodies = build_currents(sc, spec.N)
        self.labels = frozenset(fa.generator_labels(("L", "J", "G", "H", "S1"), sc.dim, spec.N))
        # Per-key term memos.  Their entries depend on sc, N and M, so they
        # belong to this space; see apply_current and apply_vertex.
        self._current_memo: dict = {}  # (label, mode, cur_key) -> [(new_cur_key, factor)]
        self._vertex_memo: dict = {}  # (m, j, qp_key) -> [(new_qp_key, coeff)]
        # Column kernels: operator key -> {index of a w = 0 key: kernel}, the
        # projected columns: operator key -> {index: column} (see OperatorMatrix),
        # and the basis index, which grows as keys are met (see index).
        self._kernels: dict = {}
        self._columns: dict = {}
        self._index: dict = {}  # basis key -> index
        self._keys: list = []  # index -> the one stored copy of its basis key
        self._zero = (0,) * spec.N

    # -- basis index ---------------------------------------------------------

    def index(self, key: tuple) -> int:
        """The index of the basis key ``key``, given the first time the space meets it.

        Each key gets exactly one index, and ``key(index(k))`` is the space's
        one stored copy of ``k``.  A key whose lattice label does not have N
        components is refused before it gets one.
        """
        i = self._index.get(key)
        if i is None:
            if len(key[1]) != self.spec.N:
                raise ValueError(f"basis key {key} has a lattice label of the wrong dimension")
            i = self._index[key] = len(self._keys)
            self._keys.append(key)
        return i

    def key(self, i: int) -> tuple:
        """The basis key of the index ``i``."""
        return self._keys[i]

    # -- truncation --------------------------------------------------------

    def in_window(self, w: tuple) -> bool:
        """Whether the lattice point w lies in the window |w_mu| <= P."""
        return max(map(abs, w)) <= self.spec.P

    def project(self, state: dict) -> dict:
        sp = self.spec
        out = {}
        for key, amp in state.items():
            qp_key, w, cur_key = key
            if not self.in_window(w):
                continue
            level, npart = key_level_npart(cur_key)
            if key_level(qp_key) + level > sp.L or npart > sp.current_cap:
                continue
            out[key] = amp
        return out

    # -- trajectory oscillators ---------------------------------------------

    def _qp_osc(self, state: dict, mu: int, is_p: bool, mode: int) -> dict:
        """One oscillator q^mu_mode (is_p False) or p_{mu,mode} (is_p True); mode != 0."""
        out: dict = {}
        fl = (_TRAJ, mu)
        for (qp_key, w, cur_key), amp in state.items():
            hit = _osc_key(qp_key, fl, is_p, mode)
            if hit is not None:
                new, factor = hit
                _add_at(out, (new, w, cur_key), amp * factor)
        return out

    def apply_vertex(self, m: tuple, j: int, state: dict) -> dict:
        """V_{m,j}, the mode-j part of the vertex factor for lattice vector m.

        Exact per state: the trajectory terms of each key come from
        :meth:`_vertex_terms`, once per (m, j, qp_key); the lattice label
        shifts by m.
        """
        if len(m) != self.spec.N:
            raise ValueError("lattice vector has wrong dimension")
        memo = self._vertex_memo
        out: dict = {}
        for (qp_key, w, cur_key), amp in state.items():
            terms = memo.get((m, j, qp_key))
            if terms is None:
                terms = memo[m, j, qp_key] = self._vertex_terms(m, j, qp_key)
            w2 = tuple(a + b for a, b in zip(w, m))
            for key2, coeff in terms:
                _add_at(out, (key2, w2, cur_key), amp * coeff)
        return out

    def _vertex_terms(self, m: tuple, j: int, qp_key: tuple) -> list:
        """The (new_qp_key, coeff) terms of V_{m,j} on one trajectory key.

        Enumerate p-annihilator submultisets, then q-creator multisets whose
        level matches the mode constraint.  Coefficients m_mu^r / r! on both
        sides (the factors i^r are rephased away).  Terms are listed in
        emission order and not merged, so the caller's float sums run in a
        fixed order.
        """
        N, M = self.spec.N, self.spec.M
        # per p slot, each annihilator count r <= cnt with m_mu^r / r! and the
        # falling product -cnt * -(cnt - 1) * ... (q_k on a p slot: -count per quantum)
        choices = []
        for slot, cnt in qp_key:
            if slot[1]:
                mu, falls = slot[0][1], itertools.accumulate(range(-cnt, 0), mul, initial=1.0)
                choices.append([(slot, r, m[mu - 1] ** r / math.factorial(r), f) for r, f in enumerate(falls)])
        terms: list = []
        # annihilator count vectors, the first p slot most significant
        for picks in itertools.product(*choices):
            coeff, key, level = 1.0, qp_key, -j
            for slot, r, power, fall in picks:
                if r:
                    coeff = coeff * power * fall
                    key = _key_with(key, slot, -r)
                    level -= slot[2] * r
            if coeff == 0 or level < 0:
                continue
            for lam in _creator_multisets(N, M, level):
                c2, key2 = coeff, key
                for (mu, k), r in lam:
                    c2 *= m[mu - 1] ** r / math.factorial(r)
                    if c2 == 0:
                        break
                    key2 = _key_with(key2, ((_TRAJ, mu), False, -k), r)
                else:
                    terms.append((key2, c2))
        return terms

    # -- current sector -----------------------------------------------------

    def apply_current(self, label: tuple, mode: int, state: dict) -> dict:
        """One exact current bilinear mode on the current sector.

        The terms of each key come from :func:`curralg.fock_oracle.apply_body`,
        once per (label, mode, cur_key), each exact amplitude rounded once to
        a double.
        """
        body: CurrentBody = self.bodies[label]
        memo = self._current_memo
        out: dict = {}
        for (qp_key, w, cur_key), amp in state.items():
            terms = memo.get((label, mode, cur_key))
            if terms is None:
                exact = apply_body({cur_key: 1}, body, mode)
                terms = memo[label, mode, cur_key] = [(key2, float(amp)) for key2, amp in exact.items()]
            for new_cur, factor in terms:
                _add_at(out, (qp_key, w, new_cur), amp * factor)
        return out

    # -- realized generators --------------------------------------------------

    def apply(self, op_key: tuple, key: tuple) -> dict:
        """Apply the operator ``op_key`` names (see :class:`OperatorMatrix`) to the basis key ``key``."""
        head, m, arg = op_key
        if head == "V":
            return self.apply_vertex(m, arg, {key: 1.0})
        if head[0] == "S1":
            return self.apply_S1(head[1], m, key)
        if head[0] == "L":
            return self.apply_L(head[1], m, key, include_T=arg)
        return self._dressed_current(head, m, key)

    def _dressed_current(self, label: tuple, m: tuple, key: tuple) -> dict:
        """sum_j V_{m,j} C_{-j} on one basis key, for a current family C; a finite sum."""
        out: dict = {}
        unit = {key: 1.0}
        lo = -key_level(key[2])
        hi = key_level(key[0])  # p annihilation bounds the positive modes
        for j in range(lo, hi + 1):
            mid = self.apply_current(label, -j, unit)
            if mid:
                state_add(out, self.apply_vertex(m, j, mid))
        return out

    def apply_S1(self, rho: int, m: tuple, key: tuple) -> dict:
        """The closed one-chain on one basis key: sum_{k != 0} (-ik) q^rho_k V_{m,-k}."""
        out: dict = {}
        unit = {key: 1.0}
        for k in range(-self.spec.M, self.spec.M + 1):
            if k == 0:
                continue
            mid = self.apply_vertex(m, -k, unit)
            if mid:
                state_add(out, self._qp_osc(mid, rho, False, k), k)
        return out

    def apply_L(self, mu: int, m: tuple, key: tuple, include_T: bool = True) -> dict:
        """L_mu(m) on one basis key: the dressed momentum part, the current part, then the zero-mode term.

        The momentum part is -i :V_m p_mu: with p's creation modes left of
        the vertex factor and annihilation modes right; in the rephased basis
        the -i drops out.  The current part is m_nu sum_j V_{m,j} T^nu_{mu,-j}.
        p's zero mode acts on the undressed lattice label (diagonal value
        i w_mu, whose i the rephasing also takes out) before the shift, which
        gives w_mu V_{m,0}, the one term of any operator here that depends on
        w.  It is added last, so a column can take it from V_{m,0}'s kernel
        (see :class:`OperatorMatrix`).
        """
        out: dict = {}
        unit = {key: 1.0}
        for k in range(1, self.spec.M + 1):
            # p_{mu,-k} V_{m,k}: vertex first, then the p creator
            mid = self.apply_vertex(m, k, unit)
            if mid:
                state_add(out, self._qp_osc(mid, mu, True, -k))
            # V_{m,-k} p_{mu,k}: the p annihilator first
            mid = self._qp_osc(unit, mu, True, k)
            if mid:
                state_add(out, self.apply_vertex(m, -k, mid))
        if include_T:
            for nu in range(1, self.spec.N + 1):
                if m[nu - 1]:
                    state_add(out, self._dressed_current(("T", nu, mu), m, key), m[nu - 1])
        if key[1][mu - 1]:
            state_add(out, self.apply_vertex(m, 0, unit), key[1][mu - 1])
        return out

    def _placed(self, kernel: tuple, w: tuple) -> tuple:
        """A kernel's terms put at the lattice point w, as a flat column over
        basis indices; a key met here for the first time gets its index."""
        index = self.index
        out = []
        append = out.append
        i, n = 0, len(kernel)
        while i < n:  # an index loop: most kernels hold one or two terms
            append(index((kernel[i], w, kernel[i + 1])))
            append(kernel[i + 2])
            i += 3
        return tuple(out)


def _column_state(col: tuple) -> dict:
    """A flat column as a state {index: amp}, in column order."""
    it = iter(col)
    return dict(zip(it, it))


class OperatorMatrix:
    """A truncated operator held as lazily computed sparse columns.

    Columns and states are over basis indices (:meth:`VertexSpace.index`),
    so no sum or store hashes a nested key tuple.  ``column(i)`` is the
    exact application to the basis state of index ``i`` followed by
    projection onto the truncated space, so operator products compose with
    matrix semantics (project after every factor).  It is read off the
    kernel of the key's oscillator part (:meth:`kernel`), whose terms it
    puts at w + m; for L_mu at w_mu != 0 it then adds w_mu times the kernel
    of ("V", m, 0), L's zero-mode term.  It is empty when w + m leaves the
    window.  ``op_key`` is the operator, ("V", m, j) for V_{m,j} or (label,
    m, include_T) for a label in ``space.labels``, with m in the lattice
    window.  Its kernels and columns live in the space: every handle with
    the same key on one space fills the same stores.

    A column is a flat tuple (i1, amp1, i2, amp2, ...) in the order of the
    exact application, and the empty column is ``()``.  L's zero-mode term
    is merged into the kernel's terms as
    :func:`curralg.fock_oracle.state_add` would, before the column is
    flattened.  :meth:`apply` takes a flat column and returns a state dict
    {index: amp}, and every sum over columns runs through one accumulator,
    so each float is the one a column dict over basis keys would give.
    """

    def __init__(self, space: VertexSpace, op_key: tuple):
        label, m, arg = op_key
        if label not in space.labels and not (label == "V" and type(arg) is int):
            raise ValueError(f"unknown generator label {label!r}")
        if len(m) != space.spec.N:
            raise ValueError("lattice vector has wrong dimension")
        if not space.in_window(m):
            raise BoundaryError(f"momentum {m} exits the lattice window P={space.spec.P}")
        self.space = space
        self.op_key = op_key
        self._columns = space._columns.setdefault(op_key, {})
        self._kernels = space._kernels.setdefault(op_key, {})
        # L_mu's zero-mode term w_mu V_{m,0}: (mu - 1, the handle of V_{m,0}, whose kernels it reads)
        self._zero_mode = (label[1] - 1, OperatorMatrix(space, ("V", m, 0))) if label[0] == "L" else None

    def kernel(self, i: int) -> tuple:
        """The projected column on the basis key of index ``i``, a key at w = 0, memoised.

        Returned flat, as (qp_key1, cur_key1, amp1, qp_key2, ...) in column
        order, the lattice label taken out.  Every term sits at w = m, inside
        the window, so the projection filters only levels and caps, which no
        operator's w enters.  At w = 0 L's zero-mode term vanishes.
        """
        hit = self._kernels.get(i)
        if hit is None:
            space = self.space
            column = space.project(space.apply(self.op_key, space.key(i))).items()
            hit = self._kernels[i] = tuple(x for (qp2, _, cur2), amp in column for x in (qp2, cur2, amp))
        return hit

    def column(self, i: int) -> tuple:
        """The flat column on the basis key of index ``i``, over indices, memoised."""
        hit = self._columns.get(i)
        if hit is None:
            space = self.space
            qp_key, w, cur_key = space.key(i)
            w2 = tuple(map(add, w, self.op_key[1]))
            hit = ()
            if space.in_window(w2):
                # the kernel lives under the index of the key at w = 0
                i0 = space.index((qp_key, space._zero, cur_key)) if any(w) else i
                kernel = self.kernel(i0)
                hit = space._placed(kernel, w2) if kernel else ()
                if self._zero_mode is not None:
                    mu, v0 = self._zero_mode
                    if w[mu]:
                        merged = _column_state(hit)
                        _add_column(merged, space._placed(v0.kernel(i0), w2), w[mu])
                        hit = tuple(itertools.chain.from_iterable(merged.items()))
            self._columns[i] = hit
        return hit

    def apply(self, col: tuple) -> dict:
        """This matrix times a flat column, as a state; an empty column adds nothing and is skipped."""
        out: dict = {}
        for i in range(0, len(col), 2):
            hit = self.column(col[i])
            if hit:
                _add_column(out, hit, col[i + 1])
        return out

    def commutator_column(self, other: "OperatorMatrix", i: int) -> dict:
        out = self.apply(other.column(i))
        state_add(out, other.apply(self.column(i)), -1.0)
        return out


class RealizedGenerators:
    """Factory for the realized generator family over one VertexSpace.

    Labels are those of :attr:`formal_algebra.GeneratorTerm.label` for the
    species J, G, H, S1 and L; each takes a lattice vector m.  Each set keeps
    its own handle per (label, m), but the kernels and columns behind a
    handle live in the shared :class:`VertexSpace` under (label, m,
    include_T), beside its per-key term memos, so two sets on one space
    share every kernel and column.  A column is its kernel at w + m; only
    L's zero-mode term w_mu V_{m,0} depends on w, and it comes from
    V_{m,0}'s kernel in the same store (see :class:`OperatorMatrix`).
    """

    def __init__(self, space: VertexSpace, include_T: bool = True):
        self.space = space
        self.include_T = include_T
        self._memo: dict = {}

    def operator(self, label: tuple, m) -> OperatorMatrix:
        key = (label, tuple(m))
        op = self._memo.get(key)
        if op is None:  # OperatorMatrix checks the key, so only valid keys are memoised
            op = self._memo[key] = OperatorMatrix(self.space, key + (self.include_T,))
        return op


def p_slot_key(mu: int, k: int = 1) -> tuple:
    """Occupation key for a single p_{mu,-k} quantum."""
    return ((((_TRAJ, mu), True, -k), 1),)


def q_slot_key(mu: int, k: int = 1) -> tuple:
    """Occupation key for a single q^mu_{-k} quantum."""
    return ((((_TRAJ, mu), False, -k), 1),)


def default_probe_keys(space: VertexSpace) -> list:
    """A small probe set touching every sector, all inside the cutoffs."""
    N = space.spec.N
    zero = tuple(0 for _ in range(N))
    shifted = (1,) + zero[1:]
    probes = [(VACUUM_QP, zero, ()), (VACUUM_QP, shifted, ())]
    for mu in range(1, N + 1):
        probes.append((p_slot_key(mu), zero, ()))
        probes.append((q_slot_key(mu), zero, ()))
    phi1 = ((("phi", 1), False, 0), 1)
    psi1bar = ((("psi", 1, 1), True, -1), 1)
    probes.append((VACUUM_QP, zero, (phi1,)))
    probes.append((VACUUM_QP, zero, (psi1bar,)))
    probes.append((p_slot_key(1), zero, (phi1,)))
    return probes


class ChargeFit(NamedTuple):
    c1: float
    c2: float
    k_s1: float
    residual: float
    conventions: str = "cocycle fitted against (c1 m_nu n_mu + c2 m_mu n_nu) m_rho S1^rho(m+n)"


def _column_ratio(numer: dict, denom: dict) -> tuple:
    """Best single coefficient with max-norm residual of numer - c*denom."""
    ref_key = max(denom, key=lambda k: abs(denom[k]))
    c = numer.get(ref_key, 0.0) / denom[ref_key]
    return c, _column_distance(numer, {k: c * v for k, v in denom.items()})


def _fit(
    gens: RealizedGenerators,
    x: tuple,
    y: tuple,
    bilinear: list,
    reference: Callable[[tuple], tuple],
    probes: list,
    what: str,
) -> tuple:
    """Fit [x, y] plus its bilinear columns against a reference, probe by probe.

    ``x`` and ``y`` are (label, momentum) pairs of realized generators;
    ``bilinear`` lists (label, momentum, coeff) columns added to the
    commutator in that order, a term with a zero coeff dropped before its
    handle is made; ``reference(i)`` is the flat column the sum should be a
    multiple of on the probe of index ``i``.  Each probe, a basis key, is
    mapped to its index once.  A probe where both columns vanish is skipped,
    and an empty reference under a nonzero column fits c = 0 with the
    column's norm as its residual.  The probes must agree on c within _FIT_TOL.  Returns
    (c, worst residual); the caller judges the residual.
    """
    op_x = gens.operator(*x)
    op_y = gens.operator(*y)
    terms = [(gens.operator(label, r), a) for label, r, a in bilinear if a != 0]
    vals, resids = [], []
    for i in map(gens.space.index, probes):
        col = op_x.commutator_column(op_y, i)
        for op, a in terms:
            _add_column(col, op.column(i), a)
        ref = _column_state(reference(i))
        if not col and not ref:
            continue
        c, resid = _column_ratio(col, ref) if ref else (0.0, _column_distance(col, {}))
        vals.append(c)
        resids.append(resid)
    if not vals:
        raise FitError(f"no usable probe for {what}")
    if max(abs(c - vals[0]) for c in vals) > _FIT_TOL:
        raise FitError(f"{what} varies across probes: {vals}")
    return vals[0] + 0.0, max(resids)  # +0.0 folds -0.0


def _unit_pair(space: VertexSpace, what: str) -> tuple:
    """(e1, e2, e1 + e2), the momenta of the fits against m_rho S1^rho(m+n).

    With m = e1 that reference is the single column S1^1(e1 + e2).
    """
    N = space.spec.N
    if N < 2:
        raise ValueError(f"{what} needs N >= 2")
    m = (1,) + (0,) * (N - 1)
    n = (0, 1) + (0,) * (N - 2)
    return m, n, tuple(a + b for a, b in zip(m, n))


def measure_vertex_level(space: VertexSpace) -> float:
    """The current-sector level read off the realized bracket.

    Fits the central part of [Jcal^a(m), Jcal^a(n)] against
    -k delta^{ab} m_rho S1^rho(m+n) at m+n != 0 (the one-chain vanishes
    identically at zero argument, so the diagonal carries no information).
    Returns k; it must agree with wick_currents.measure_level.
    """
    m, n, r = _unit_pair(space, "the level fit")
    gens = RealizedGenerators(space)
    probe = (p_slot_key(1), tuple(0 for _ in m), ())
    # f^{11c} = 0, so the whole column is the central part
    ref = gens.operator(("S1", 1), r).column
    coeff, resid = _fit(gens, (("J", 1), m), (("J", 1), n), [], ref, [probe], "vertex level k")
    if resid > _FIT_TOL:
        raise FitError(f"level fit residual {resid} too large")
    return -coeff + 0.0  # +0.0 folds the -0.0 of a zero level


def measure_c1_c2(space: VertexSpace, include_T: bool = True) -> ChargeFit:
    """Fit the cocycle of the realized L family.

    [L_mu(m), L_nu(n)] minus its bilinear part must be proportional to
    m_rho S1^rho(m+n) with coefficient (c1 m_nu n_mu + c2 m_mu n_nu).
    With m = e_1, n = e_2 the index pair (mu,nu) = (2,1) isolates c1 and
    (1,2) isolates c2.  Requires N >= 2.
    """
    m, n, r = _unit_pair(space, "separating c1 from c2")
    gens = RealizedGenerators(space, include_T=include_T)
    zero = tuple(0 for _ in m)
    probes = [(p_slot_key(1), zero, ()), (p_slot_key(2), zero, ())]
    ref = gens.operator(("S1", 1), r).column

    def cocycle(mu: int, nu: int, what: str) -> tuple:
        # subtract the bilinear part: n_mu L_nu(m+n) - m_nu L_mu(m+n)
        bilinear = [(("L", nu), r, -n[mu - 1]), (("L", mu), r, m[nu - 1])]
        return _fit(gens, (("L", mu), m), (("L", nu), n), bilinear, ref, probes, what)

    # (mu,nu)=(2,1): pattern = c1 * m_1 n_2 = c1;  (1,2): pattern = c2
    c1, res1 = cocycle(2, 1, "c1")
    c2, res2 = cocycle(1, 2, "c2")
    k_s1 = measure_vertex_level(space)
    return ChargeFit(c1=c1, c2=c2, k_s1=k_s1, residual=max(res1, res2))


class BracketDeviation(NamedTuple):
    """Worst deviation of one realized bracket from its closed form."""

    label1: tuple
    label2: tuple
    m: tuple
    n: tuple
    deviation: float
    probe: tuple = ()


class _BracketAt:
    """The probe-free part of [label1(m), label2(n)]: symbolic generators,
    operator handles, and the closed form's maps (see :func:`_closed_form_maps`)."""

    __slots__ = ("x", "y", "op_x", "op_y", "vectors", "assignment")

    def __init__(self, x, y, op_x: OperatorMatrix, op_y: OperatorMatrix, vectors: dict, assignment: dict):
        self.x, self.y, self.op_x, self.op_y, self.vectors, self.assignment = x, y, op_x, op_y, vectors, assignment


def _closed_form_maps(charges: dict, m: tuple, n: tuple) -> tuple:
    """(vectors, assignment) at the numeric m, n: the symbols m, n as vectors,
    and the charges plus the components m_1..m_N, n_1..n_N as values."""
    names = [f"{symbol}_{mu}" for symbol in "mn" for mu in range(1, len(m) + 1)]
    return {"m": m, "n": n}, {**charges, **dict(zip(names, m + n))}


def _bracket_at(gens: RealizedGenerators, charges: dict, label1: tuple, m: tuple, label2: tuple, n: tuple):
    """The probe-free part of [label1(m), label2(n)], every piece made for this one bracket."""
    x = fa.generator(label1, fa.Momentum.symbol("m", len(m)))
    y = fa.generator(label2, fa.Momentum.symbol("n", len(n)))
    return _BracketAt(x, y, gens.operator(label1, m), gens.operator(label2, n), *_closed_form_maps(charges, m, n))


def _expected_column(gens: RealizedGenerators, table, at: _BracketAt, probe: int) -> dict:
    """Realize the closed form of one formal bracket as a numeric column on
    the probe of index ``probe``, as a state {index: amp}.

    Per probe it makes one :func:`formal_algebra.bracket` call (pinned until
    ROADMAP item 2) and one column read per nonzero term; the rest comes
    hoisted in ``at``.  The column is a sum of projected generator columns,
    so it already lies inside the cutoffs.  The numeric tables are FORMAL,
    so no term is a delta, which only CONCRETE_3D produces.
    """
    out: dict = {}
    for term, poly in fa.bracket(table, at.x, at.y).terms.items():
        coeff = float(poly.evaluate(at.assignment))
        if coeff == 0:
            continue
        col = gens.operator(term.label, term.arg.at(at.vectors)).column(probe)
        if col:
            _add_column(out, col, coeff)
    return out


def default_charges(space: VertexSpace) -> dict:
    """Numeric values for the charge indeterminates of the formal tables.

    k comes from the exact engine, c1/c2 (read only by the vector-field
    table) from the realized fit.
    """
    fit = measure_c1_c2(space)
    return {"k": float(measure_level(space.sc, space.spec.N)), "c1": fit.c1, "c2": fit.c2}


NUMERIC_TABLES = tuple(name for name, species in fa.TABLE_SPECIES.items() if "S3" not in species)


# the charge each species' closed forms read: k in the S1 terms, c1 and c2 in L's Witt cocycle
_SPECIES_CHARGES = (("S1", "k"), ("L", "c1"), ("L", "c2"))


def _numeric_context(table_name: str, space: VertexSpace, charges: dict) -> tuple:
    """(table, generators) for a numeric sweep of one table, once it has every charge it reads."""
    if table_name not in NUMERIC_TABLES:
        raise ValueError(f"numeric sweep supports {NUMERIC_TABLES}, not {table_name!r}")
    missing = [c for s, c in _SPECIES_CHARGES if s in fa.TABLE_SPECIES[table_name] and c not in charges]
    if missing:
        raise ValueError(f"{table_name} reads the charges {', '.join(missing)}, which the charges lack")
    return fa.make_table(table_name, space.sc, space.spec.N), RealizedGenerators(space)


def _deviation(gens: RealizedGenerators, table, at: _BracketAt, probe: int) -> float:
    """Distance between the realized commutator column and the closed form
    of the same bracket, on the probe of index ``probe``; only what reads
    the probe runs here, the rest comes hoisted in ``at``."""
    lhs = at.op_x.commutator_column(at.op_y, probe)
    return _column_distance(lhs, _expected_column(gens, table, at, probe))


def check_table_numeric(
    table_name: str,
    space: VertexSpace,
    charges: dict,
    window: int = 1,
    probes: Optional[list] = None,
) -> list:
    """Compare every realized bracket of a one-chain table with its closed form.

    Sweeps all unordered generator pairs over every momentum pair with
    components in [-window, window], and over the probe states; returns one
    BracketDeviation per generator pair holding the worst deviation found.
    ``charges`` gives the charges k, c1, c2 (see :func:`default_charges`);
    one the table reads (k with S1, c1 and c2 with L) and ``charges`` lacks
    is rejected by name.
    Only the tables whose species are all realized here are accepted (the
    three-chain tables are not); a negative window, an empty probe list or a
    probe outside the cutoffs would check nothing and is rejected before any
    column is built.  A closed form holds generators at m + n, so the window
    must satisfy 2 * window <= P.

    Symbolic generators are made once per generator pair, the closed form's
    maps once per momentum pair, operator handles once per both, and each
    probe's index once; per probe runs :func:`_deviation`.  Loops run m, n,
    probe, and only a strictly larger deviation replaces the worst row, so
    the first of equal ones wins.
    """
    if window < 0:
        raise ValueError(f"window must not be negative, got {window}")
    if 2 * window > space.spec.P:
        raise ValueError(f"window {window} needs P >= {2 * window}, got P={space.spec.P}")
    if probes is not None and not probes:
        raise ValueError("probe list is empty")
    table, gens = _numeric_context(table_name, space, charges)
    N = space.spec.N
    vecs = list(itertools.product(range(-window, window + 1), repeat=N))
    if probes is None:
        probes = default_probe_keys(space)
    for probe in probes:
        _check_probe(space, probe)
    indices = [space.index(probe) for probe in probes]
    momenta = [(mv, nv) + _closed_form_maps(charges, mv, nv) for mv in vecs for nv in vecs]
    m_symbol, n_symbol = fa.Momentum.symbol("m", N), fa.Momentum.symbol("n", N)
    labels = fa.generator_labels(table.species, table.sc.dim, table.N)
    rows = []
    for i, lab1 in enumerate(labels):
        x = fa.generator(lab1, m_symbol)
        for lab2 in labels[i:]:
            y = fa.generator(lab2, n_symbol)
            worst = BracketDeviation(lab1, lab2, (), (), 0.0)
            for mv, nv, vectors, assignment in momenta:
                at = _BracketAt(x, y, gens.operator(lab1, mv), gens.operator(lab2, nv), vectors, assignment)
                for i in indices:
                    dev = _deviation(gens, table, at, i)
                    if dev > worst.deviation:
                        worst = BracketDeviation(lab1, lab2, mv, nv, dev, space.key(i))
            rows.append(worst)
    return rows


def _check_probe(space: VertexSpace, probe: tuple) -> None:
    """Refuse a probe that is no basis key inside the cutoffs: every column on it is empty."""
    if len(probe[1]) != space.spec.N or not space.project({probe: 1.0}):
        raise ValueError(f"probe {probe} lies outside the truncated space")


def _column_distance(a: dict, b: dict) -> float:
    """max |a - b| over the indices of either state: a's, then b's missing from a."""
    worst = 0.0
    get = b.get
    for key, amp in a.items():
        dev = abs(amp - get(key, 0.0))
        if dev > worst:
            worst = dev
    for key, amp in b.items():
        if key not in a and abs(amp) > worst:
            worst = abs(amp)
    return worst


def stage_deviations(
    table_name: str,
    space: VertexSpace,
    elements: list,
    charges: dict,
) -> list:
    """Deviation of fixed tested elements (bracket, momenta, probe) in one space.

    Accepts the same tables and charges as :func:`check_table_numeric`; an
    empty element list would check nothing and is rejected.  Each element's
    labels must be generators of the table, and its probe must lie inside
    the cutoffs.  A closed form holds generators at m + n, so m, n and m + n
    must each lie in the lattice window.  Every element is checked before any
    column is built, and each probe is mapped to its index when its element
    is measured.
    """
    if not elements:
        raise ValueError("element list is empty")
    table, gens = _numeric_context(table_name, space, charges)
    labels = frozenset(fa.generator_labels(table.species, table.sc.dim, table.N))
    for element in elements:
        lab1, mv, lab2, nv, probe = element
        for label in (lab1, lab2):
            if label not in labels:
                raise ValueError(f"label {label} is not a generator of {table_name}")
        if len(mv) != space.spec.N or len(nv) != space.spec.N:
            raise ValueError(f"element {element} has a lattice vector of the wrong dimension")
        if not all(space.in_window(v) for v in (mv, nv, tuple(map(add, mv, nv)))):
            raise ValueError(f"element {element} needs m, n and m + n within P={space.spec.P}")
        _check_probe(space, probe)
    out = []
    for lab1, mv, lab2, nv, probe in elements:
        dev = _deviation(gens, table, _bracket_at(gens, charges, lab1, mv, lab2, nv), space.index(probe))
        out.append(BracketDeviation(lab1, lab2, mv, nv, dev, probe))
    return out

