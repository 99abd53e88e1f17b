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
(qp_key, 0, cur_key) with the lattice label taken out, built once.  The
column on (qp_key, w, cur_key) puts every kernel term at w + m, and is empty
when w + m leaves the window, since all its terms land on that one point.
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

The kernels and the projected columns live per space, keyed by operator and
oscillator key or basis key.  The operator key is the only
description of an operator, and :meth:`VertexSpace.apply` maps it to the
operator.  A column depends on the operator and the space alone, so every
generator set on one space, and every table sweep and charge fit run on it,
computes each kernel and each column once.

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
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, Optional

from . import formal_algebra as fa
from .fock_oracle import _add_at, _key_with, _osc_key, apply_body, key_level, key_level_npart, state_add
from .lie_core import StructureConstants
from .wick_currents import CurrentBody, build_currents, measure_level

__all__ = [
    "TruncationSpec",
    "VACUUM_QP",
    "total_level",
    "BoundaryError",
    "FitError",
    "OperatorMatrix",
    "VertexSpace",
    "build_vertex",
    "RealizedGenerators",
    "default_probe_keys",
    "boundary_probe_keys",
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
    "measure_cubic_coefficient",
    "CubicFit",
]

_TRAJ = "traj"
# Fits of exact-in-principle float amplitudes: residuals and probe spreads
# above this are failures.
_FIT_TOL = 1e-9


class BoundaryError(ValueError):
    """A requested momentum cannot be represented inside the lattice window."""


class FitError(ValueError):
    """A charge fit found no usable matrix element or an inconsistent column."""


@dataclass(frozen=True)
class TruncationSpec:
    """Cutoffs for the truncated Fock space.

    L bounds the total excitation level (trajectory plus current sector),
    P the zero-mode momentum lattice (|w_mu| <= P), M the circle-mode window
    of the trajectory oscillators (0 < |k| <= M).  ``current_cap`` bounds the
    current-sector particle number; a level bound alone keeps infinitely
    many current zero-mode states, so the cap is part of the truncation.
    """

    N: int = 2
    L: int = 4
    P: int = 2
    M: int = 2
    current_cap: int = 3

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.L < 1 or self.P < 1 or self.M < 1:
            raise ValueError("L, P, M must be at least 1")
        if self.current_cap < 2:
            raise ValueError("current_cap below 2 leaves no room for a bilinear")

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


def total_level(key: tuple) -> int:
    return key_level(key[0]) + key_level(key[2])


@lru_cache(maxsize=None)
def _creator_multisets(N: int, M: int, level: int) -> tuple:
    """All q-creator multisets {(mu, k): r} with sum k*r == level, k <= M."""
    kinds = [(mu, k) for mu in range(1, N + 1) for k in range(1, M + 1)]

    out = []

    def grow(i: int, left: int, picked):
        if left == 0:
            out.append(tuple(picked))
            return
        if i == len(kinds):
            return
        mu, k = kinds[i]
        grow(i + 1, left, picked)
        r = 1
        while k * r <= left:
            picked.append(((mu, k), r))
            grow(i + 1, left - k * r, picked)
            picked.pop()
            r += 1

    grow(0, level, [])
    return tuple(out)


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
        # Column kernels: (op_key, qp_key, cur_key) -> kernel (see kernel), and the
        # projected columns: operator key -> {basis key: column}; see OperatorMatrix.
        self._kernels: dict = {}
        self._columns: dict = {}

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

    def vacuum_key(self, w: Optional[tuple] = None) -> tuple:
        w = tuple(0 for _ in range(self.spec.N)) if w is None else tuple(w)
        if len(w) != self.spec.N:
            raise ValueError("lattice point has wrong dimension")
        return (VACUUM_QP, w, ())

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
        pslots = [(slot, cnt) for slot, cnt in qp_key if slot[1]]
        terms: list = []

        # enumerate annihilator choices r_i <= cnt_i over p slots
        def ann(i: int, mode_sum: int, coeff: float, key: tuple):
            if i == len(pslots):
                level = mode_sum - j
                if level < 0:
                    return
                for lam in _creator_multisets(N, M, level):
                    c2, key2 = coeff, key
                    for (mu, k), r in lam:
                        c2 *= m[mu - 1] ** r / math.factorial(r)
                        if c2 == 0:
                            break
                        key2 = _key_with(key2, ((_TRAJ, mu), False, -k), r)
                    else:
                        terms.append((key2, c2))
                return
            slot, cnt = pslots[i]
            (_, mu), _, mode = slot
            k = -mode
            ann(i + 1, mode_sum, coeff, key)
            c, fall = coeff, 1.0
            for r in range(1, cnt + 1):
                fall *= -(cnt - r + 1)  # q_k on a p slot: -count per quantum
                c = coeff * (m[mu - 1] ** r / math.factorial(r)) * fall
                if c == 0:
                    break
                ann(i + 1, mode_sum + k * r, c, _key_with(key, slot, -r))

        ann(0, 0, 1.0, qp_key)
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

    def apply(self, op_key: tuple, state: dict) -> dict:
        """Apply the operator ``op_key`` names (see :class:`OperatorMatrix`)."""
        head, m, arg = op_key
        if head == "V":
            return self.apply_vertex(m, arg, state)
        if head[0] == "S1":
            return self.apply_S1(head[1], m, state)
        if head[0] == "L":
            return self.apply_L(head[1], m, state, include_T=arg)
        return self._dressed_current(head, m, state)

    def _dressed_current(self, label: tuple, m: tuple, state: dict) -> dict:
        """sum_j V_{m,j} C_{-j} for a current family C; finite per state."""
        out: dict = {}
        for key, amp in state.items():
            sub = {key: amp}
            lo = -key_level(key[2])
            hi = key_level(key[0])  # p annihilation bounds the positive modes
            for j in range(lo, hi + 1):
                mid = self.apply_current(label, -j, sub)
                if mid:
                    state_add(out, self.apply_vertex(m, j, mid))
        return out

    def apply_S1(self, rho: int, m: tuple, state: dict) -> dict:
        """The closed one-chain: sum_{k != 0} (-ik) q^rho_k V_{m,-k}."""
        out: dict = {}
        for k in range(-self.spec.M, self.spec.M + 1):
            if k == 0:
                continue
            mid = self.apply_vertex(m, -k, state)
            if mid:
                state_add(out, self._qp_osc(mid, rho, False, k), k)
        return out

    def apply_L(self, mu: int, m: tuple, state: dict, include_T: bool = True) -> dict:
        """L_mu(m): the dressed momentum part, the current part, then the zero-mode term, key by key.

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
        for key, amp in state.items():
            sub = {key: amp}
            for k in range(1, self.spec.M + 1):
                # p_{mu,-k} V_{m,k}: vertex first, then the p creator
                mid = self.apply_vertex(m, k, sub)
                if mid:
                    state_add(out, self._qp_osc(mid, mu, True, -k))
                # V_{m,-k} p_{mu,k}: the p annihilator first
                mid = self._qp_osc(sub, mu, True, k)
                if mid:
                    state_add(out, self.apply_vertex(m, -k, mid))
            if include_T:
                for nu in range(1, self.spec.N + 1):
                    if m[nu - 1]:
                        state_add(out, self._dressed_current(("T", nu, mu), m, sub), m[nu - 1])
            if key[1][mu - 1]:
                state_add(out, self.apply_vertex(m, 0, sub), key[1][mu - 1])
        return out

    def kernel(self, op_key: tuple, qp_key: tuple, cur_key: tuple) -> tuple:
        """The projected column of ``op_key`` on (qp_key, 0, cur_key), memoised.

        Returned as (qp_key, cur_key, amplitude) triples in column order, the
        lattice label taken out.  Every term sits at w = m, inside the window,
        so the projection filters only levels and caps, which no operator's w
        enters.  At w = 0 L's zero-mode term vanishes.
        """
        hit = self._kernels.get((op_key, qp_key, cur_key))
        if hit is None:
            state = {(qp_key, (0,) * self.spec.N, cur_key): 1.0}
            column = self.project(self.apply(op_key, state)).items()
            hit = self._kernels[op_key, qp_key, cur_key] = tuple((qp2, cur2, amp) for (qp2, _, cur2), amp in column)
        return hit


class OperatorMatrix:
    """A truncated operator held as lazily computed sparse columns.

    ``column(key)`` is the exact application to one basis state followed by
    projection onto the truncated space, so operator products compose with
    matrix semantics (project after every factor).  It is read off the
    kernel of the key's oscillator part (:meth:`VertexSpace.kernel`), whose
    terms it puts at w + m; for L_mu at w_mu != 0 it then adds w_mu times
    the kernel of ("V", m, 0), L's zero-mode term.  It is empty when w + m
    leaves the window.  ``op_key`` is the operator, ("V", m, j) for V_{m,j}
    or (label, m, include_T) for a label in ``space.labels``, with m in the
    lattice window.  Its kernels and columns live in the space: every handle
    with the same key on one space fills the same stores.
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

    def column(self, key: tuple) -> dict:
        hit = self._columns.get(key)
        if hit is None:
            qp_key, w, cur_key = key
            head, m, _ = self.op_key
            w2 = tuple(map(add, w, m))
            hit = {}
            if self.space.in_window(w2):
                kernel = self.space.kernel
                hit = {(qp2, w2, cur2): amp for qp2, cur2, amp in kernel(self.op_key, qp_key, cur_key)}
                if head[0] == "L" and w[head[1] - 1]:
                    zero = {(qp2, w2, cur2): amp for qp2, cur2, amp in kernel(("V", m, 0), qp_key, cur_key)}
                    state_add(hit, zero, w[head[1] - 1])
            self._columns[key] = hit
        return hit

    def apply(self, state: dict) -> dict:
        out: dict = {}
        for key, amp in state.items():
            state_add(out, self.column(key), amp)
        return out

    def commutator_column(self, other: "OperatorMatrix", key: tuple) -> dict:
        out = self.apply(other.column(key))
        state_add(out, other.apply(self.column(key)), -1.0)
        return out


def build_vertex(m: tuple, n: int, space: VertexSpace) -> OperatorMatrix:
    """The n-th Fourier mode of the vertex factor for lattice vector m."""
    return OperatorMatrix(space, ("V", tuple(m), n))


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


@dataclass(frozen=True)
class ChargeFit:
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
    reference: Callable[[tuple], dict],
    probes: list,
    what: str,
) -> tuple:
    """Fit [x, y] plus its bilinear columns against a reference, probe by probe.

    ``x`` and ``y`` are (label, momentum) pairs of realized generators;
    ``bilinear`` lists (label, momentum, coeff) columns added to the
    commutator in that order, a term with a zero coeff dropped before its
    handle is made; ``reference(probe)`` is the column the sum should be a
    multiple of.  A probe where both columns vanish is skipped, and an empty
    reference under a nonzero column fits c = 0 with the column's norm as its
    residual.  The probes must agree on c within _FIT_TOL.  Returns
    (c, worst residual); the caller judges the residual.
    """
    op_x = gens.operator(*x)
    op_y = gens.operator(*y)
    terms = [(gens.operator(label, r), a) for label, r, a in bilinear if a != 0]
    vals, resids = [], []
    for probe in probes:
        col = op_x.commutator_column(op_y, probe)
        for op, a in terms:
            state_add(col, op.column(probe), a)
        ref = reference(probe)
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
    return -coeff


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


@dataclass(frozen=True)
class BracketDeviation:
    """Worst deviation of one realized bracket from its closed form."""

    label1: tuple
    label2: tuple
    m: tuple
    n: tuple
    deviation: float
    probe: tuple = ()


@lru_cache(maxsize=None)
def _symbolic_generator(label: tuple, symbol: str, N: int) -> fa.Expression:
    """The formal generator ``label`` at the momentum symbol ``symbol``.

    Shared by every caller, so nobody may mutate the result;
    :func:`formal_algebra.bracket` only reads its arguments.
    """
    return fa.generator(label, fa.Momentum.symbol(symbol, N))


@lru_cache(maxsize=None)
def _momentum_variables(N: int) -> tuple:
    """The component variables m_1..m_N, n_1..n_N of the momentum symbols m and n."""
    return tuple(f"{symbol}_{mu}" for symbol in "mn" for mu in range(1, N + 1))


def _expected_column(
    gens: RealizedGenerators,
    table,
    charges: dict,
    label1: tuple,
    m: tuple,
    label2: tuple,
    n: tuple,
    probe: tuple,
) -> dict:
    """Realize the closed form of one formal bracket as a numeric column.

    The column is a sum of projected generator columns, so it already lies
    inside the cutoffs.  The numeric tables are FORMAL, so no term is a
    delta, which only CONCRETE_3D produces.
    """
    N = gens.space.spec.N
    expr = fa.bracket(table, _symbolic_generator(label1, "m", N), _symbolic_generator(label2, "n", N))
    vectors = {"m": m, "n": n}
    assignment = dict(charges)
    assignment.update(zip(_momentum_variables(N), m + n))
    out: dict = {}
    for term, poly in expr.terms.items():
        coeff = float(poly.evaluate(assignment))
        if coeff == 0:
            continue
        state_add(out, gens.operator(term.label, term.arg.at(vectors)).column(probe), coeff)
    return out


def default_charges(space: VertexSpace) -> dict:
    """Numeric values for the charge indeterminates of the formal tables.

    k comes from the exact engine, c1/c2 (read only by the vector-field
    table) from the realized fit.
    """
    fit = measure_c1_c2(space)
    return {"k": float(measure_level(space.sc, space.spec.N)), "c1": fit.c1, "c2": fit.c2}


NUMERIC_TABLES = tuple(name for name, species in fa.TABLE_SPECIES.items() if "S3" not in species)


def _numeric_context(table_name: str, space: VertexSpace) -> tuple:
    """(table, generators) for a numeric sweep of one table."""
    if table_name not in NUMERIC_TABLES:
        raise ValueError(f"numeric sweep supports {NUMERIC_TABLES}, not {table_name!r}")
    return fa.make_table(table_name, space.sc, space.spec.N), RealizedGenerators(space)


def _deviation(gens: RealizedGenerators, table, charges: dict, lab1: tuple, m: tuple, lab2: tuple, n: tuple,
               probe: tuple) -> float:
    """Distance between the realized commutator column and the closed form
    of the same bracket, on one probe state."""
    lhs = gens.operator(lab1, m).commutator_column(gens.operator(lab2, n), probe)
    rhs = _expected_column(gens, table, charges, lab1, m, lab2, n, probe)
    return _column_distance(lhs, rhs)


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
    ``charges`` gives the charges k, c1, c2 (see :func:`default_charges`).
    Only the tables whose species are all realized here are accepted (the
    three-chain tables are not); a negative window or an empty probe list
    would check nothing and is rejected.  A closed form holds generators at
    m + n, so the window must satisfy 2 * window <= P.
    """
    if window < 0:
        raise ValueError(f"window must not be negative, got {window}")
    if 2 * window > space.spec.P:
        raise ValueError(f"window {window} needs P >= {2 * window}, got P={space.spec.P}")
    if probes is not None and not probes:
        raise ValueError("probe list is empty")
    table, gens = _numeric_context(table_name, space)
    vecs = list(itertools.product(range(-window, window + 1), repeat=space.spec.N))
    if probes is None:
        probes = default_probe_keys(space)
    labels = fa.generator_labels(table.species, table.sc.dim, table.N)
    rows = []
    for i, lab1 in enumerate(labels):
        for lab2 in labels[i:]:
            worst = BracketDeviation(lab1, lab2, (), (), 0.0)
            for mv in vecs:
                for nv in vecs:
                    for probe in probes:
                        dev = _deviation(gens, table, charges, lab1, mv, lab2, nv, probe)
                        if dev > worst.deviation:
                            worst = BracketDeviation(lab1, lab2, mv, nv, dev, probe)
            rows.append(worst)
    return rows


def _column_distance(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def boundary_probe_keys(space: VertexSpace) -> list:
    """Probes where the lattice window or the particle cap can clip.

    A commutator on these states loses weight asymmetrically between its two
    application orders, so the deviation from the closed form is nonzero and
    must shrink when every cutoff grows by one stage.
    """
    sp = space.spec
    zero = tuple(0 for _ in range(sp.N))
    edge = (sp.P,) + zero[1:]
    phi1 = ((("phi", 1), False, 0), 1)
    phi2 = ((("phi", 2), False, 0), 1)
    cap_filler = (phi1, (phi2[0], sp.current_cap - 2)) if sp.current_cap > 2 else (phi1,)
    return [
        (VACUUM_QP, edge, ()),
        (p_slot_key(1), edge, ()),
        (VACUUM_QP, zero, tuple(sorted(cap_filler))),
        (VACUUM_QP, edge, (phi1,)),
    ]


def stage_deviations(
    table_name: str,
    space: VertexSpace,
    elements: list,
    charges: dict,
) -> list:
    """Deviation of fixed tested elements (bracket, momenta, probe) in one space.

    Accepts the same tables as :func:`check_table_numeric`; an empty element
    list would check nothing and is rejected.  A closed form holds generators
    at m + n, so m, n and m + n must each lie in the lattice window; every
    element is checked before any column is built.
    """
    if not elements:
        raise ValueError("element list is empty")
    for element in elements:
        _, mv, _, nv, _ = element
        if not all(space.in_window(v) for v in (mv, nv, tuple(map(add, mv, nv)))):
            raise ValueError(f"element {element} needs m, n and m + n within P={space.spec.P}")
    table, gens = _numeric_context(table_name, space)
    out = []
    for lab1, mv, lab2, nv, probe in elements:
        dev = _deviation(gens, table, charges, lab1, mv, lab2, nv, probe)
        out.append(BracketDeviation(lab1, lab2, mv, nv, dev, probe))
    return out


@dataclass(frozen=True)
class CubicFit:
    """Witt-sector extension candidates measured at N = 1.

    The one-chain vanishes identically at N = 1 (its closedness relation
    pins it to zero), so any surviving extension of the realized L family
    would have to live on the vertex zero modes.  ``values`` maps (m, n)
    to the fitted coefficient of the (V_{m+n})_0 column on probes far
    enough from every cutoff boundary; alpha and beta solve
    coefficient = alpha*(m-n)*(m+n)^2 + beta*(m-n), the two density-valued
    cocycle shapes of this degree.  Measured outcome: the family closes
    exactly, every coefficient is zero and alpha = beta = 0.
    """

    alpha: float
    beta: float
    residual: float
    values: tuple


def _degeneration_probes(space: VertexSpace, m: int, n: int) -> list:
    """Probes on which the (m, n) bracket provably clears every cutoff.

    Both commutator paths must keep the lattice label inside the window
    (the label passes through w+m or w+n before landing on w+m+n), else
    one path is clipped and the deviation measures the truncation, not
    the algebra.  Levels are preserved by every generator and the current
    sector is probed from its vacuum, so the lattice window is the only
    constraint.
    """
    P = space.spec.P
    shifts = (0, m, n, m + n)
    probes = []
    for w in range(-P, P + 1):
        if any(abs(w + s) > P for s in shifts):
            continue
        lat = (w,)
        probes.append((VACUUM_QP, lat, ()))
        probes.append((p_slot_key(1), lat, ()))
        probes.append((q_slot_key(1), lat, ()))
    return probes


def measure_cubic_coefficient(space: VertexSpace, include_T: bool = False) -> CubicFit:
    if space.spec.N != 1:
        raise ValueError("the degeneration measurement runs at N = 1")
    if space.spec.P < 3:
        raise ValueError("the (m, n) grid reaches |m+n| = 3; needs P >= 3")
    gens = RealizedGenerators(space, include_T=include_T)
    pairs = [(2, -1), (2, 1), (1, -2), (1, 2), (-2, 1), (1, -1), (2, -2)]
    values = []
    for m, n in pairs:
        r = (m + n,)
        what = f"extension coefficient at ({m},{n})"
        coeff, resid = _fit(
            gens, (("L", 1), (m,)), (("L", 1), (n,)), [(("L", 1), r, -(n - m))],
            build_vertex(r, 0, space).column, _degeneration_probes(space, m, n), what,
        )
        if resid > _FIT_TOL:
            raise FitError(f"extension at ({m},{n}) is not proportional to the vertex zero mode: residual {resid}")
        values.append(((m, n), coeff))

    # solve gamma(m,n) = alpha*(m-n)*(m+n)^2 + beta*(m-n) from the grid
    rows = [((m - n) * (m + n) ** 2, (m - n), g) for (m, n), g in values]
    (a1, b1, g1), (a2, b2, g2) = rows[0], rows[1]
    det = a1 * b2 - a2 * b1  # -24 on this grid
    alpha = (g1 * b2 - g2 * b1) / det + 0.0  # +0.0 folds -0.0
    beta = (a1 * g2 - a2 * g1) / det + 0.0
    residual = max(abs(a * alpha + b * beta - g) for a, b, g in rows)
    return CubicFit(alpha=alpha, beta=beta, residual=residual, values=tuple(values))
