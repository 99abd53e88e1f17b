"""Brute-force Fock space for the current oscillators, with hard cutoffs.

This module applies currents literally, as normal-ordered mode sums acting
on an explicit occupation-number basis, so it shares no algebra with the
closed-form commutator in :mod:`curralg.wick_currents`.  It exists to be
disagreed with: tests commute truncated matrices here and compare columns
against the engine.

Basis and conventions
---------------------
A slot is ``(flavor, barred, mode)`` with creator modes only: unbarred
``mode <= 0`` (the zero mode creates), barred ``mode <= -1``.  A basis key
is a sorted tuple of ``(slot, count)`` pairs; the vacuum is ``()``.  States
are dicts ``key -> exact amplitude`` over the unnormalised basis, so a
creator has matrix element 1 and an annihilator picks up the occupation
count times the pair's central weight:

    Xbar_j  kills slot (X, False, -j)  with amplitude +count
    X_k     kills slot (X, True,  -k)  with amplitude -count

(from [Xbar_j, X_k] = delta_{j+k,0}).  Truncation is by total level
(sum of -mode over slots) and total particle number; a level bound alone
keeps infinitely many zero-mode states, hence the particle cap.

Amplitudes stay ``int`` wherever they are integral: columns start from
``{key: 1}``, oscillator amplitudes are occupation counts, and integral
current coefficients are stored as ``int`` (see
:func:`curralg.wick_currents.build_currents`), so an su(2) sweep does no
``Fraction`` arithmetic.  A key changes by one scan that splices the
untouched ``(slot, count)`` pairs around the changed one.

A bilinear sum_k :A_{m-k} Bbar_k: applied to one basis key touches finitely
many k: a window of pure creators plus finitely many k that annihilate an
occupied slot.  Every surviving term changes the level by exactly -m and
the particle count by -2, 0, or +2 (+2 only in the pure-creator window).
So projection acts key by key and can run inside the application: with
cutoffs, :func:`apply_body` gives a key whose level - m exceeds the level
cutoff an empty column and skips the pure-creator window when two more
particles would exceed the cap.  :class:`FockOracle` memoises these
projected columns, which are exactly the columns of the truncated matrix.
It stores each one flat, as an immutable tuple ``(key1, amp1, key2, amp2,
...)`` over interned keys, and sums stored columns with
:func:`_add_column`, which repeats :func:`state_add`'s operations in its
order.  :mod:`curralg.vertex_fock` stores its columns the same way and
sums them with the same function.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

__all__ = [
    "key_level",
    "key_npart",
    "key_level_npart",
    "state_add",
    "state_project",
    "states_equal",
    "apply_body",
    "enumerate_keys",
    "FockOracle",
]

BasisKey = tuple  # sorted ((slot, count), ...)
State = dict  # BasisKey -> Scalar


def key_level(key: BasisKey) -> int:
    return sum(-slot[2] * cnt for slot, cnt in key)


def key_npart(key: BasisKey) -> int:
    return sum(cnt for _, cnt in key)


def _key_with(key: BasisKey, slot, delta: int):
    """``key`` with ``delta`` more quanta in ``slot``; None if a count goes negative.

    One scan of the sorted pairs; the result splices the untouched pairs of
    ``key`` around the changed one instead of re-sorting.
    """
    i = 0
    for s, cnt in key:
        if s < slot:
            i += 1
            continue
        if s == slot:
            new = cnt + delta
            if new < 0:
                return None
            if new == 0:
                return key[:i] + key[i + 1 :]
            return key[:i] + ((slot, new),) + key[i + 1 :]
        break
    if delta < 0:
        return None
    if delta == 0:
        return key
    return key[:i] + ((slot, delta),) + key[i:]


def _add_at(dst: State, key, amp) -> None:
    """dst[key] += amp, dropping the key when the sum is zero."""
    cur = dst.get(key)
    new = amp if cur is None else cur + amp
    if new == 0:
        dst.pop(key, None)
    else:
        dst[key] = new


def state_add(dst: State, src: State, factor=1) -> None:
    """dst += factor * src: :func:`_add_at` per entry, inlined."""
    if factor == 0:
        return
    get = dst.get
    for key, amp in src.items():
        amp = amp * factor
        cur = get(key)
        if cur is not None:
            amp = cur + amp
        if amp == 0:
            dst.pop(key, None)
        else:
            dst[key] = amp


def _add_column(dst: State, col: tuple, factor) -> None:
    """dst += factor * col for a flat column (key1, amp1, key2, amp2, ...).

    The operations of :func:`state_add`, in its order, so every sum comes
    out bit for bit as from the column's dict.
    """
    if factor == 0:
        return
    get = dst.get
    i, n = 0, len(col)
    while i < n:  # an index loop: most columns hold one or two terms
        key = col[i]
        amp = col[i + 1] * factor
        i += 2
        cur = get(key)
        if cur is not None:
            amp = cur + amp
        if amp == 0:
            dst.pop(key, None)
        else:
            dst[key] = amp


def key_level_npart(key: BasisKey) -> tuple:
    """``(key_level(key), key_npart(key))`` in one pass over the pairs."""
    level = npart = 0
    for slot, cnt in key:
        level -= slot[2] * cnt
        npart += cnt
    return level, npart


def state_project(state: State, level_max: int, npart_max: int) -> State:
    out: State = {}
    for key, amp in state.items():
        level, npart = key_level_npart(key)
        if level <= level_max and npart <= npart_max:
            out[key] = amp
    return out


def states_equal(x: State, y: State) -> bool:
    return x == y


def _osc_key(key: BasisKey, flavor, barred: bool, mode: int):
    """Apply one oscillator to one basis key: (new_key, amplitude) or None."""
    creates = mode <= -1 if barred else mode <= 0
    if creates:
        return _key_with(key, (flavor, barred, mode), +1), 1
    target = (flavor, not barred, -mode)
    for slot, count in key:
        if slot == target:
            return _key_with(key, target, -1), count if barred else -count
    return None


def _candidate_modes(key: BasisKey, A, B, m: int, creators: bool = True):
    ks = set()
    if m <= -1 and creators:
        ks.update(range(m, 0))  # both parts create
    lo = max(m, 0)
    for (fl, barred, s), _ in key:
        if fl == B and not barred and -s >= lo:
            ks.add(-s)  # Bbar_k annihilates an occupied slot
        if fl == A and barred and m + s <= -1:
            ks.add(m + s)  # A_{m-k} annihilates an occupied slot
    if m >= 1:
        occ = dict(key)
        for k in range(0, m):  # both parts annihilate
            if occ.get((B, False, -k)) and occ.get((A, True, k - m)):
                ks.add(k)
    return ks


def apply_body(state: State, body: dict, m: int, cutoffs=None) -> State:
    """sum over ``body`` of sum_k :A_{m-k} Bbar_k:, exact, uncut unless ``cutoffs`` is given.

    Each term is the body coefficient of a pair times the integer product of
    its two oscillator amplitudes.  Per key, terms come in body order, then
    candidate-mode order, and add up in that order.  With ``cutoffs =
    (level_max, npart_max)`` only the terms inside them are emitted, which
    equals :func:`state_project` of the uncut result.  Every term moves the
    level by exactly -m, so a key whose level - m exceeds ``level_max``
    contributes nothing.  The pure-creator terms, where both oscillators
    create, are the only ones that add two particles; they are never
    generated when they would exceed ``npart_max``.  Without them every term
    annihilates an occupied slot of A or B, so a pair with neither flavor in
    the key is skipped.
    """
    out: State = {}
    if cutoffs is not None:
        level_max, npart_max = cutoffs
    creators, recheck = True, False
    for key, amp in state.items():
        if cutoffs is not None:
            level, npart = key_level_npart(key)
            if level - m > level_max:
                continue
            creators = npart + 2 <= npart_max
            recheck = npart > npart_max  # a key outside the cap: only -2 terms may return
        present = None if (m <= -1 and creators) else {slot[0] for slot, _ in key}
        for (A, B), coeff in body.items():
            if present is not None and A not in present and B not in present:
                continue
            for k in _candidate_modes(key, A, B, m, creators):
                a_mode, b_mode = m - k, k
                if a_mode > 0 and b_mode <= -1:
                    first, second = ((A, False, a_mode), (B, True, b_mode))
                else:
                    first, second = ((B, True, b_mode), (A, False, a_mode))
                hit = _osc_key(key, *first)
                if hit is None:
                    continue
                mid_key, f1 = hit
                hit = _osc_key(mid_key, *second)
                if hit is None:
                    continue
                new_key, f2 = hit
                if recheck and key_npart(new_key) > npart_max:
                    continue
                _add_at(out, new_key, amp * (f1 * f2) * coeff)
    return out


def enumerate_keys(flavors, level_max: int, npart_max: int) -> list:
    """All basis keys within the cutoffs, vacuum first, in sorted order.

    The keys are the multisets of at most ``npart_max`` creator slots whose
    level is at most ``level_max``.  A negative bound admits no key, not
    even the vacuum.
    """
    if level_max < 0 or npart_max < 0:
        return []
    slots = []
    for fl in flavors:
        for lev in range(0, level_max + 1):
            slots.append((fl, False, -lev))
        for lev in range(1, level_max + 1):
            slots.append((fl, True, -lev))
    slots.sort()

    keys = [
        tuple(Counter(picked).items())
        for n in range(npart_max + 1)
        for picked in combinations_with_replacement(slots, n)
        if sum(-slot[2] for slot in picked) <= level_max
    ]
    return sorted(keys, key=lambda k: (key_npart(k), key_level(k), k))


class FockOracle:
    """Truncated-matrix application of current families, memoised per column.

    ``bodies`` maps labels to current bodies, the coefficient patterns that
    :func:`curralg.wick_currents.build_currents` returns.  Truncation
    follows matrix semantics exactly: the operator for mode ``m`` is the
    full application followed by projection, so a product of operators
    projects after every factor.  Projection acts
    key by key, so each memoised column is already projected: it holds only
    the terms that survive the cutoffs, and applying an operator to a state
    merges columns.  The basis is built from ``flavors``, every flavor that
    appears in a body.

    Columns are stored flat, as immutable tuples ``(key1, amp1, key2, amp2,
    ...)``, the empty one as ``()``; most hold a few terms, so a dict per
    column would cost more than its terms.  Every key, in a column or as a
    memo key, is the oracle's one stored copy from its ``_keys`` intern.
    The memo nests label -> mode -> {key: column}, so a sweep that is done
    with a label frees its columns at no cost with :meth:`forget`, which
    leaves the intern alone.
    """

    def __init__(self, bodies: dict, level_max: int, npart_max: int):
        self.bodies = bodies
        self.level_max = level_max
        self.npart_max = npart_max
        self.flavors = {fl for body in bodies.values() for pair in body for fl in pair}
        self._memo: dict = {}  # label -> mode -> {key: flat column}
        self._keys: dict = {}  # basis key -> its one stored copy
        self._safe: dict = {}  # room -> safe keys

    def apply_exact(self, label, mode: int, key: BasisKey) -> tuple:
        """Exact column of the truncated matrix of ``label`` at ``mode``, memoised.

        The column is the flat tuple ``(key1, amp1, ...)`` of the projected
        :func:`apply_body` of ``{key: 1}``, in its insertion order, with the
        same exact amplitudes and interned keys.  An unknown label raises
        ``ValueError`` and leaves the memo as it was.
        """
        by_mode = self._memo.get(label)
        if by_mode is None:
            if label not in self.bodies:
                raise ValueError(f"unknown current label {label!r}")
            by_mode = self._memo[label] = {}
        memo = by_mode.get(mode)
        if memo is None:
            memo = by_mode[mode] = {}
        hit = memo.get(key)
        if hit is None:
            state = apply_body({key: 1}, self.bodies[label], mode, (self.level_max, self.npart_max))
            intern = self._keys.setdefault
            flat = []
            for new_key, amp in state.items():
                flat += (intern(new_key, new_key), amp)
            hit = memo[intern(key, key)] = tuple(flat)
        return hit

    def forget(self, label) -> None:
        """Drop the memoised columns of ``label``; a later application recomputes them."""
        self._memo.pop(label, None)

    def apply_truncated(self, label, mode: int, col: tuple) -> State:
        """The truncated matrix of ``label`` at ``mode`` applied to a flat column; empty columns are skipped."""
        out: State = {}
        for i in range(0, len(col), 2):
            hit = self.apply_exact(label, mode, col[i])
            if hit:
                _add_column(out, hit, col[i + 1])
        return out

    def commutator_column(self, lab1, m: int, lab2, n: int, key: BasisKey) -> State:
        """Column of the truncated-matrix commutator on one basis key."""
        xy = self.apply_truncated(lab1, m, self.apply_exact(lab2, n, key))
        yx = self.apply_truncated(lab2, n, self.apply_exact(lab1, m, key))
        state_add(xy, yx, -1)
        return xy

    def safe_keys(self, m: int, n: int) -> list:
        """Basis keys on which truncation provably cannot bite.

        Applying either factor must stay inside the cutoffs: one bilinear
        raises the level by at most max(-m, -n, 0) and the particle count
        by at most 2, so columns at level <= L - max(-m, -n, 0) and npart
        <= cap - 2 commute with the projections.  The list is built once per
        room and shared; callers must not mutate it.
        """
        room = max(-m, -n, 0)
        keys = self._safe.get(room)
        if keys is None:
            keys = self._safe[room] = enumerate_keys(self.flavors, self.level_max - room, self.npart_max - 2)
        return keys
