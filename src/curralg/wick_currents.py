"""Exact normal-ordered current algebra on a multi-component boson system.

The oscillator content is one conjugate pair per flavor:

    phi^a            no spacetime index
    psi^{a mu}       one index
    zeta^{a mu nu}   strict pair mu < nu, antisymmetric under exchange

with canonical commutators (all bosonic, "bc-type" pairs)

    [Xbar_j, X_k] = delta_{j+k,0},      [X_j, Xbar_k] = -delta_{j+k,0},

and frequency split: unbarred modes ``k > 0`` and barred modes ``k >= 0``
annihilate the vacuum.  Mode convention ``X(t) = sum_n X_n e^{int}`` with
``X_n = (1/2pi) Int e^{-int} X(t) dt``, so pointwise products of fields turn
into plain mode convolutions.

A current is a translation-covariant bilinear

    C_m = sum_k coeff(A,B) :A_{m-k} Bbar_k:

held as nothing but its coefficient pattern ``{(A, B): coeff}`` (a
:data:`CurrentBody`); the mode ``m`` enters only when commuting.  :func:`mode_commutator` evaluates
commutators in closed form: single Wick contractions give the bilinear part,
and the double contraction telescopes to the exact anomaly
``-coeff_sum * m * delta_{m+n,0}``.
No cutoff and no tolerance anywhere in this module; coefficients are exact
scalars.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lie_core import StructureConstants
from .scalars import Scalar, as_int_if_integral, format_scalar

__all__ = [
    "CurrentBody",
    "AnomalyPatternError",
    "flavors_for",
    "build_currents",
    "mode_commutator",
    "expected_bracket",
    "check_km_table",
    "measure_level",
    "measure_k1_k2",
    "conventions",
]

# A flavor is a plain tuple: ("phi", a) | ("psi", a, mu) | ("zeta", a, mu, nu)
# with mu < nu for zeta.  Bodies map (unbarred_flavor, barred_flavor) pairs to
# exact coefficients; the barred partner is stored by its unbarred name.
Flavor = tuple
CurrentBody = dict


class AnomalyPatternError(ValueError):
    """Raised when a measured anomaly does not match its declared index pattern."""


def _zeta_flavor(a: int, mu: int, nu: int):
    """Sorted zeta flavor and exchange sign; None when mu == nu."""
    if mu == nu:
        return None
    if mu < nu:
        return ("zeta", a, mu, nu), 1
    return ("zeta", a, nu, mu), -1


def flavors_for(dim: int, N: int) -> list:
    """Every flavor tuple of the oscillator content for dim(g) x N."""
    out = []
    for a in range(1, dim + 1):
        out.append(("phi", a))
    for a in range(1, dim + 1):
        for mu in range(1, N + 1):
            out.append(("psi", a, mu))
    for a in range(1, dim + 1):
        for mu in range(1, N + 1):
            for nu in range(mu + 1, N + 1):
                out.append(("zeta", a, mu, nu))
    return out


def _badd(body: CurrentBody, pair, coeff) -> None:
    """body[pair] += coeff; an integral ``Fraction`` is stored as ``int``."""
    cur = body.get(pair)
    new = as_int_if_integral(coeff if cur is None else cur + coeff)
    if new == 0:
        body.pop(pair, None)
    else:
        body[pair] = new


def body_combine(dst: CurrentBody, src: CurrentBody, factor=1) -> None:
    for pair, coeff in src.items():
        _badd(dst, pair, coeff * factor)


def body_render(body: CurrentBody) -> str:
    """Deterministic one-line text form, used by the demos."""
    if not body:
        return "0"
    parts = []
    for (fa, fb), coeff in sorted(body.items()):
        an = fa[0] + "^" + ",".join(str(i) for i in fa[1:])
        bn = fb[0] + "bar^" + ",".join(str(i) for i in fb[1:])
        parts.append(f"{format_scalar(coeff)}*({an} {bn})")
    return " + ".join(parts)


def mode_commutator(P: CurrentBody, m: int, Q: CurrentBody, n: int):
    """Closed-form [C_m, D_n] for coefficient patterns P, Q.

    Returns (body, anomaly): the body is the bilinear part, a current at
    mode m + n, and the anomaly is the exact scalar multiplying the
    identity.  A matched barred/unbarred flavor pair is a single Wick
    contraction; both matches at once admit the double contraction whose
    mode window telescopes to exactly -m on the diagonal m + n = 0.
    """
    out: CurrentBody = {}
    anomaly: Scalar = Fraction(0)
    central = m + n == 0
    for (a1, b1), al in P.items():
        for (a2, b2), be in Q.items():
            hit1 = b1 == a2
            hit2 = b2 == a1
            if not (hit1 or hit2):
                continue
            c = al * be
            if hit1:
                _badd(out, (a1, b2), c)
            if hit2:
                _badd(out, (a2, b1), -c)
            if hit1 and hit2 and central:
                anomaly = anomaly - c * m
    return out, anomaly


def build_currents(sc: StructureConstants, N: int) -> dict:
    """Every current over dim(g) x N oscillator content, as ``{label: body}``.

    Keys: ("J", a), ("G", a, mu), ("H", a, mu, nu) with mu < nu, and
    ("T", mu, nu) for every mu, nu.  J sums each conjugate flavor pair once;
    G carries the d-symbol mixing term; T is the delta-trace over all three
    species plus the psi and zeta index-mixing parts.  J, G and H read the
    rows ``sc.f_rows[a, b]`` and ``sc.d_rows[a, b]`` for b = 1..dim.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    dim = sc.dim
    fams: dict = {}

    def entries(rows, a):
        """(b, c, value) over the nonzero entries with first index a."""
        for b in range(1, dim + 1):
            for c, v in rows.get((a, b), ()):
                yield b, c, v

    for a in range(1, dim + 1):
        body: CurrentBody = {}
        for b, c, v in entries(sc.f_rows, a):
            _badd(body, (("phi", c), ("phi", b)), v)
            for mu in range(1, N + 1):
                _badd(body, (("psi", c, mu), ("psi", b, mu)), v)
            for mu in range(1, N + 1):
                for nu in range(mu + 1, N + 1):
                    _badd(body, (("zeta", c, mu, nu), ("zeta", b, mu, nu)), v)
        fams[("J", a)] = body

    for a in range(1, dim + 1):
        for mu in range(1, N + 1):
            body = {}
            for b, c, v in entries(sc.f_rows, a):
                _badd(body, (("psi", c, mu), ("phi", b)), v)
            for b, c, v in entries(sc.d_rows, a):
                for nu in range(1, N + 1):
                    zf = _zeta_flavor(c, mu, nu)
                    if zf is None:
                        continue
                    fl, sign = zf
                    _badd(body, (fl, ("psi", b, nu)), v * sign)
            fams[("G", a, mu)] = body

    for a in range(1, dim + 1):
        for mu in range(1, N + 1):
            for nu in range(mu + 1, N + 1):
                body = {}
                for b, c, v in entries(sc.f_rows, a):
                    _badd(body, (("zeta", c, mu, nu), ("phi", b)), v)
                fams[("H", a, mu, nu)] = body

    for mu in range(1, N + 1):
        for nu in range(1, N + 1):
            body = {}
            if mu == nu:
                for fl in flavors_for(dim, N):
                    _badd(body, (fl, fl), 1)
            for a in range(1, dim + 1):
                _badd(body, (("psi", a, mu), ("psi", a, nu)), 1)
            for a in range(1, dim + 1):
                for rho in range(1, N + 1):
                    zf1 = _zeta_flavor(a, mu, rho)
                    zf2 = _zeta_flavor(a, nu, rho)
                    if zf1 is None or zf2 is None:
                        continue
                    (fl1, s1), (fl2, s2) = zf1, zf2
                    _badd(body, (fl1, fl2), s1 * s2)
            fams[("T", mu, nu)] = body

    return fams


_SPECIES_ORDER = {"J": 0, "G": 1, "H": 2, "T": 3}


def expected_bracket(fams: dict, sc: StructureConstants, N: int, lab1: tuple, lab2: tuple):
    """Table right-hand side for a bracket of two family labels.

    Returns (body, anomaly_slope) where the anomaly on m + n = 0 is
    anomaly_slope * m.  Charge slopes are read off :func:`mode_commutator`
    on the actual bodies (see :func:`_slope`), so this encodes only the index
    structure of the table, not independent charge values.
    """
    s1, s2 = lab1[0], lab2[0]
    o1, o2 = _SPECIES_ORDER[s1], _SPECIES_ORDER[s2]
    if o1 > o2 or (o1 == o2 and lab1 > lab2):
        # bilinear part is antisymmetric; the anomaly slope is symmetric,
        # since the double-contraction sum and the m-window flip together
        body, slope = expected_bracket(fams, sc, N, lab2, lab1)
        return {pair: -coeff for pair, coeff in body.items()}, slope

    terms = []
    slope: Scalar = Fraction(0)
    if s1 == "J" and s2 in ("J", "G", "H"):
        # the adjoint action [J^a, X^b] = f^{abc} X^c
        a, b = lab1[1], lab2[1]
        terms = [((s2, c) + lab2[2:], v) for c, v in sc.f_rows.get((a, b), ())]
        if lab1 == lab2:
            slope = _slope(fams[lab1], fams[lab1])
    elif (s1, s2) == ("G", "G"):
        (a, mu), (b, nu) = lab1[1:], lab2[1:]
        for c, v in sc.d_rows.get((a, b), ()):
            zf = _zeta_flavor(c, mu, nu)
            if zf is not None:
                terms.append((("H",) + zf[0][1:], v * zf[1]))
    elif (s1, s2) == ("G", "T"):
        (a, sig), (mu, nu) = lab1[1:], lab2[1:]
        if sig == nu:
            terms = [(("G", a, mu), Fraction(-1))]
    elif (s1, s2) == ("H", "T"):
        (a, sig, tau), (mu, nu) = lab1[1:], lab2[1:]
        # -H^{a mu tau} when sig == nu, -H^{a sig mu} when tau == nu
        for hit, x, y in ((sig == nu, mu, tau), (tau == nu, sig, mu)):
            zf = _zeta_flavor(a, x, y)
            if hit and zf is not None:
                terms.append((("H",) + zf[0][1:], Fraction(-zf[1])))
    elif (s1, s2) == ("T", "T"):
        (mu, nu), (sig, tau) = lab1[1:], lab2[1:]
        if sig == nu:
            terms.append((("T", mu, tau), Fraction(1)))
        if mu == tau:
            terms.append((("T", sig, nu), Fraction(-1)))
        k1, k2 = _tt_slopes(fams, N)
        slope = k1 * int(mu == tau) * int(sig == nu) + k2 * int(mu == nu) * int(sig == tau)
    # every other species pair (G-H, H-H, J-T) vanishes

    out: CurrentBody = {}
    for label, coeff in terms:  # every coefficient is nonzero
        body_combine(out, fams[label], coeff)
    return out, slope


def _slope(P: CurrentBody, Q: CurrentBody) -> Scalar:
    """Anomaly slope of [C_m, D_-m]: the anomaly of :func:`mode_commutator` at m = 1."""
    return mode_commutator(P, 1, Q, -1)[1]


def _tt_slopes(fams: dict, N: int):
    # slopes from two index patterns that isolate k1 and k2
    if N >= 2:
        k1 = _slope(fams[("T", 1, 2)], fams[("T", 2, 1)])
        k2 = _slope(fams[("T", 1, 1)], fams[("T", 2, 2)])
    else:
        both = _slope(fams[("T", 1, 1)], fams[("T", 1, 1)])
        k1, k2 = both, Fraction(0)  # inseparable at N = 1; report the sum as k1
    return k1, k2


class BracketCheck(NamedTuple):
    lab1: tuple
    lab2: tuple
    ok: bool
    detail: str
    anomaly_slope: Scalar


def _check_pair(fams: dict, sc: StructureConstants, N: int, lab1: tuple, lab2: tuple) -> BracketCheck:
    """Check one bracket against its table entry from :func:`expected_bracket`.

    The bilinear part is mode-independent and checked once; the anomaly is
    checked on m + n = 0 for m in {1, 2, 3} against the linear slope, and
    for zero on a non-central mode pair.
    """
    want_body, want_slope = expected_bracket(fams, sc, N, lab1, lab2)
    P, Q = fams[lab1], fams[lab2]
    problems = []
    if mode_commutator(P, 1, Q, 1)[0] != want_body:
        problems.append("bilinear mismatch")
    for m in (1, 2, 3):
        if mode_commutator(P, m, Q, -m)[1] != want_slope * m:
            problems.append(f"anomaly at m={m} is not {format_scalar(want_slope)}*m")
    if mode_commutator(P, 2, Q, -1)[1] != 0:
        problems.append("anomaly off the diagonal m+n=0")
    return BracketCheck(lab1, lab2, not problems, "; ".join(problems), want_slope)


def _check_pairs(fams: dict, sc: StructureConstants, N: int, labels: list) -> list:
    """One :class:`BracketCheck` per unordered pair of ``labels`` (both sides are antisymmetric)."""
    return [
        _check_pair(fams, sc, N, lab1, lab2) for i, lab1 in enumerate(labels) for lab2 in labels[i:]
    ]


def _require_pattern(rows: list) -> None:
    """Raise :class:`AnomalyPatternError` naming the first failed row."""
    for r in rows:
        if not r.ok:
            raise AnomalyPatternError(f"{r.lab1} {r.lab2}: {r.detail}")


def check_km_table(sc: StructureConstants, N: int) -> list:
    """Verify every unordered bracket of the J/G/H/T family set against the table.

    Each row records the verified slope, so callers can assert where
    anomalies are allowed to live (the (J,J) diagonal and the (T,T) delta
    patterns).
    """
    fams = build_currents(sc, N)
    return _check_pairs(fams, sc, N, sorted(fams))


def measure_level(sc: StructureConstants, N: int) -> Scalar:
    """The central charge k of the adjoint current family.

    k is defined through the central-term convention

        [J^a_m, J^b_n] = f^{abc} J^c_{m+n} + k delta^{ab} m delta_{m+n,0},

    which is the (k/2pi i) d/ds delta(s-t) term of the smeared bracket under
    this package's mode transform (see conventions()); here it coincides
    with the raw anomaly slope.  With that sign the same k multiplies the
    one-chain term of the realized bracket, so the two measurements are
    directly comparable.  Checks every (J, J) bracket against the table
    (the f^{abc} bilinear, exact linearity over m in {1, 2, 3}, the
    delta^{ab} pattern) and that every diagonal a = b has the same slope
    before returning k.
    """
    fams = build_currents(sc, N)
    rows = _check_pairs(fams, sc, N, [lab for lab in sorted(fams) if lab[0] == "J"])
    _require_pattern(rows)
    k = rows[0].anomaly_slope  # the (J^1, J^1) row comes first
    for r in rows:
        if r.lab1 == r.lab2 and r.anomaly_slope != k:
            got = format_scalar(r.anomaly_slope)
            raise AnomalyPatternError(f"(J,J) diagonal levels differ: {format_scalar(k)} at a=1, {got} at a={r.lab1[1]}")
    return k


def measure_k1_k2(sc: StructureConstants, N: int):
    """The gl(N) central charges (k1, k2) from the T-family anomalies.

    The pair is defined through the convention

        anomaly([T^mu_nu(m), T^sigma_tau(-m)])
            = -(k1 delta^mu_tau delta^sigma_nu + k2 delta^mu_nu delta^sigma_tau) m,

    the minus mirroring the opposite written sign of the gl(N) central term
    relative to the adjoint one (see conventions()); so (k1, k2) are the
    negated anomaly slopes.  Checks every (T, T) bracket against the table
    (bilinear part and the full index pattern over m in {1, 2, 3}) before
    returning.
    """
    if N < 2:
        raise ValueError("k1 and k2 separate only for N >= 2")
    fams = build_currents(sc, N)
    _require_pattern(_check_pairs(fams, sc, N, [lab for lab in sorted(fams) if lab[0] == "T"]))
    s1, s2 = _tt_slopes(fams, N)
    return -s1, -s2


def conventions() -> dict:
    """The sign and normalization choices that pin down k, k1, k2."""
    return {
        "statistics": "all oscillators bosonic, independent conjugate pairs",
        "frequency_split": "unbarred modes k > 0 and barred modes k >= 0 annihilate the vacuum",
        "mode_transform": "X_n = (1/2pi) Int dt e^{-int} X(t); X(t) = sum_n X_n e^{int}; d/dt maps X_n to +i n X_n",
        "anomaly_sign": "[C_m, D_n] double contraction telescopes to -sum(coeff pairs) * m * delta_{m+n,0}",
        "zeta_pairing": "zeta index pairs strict mu < nu, antisymmetric under exchange, CCR weight 1",
        "current_normalization": "J sums each conjugate flavor pair once; no 1/2 on the zeta sum",
        "level_sign": "k reported via [J^a_m, J^b_n] = f J + k delta^{ab} m delta_{m+n,0}; equals the raw anomaly slope",
        "gl_central_sign": "(k1, k2) reported via anomaly([T(m), T(-m)]) = -(k1 d^mu_tau d^sigma_nu + k2 d^mu_nu d^sigma_tau) m",
    }
