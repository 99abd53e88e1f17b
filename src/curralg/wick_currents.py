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

held as its coefficient pattern ``{(A, B): coeff}`` (a :data:`CurrentBody`);
the mode ``m`` enters only when commuting.  Commutators are evaluated in
closed form: single Wick contractions give the bilinear part, and the double
contraction telescopes to the exact anomaly ``-coeff_sum * m * delta_{m+n,0}``.
No cutoff and no tolerance anywhere in this module; coefficients are exact
scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lie_core import StructureConstants
from .scalars import Scalar, as_int_if_integral, format_scalar

__all__ = [
    "CurrentBody",
    "CurrentFamily",
    "CurrentMode",
    "CommutatorResult",
    "SpaceMismatchError",
    "AnomalyPatternError",
    "zeta_flavor",
    "flavors_for",
    "build_currents",
    "mode_commutator",
    "commute_bodies",
    "expected_bracket",
    "check_km_table",
    "jacobi_residual",
    "measure_level",
    "measure_k1_k2",
    "conventions",
]

# A flavor is a plain tuple: ("phi", a) | ("psi", a, mu) | ("zeta", a, mu, nu)
# with mu < nu for zeta.  Bodies map (unbarred_flavor, barred_flavor) pairs to
# exact coefficients; the barred partner is stored by its unbarred name.
Flavor = tuple
CurrentBody = dict


class SpaceMismatchError(ValueError):
    """Raised when commuting currents built over different oscillator content."""


class AnomalyPatternError(ValueError):
    """Raised when a measured anomaly does not match its declared index pattern."""


def zeta_flavor(a: int, mu: int, nu: int):
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


def body_scaled(body: CurrentBody, factor) -> CurrentBody:
    if factor == 0:
        return {}
    return {pair: coeff * factor for pair, coeff in body.items()}


def body_combine(dst: CurrentBody, src: CurrentBody, factor=1) -> None:
    for pair, coeff in src.items():
        _badd(dst, pair, coeff * factor)


def body_render(body: CurrentBody) -> str:
    """Deterministic one-line text form, used by reports and goldens."""
    if not body:
        return "0"
    parts = []
    for (fa, fb), coeff in sorted(body.items()):
        an = fa[0] + "^" + ",".join(str(i) for i in fa[1:])
        bn = fb[0] + "bar^" + ",".join(str(i) for i in fb[1:])
        parts.append(f"{format_scalar(coeff)}*({an} {bn})")
    return " + ".join(parts)


@dataclass(frozen=True)
class CurrentFamily:
    """A label plus the mode-independent coefficient pattern."""

    label: tuple
    body: CurrentBody
    space: tuple  # (StructureConstants, N); identity of the oscillator content

    def at(self, mode: int) -> "CurrentMode":
        return CurrentMode(self.label, mode, self.body, self.space)


@dataclass(frozen=True)
class CurrentMode:
    label: tuple
    mode: int
    body: CurrentBody
    space: tuple


@dataclass(frozen=True)
class CommutatorResult:
    """Exact commutator of two current modes.

    ``bilinear_part`` is a current mode at ``m + n`` whose body collects the
    single contractions; ``anomaly`` is the exact scalar multiplying the
    identity (nonzero only when m + n = 0, always linear in m).
    """

    bilinear_part: CurrentMode
    anomaly: Scalar

    def is_zero(self) -> bool:
        return not self.bilinear_part.body and self.anomaly == 0


def _same_space(x: tuple, y: tuple) -> bool:
    if x is y:
        return True
    if x[1] != y[1]:
        return False
    return x[0] is y[0] or x[0] == y[0]


def commute_bodies(P: CurrentBody, m: int, Q: CurrentBody, n: int):
    """Closed-form [C_m, D_n] for coefficient patterns P, Q.

    Returns (body, anomaly).  A matched barred/unbarred flavor pair is a
    single Wick contraction; both matches at once admit the double
    contraction whose mode window telescopes to exactly -m on the diagonal
    m + n = 0.
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


def mode_commutator(X: CurrentMode, Y: CurrentMode) -> CommutatorResult:
    if not _same_space(X.space, Y.space):
        raise SpaceMismatchError("currents built over different oscillator content")
    body, anomaly = commute_bodies(X.body, X.mode, Y.body, Y.mode)
    lab = ("bracket", X.label, Y.label)
    return CommutatorResult(CurrentMode(lab, X.mode + Y.mode, body, X.space), anomaly)


def build_currents(sc: StructureConstants, N: int) -> dict:
    """All current families over dim(g) x N oscillator content.

    Keys: ("J", a), ("G", a, mu), ("H", a, mu, nu) with mu < nu, and
    ("T", mu, nu) for every mu, nu.  J sums each conjugate flavor pair once;
    G carries the d-symbol mixing term; T is the delta-trace over all three
    species plus the psi and zeta index-mixing parts.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    dim = sc.dim
    space = (sc, N)
    fams: dict = {}

    for a in range(1, dim + 1):
        body: CurrentBody = {}
        for (x, b, c), v in sc.f.items():
            if x != a:
                continue
            _badd(body, (("phi", c), ("phi", b)), v)
            for mu in range(1, N + 1):
                _badd(body, (("psi", c, mu), ("psi", b, mu)), v)
            for mu in range(1, N + 1):
                for nu in range(mu + 1, N + 1):
                    _badd(body, (("zeta", c, mu, nu), ("zeta", b, mu, nu)), v)
        fams[("J", a)] = CurrentFamily(("J", a), body, space)

    for a in range(1, dim + 1):
        for mu in range(1, N + 1):
            body = {}
            for (x, b, c), v in sc.f.items():
                if x != a:
                    continue
                _badd(body, (("psi", c, mu), ("phi", b)), v)
            for (x, b, c), v in sc.d.items():
                if x != a:
                    continue
                for nu in range(1, N + 1):
                    zf = zeta_flavor(c, mu, nu)
                    if zf is None:
                        continue
                    fl, sign = zf
                    _badd(body, (fl, ("psi", b, nu)), v * sign)
            fams[("G", a, mu)] = CurrentFamily(("G", a, mu), body, space)

    for a in range(1, dim + 1):
        for mu in range(1, N + 1):
            for nu in range(mu + 1, N + 1):
                body = {}
                for (x, b, c), v in sc.f.items():
                    if x != a:
                        continue
                    _badd(body, (("zeta", c, mu, nu), ("phi", b)), v)
                fams[("H", a, mu, nu)] = CurrentFamily(("H", a, mu, nu), body, space)

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
                    zf1 = zeta_flavor(a, mu, rho)
                    zf2 = zeta_flavor(a, nu, rho)
                    if zf1 is None or zf2 is None:
                        continue
                    (fl1, s1), (fl2, s2) = zf1, zf2
                    _badd(body, (fl1, fl2), s1 * s2)
            fams[("T", mu, nu)] = CurrentFamily(("T", mu, nu), body, space)

    return fams


_SPECIES_ORDER = {"J": 0, "G": 1, "H": 2, "T": 3}


def expected_bracket(fams: dict, sc: StructureConstants, N: int, lab1: tuple, lab2: tuple):
    """Table right-hand side for a bracket of two family labels.

    Returns (body, anomaly_slope) where the anomaly on m + n = 0 is
    anomaly_slope * m.  Charge slopes are taken from the double-contraction
    sums of the actual bodies, so this encodes only the index structure of
    the table, not independent charge values.
    """
    s1, s2 = lab1[0], lab2[0]
    o1, o2 = _SPECIES_ORDER[s1], _SPECIES_ORDER[s2]
    if o1 > o2 or (o1 == o2 and lab1 > lab2):
        # bilinear part is antisymmetric; the anomaly slope is symmetric,
        # since the double-contraction sum and the m-window flip together
        body, slope = expected_bracket(fams, sc, N, lab2, lab1)
        return body_scaled(body, -1), slope

    terms = []
    slope: Scalar = Fraction(0)
    if (s1, s2) == ("J", "J"):
        a, b = lab1[1], lab2[1]
        terms = [(("J", c), sc.f_at(a, b, c)) for c in range(1, sc.dim + 1)]
        if a == b:
            slope = _jj_slope(fams, lab1)
    elif (s1, s2) == ("J", "G"):
        a, (b, mu) = lab1[1], (lab2[1], lab2[2])
        terms = [(("G", c, mu), sc.f_at(a, b, c)) for c in range(1, sc.dim + 1)]
    elif (s1, s2) == ("J", "H"):
        a, (b, mu, nu) = lab1[1], (lab2[1], lab2[2], lab2[3])
        terms = [(("H", c, mu, nu), sc.f_at(a, b, c)) for c in range(1, sc.dim + 1)]
    elif (s1, s2) == ("G", "G"):
        (a, mu), (b, nu) = (lab1[1], lab1[2]), (lab2[1], lab2[2])
        if mu != nu:
            sign = 1 if mu < nu else -1
            lo, hi = min(mu, nu), max(mu, nu)
            terms = [(("H", c, lo, hi), sc.d_at(a, b, c) * sign) for c in range(1, sc.dim + 1)]
    elif (s1, s2) in (("G", "H"), ("H", "H")):
        terms = []
    elif (s1, s2) == ("J", "T"):
        terms = []
    elif (s1, s2) == ("G", "T"):
        (a, sig), (mu, nu) = (lab1[1], lab1[2]), (lab2[1], lab2[2])
        if sig == nu:
            terms = [(("G", a, mu), Fraction(-1))]
    elif (s1, s2) == ("H", "T"):
        (a, sig, tau), (mu, nu) = (lab1[1], lab1[2], lab1[3]), (lab2[1], lab2[2])
        raw = []
        if sig == nu:
            raw.append((a, mu, tau, -1))
        if tau == nu:
            raw.append((a, sig, mu, -1))
        for aa, x, y, sgn in raw:
            if x == y:
                continue
            flip = 1 if x < y else -1
            raw_lab = ("H", aa, min(x, y), max(x, y))
            terms.append((raw_lab, Fraction(sgn * flip)))
    elif (s1, s2) == ("T", "T"):
        (mu, nu), (sig, tau) = (lab1[1], lab1[2]), (lab2[1], lab2[2])
        if sig == nu:
            terms.append((("T", mu, tau), Fraction(1)))
        if mu == tau:
            terms.append((("T", sig, nu), Fraction(-1)))
        k1, k2 = _tt_slopes(fams, N)
        slope = k1 * int(mu == tau) * int(sig == nu) + k2 * int(mu == nu) * int(sig == tau)
    else:
        raise AssertionError(f"no table entry for {lab1} {lab2}")

    out: CurrentBody = {}
    for label, coeff in terms:
        if coeff == 0:
            continue
        body_combine(out, fams[label].body, coeff)
    return out, slope


def _double_sum(P: CurrentBody, Q: CurrentBody) -> Scalar:
    tot: Scalar = Fraction(0)
    for (a1, b1), al in P.items():
        for (a2, b2), be in Q.items():
            if b1 == a2 and b2 == a1:
                tot = tot + al * be
    return tot


def _jj_slope(fams: dict, lab: tuple) -> Scalar:
    body = fams[lab].body
    return -_double_sum(body, body)


def _tt_slopes(fams: dict, N: int):
    # slopes from two index patterns that isolate k1 and k2
    if N >= 2:
        k1 = -_double_sum(fams[("T", 1, 2)].body, fams[("T", 2, 1)].body)
        k2 = -_double_sum(fams[("T", 1, 1)].body, fams[("T", 2, 2)].body)
    else:
        both = -_double_sum(fams[("T", 1, 1)].body, fams[("T", 1, 1)].body)
        k1, k2 = both, Fraction(0)  # inseparable at N = 1; report the sum as k1
    return k1, k2


@dataclass(frozen=True)
class BracketCheck:
    lab1: tuple
    lab2: tuple
    ok: bool
    detail: str
    anomaly_slope: Scalar


def check_km_table(sc: StructureConstants, N: int) -> list:
    """Verify every unordered bracket of the J/G/H/T family set against the table.

    Bilinear patterns are mode-independent and checked once per pair; the
    anomaly is checked on m + n = 0 for m in {1, 2, 3} against the linear
    slope, and for zero on a non-central mode pair.  Each row records the
    verified slope, so callers can assert where anomalies are allowed to
    live (the (J,J) diagonal and the (T,T) delta patterns).
    """
    fams = build_currents(sc, N)
    labels = sorted(fams.keys())
    rows = []
    for i, lab1 in enumerate(labels):
        for lab2 in labels[i:]:
            want_body, want_slope = expected_bracket(fams, sc, N, lab1, lab2)
            got, _ = commute_bodies(fams[lab1].body, 1, fams[lab2].body, 1)
            problems = []
            if got != want_body:
                problems.append("bilinear mismatch")
            for m in (1, 2, 3):
                _, an = commute_bodies(fams[lab1].body, m, fams[lab2].body, -m)
                if an != want_slope * m:
                    problems.append(f"anomaly at m={m} is not {format_scalar(want_slope)}*m")
            _, off = commute_bodies(fams[lab1].body, 2, fams[lab2].body, -1)
            if off != 0:
                problems.append("anomaly off the diagonal m+n=0")
            rows.append(BracketCheck(lab1, lab2, not problems, "; ".join(problems), want_slope))
    return rows


def jacobi_residual(X: CurrentMode, Y: CurrentMode, Z: CurrentMode):
    """Exact jacobiator [X,[Y,Z]] + [Y,[Z,X]] + [Z,[X,Y]].

    Returns (body, anomaly); inner anomalies are central and drop out of the
    outer bracket, so only outer anomalies against inner bilinears survive.
    """
    body: CurrentBody = {}
    anomaly: Scalar = Fraction(0)
    for A, B, C in ((X, Y, Z), (Y, Z, X), (Z, X, Y)):
        inner, _ = commute_bodies(B.body, B.mode, C.body, C.mode)
        outer, an = commute_bodies(A.body, A.mode, inner, B.mode + C.mode)
        body_combine(body, outer)
        anomaly = anomaly + an
    return body, anomaly


def measure_level(sc: StructureConstants, N: int) -> Scalar:
    """The central charge k of the adjoint current family.

    k is defined through the central-term convention

        [J^a_m, J^b_n] = f^{abc} J^c_{m+n} + k delta^{ab} m delta_{m+n,0},

    which is the (k/2pi i) d/ds delta(s-t) term of the smeared bracket under
    this package's mode transform (see conventions()); here it coincides
    with the raw anomaly slope.  With that sign the same k multiplies the
    one-chain term of the realized bracket, so the two measurements are
    directly comparable.  Checks exact linearity over m in {1, 2, 3} and
    the delta^{ab} pattern for every adjoint pair before returning k.
    """
    fams = build_currents(sc, N)
    slope: Optional[Scalar] = None
    for a in range(1, sc.dim + 1):
        for b in range(1, sc.dim + 1):
            for m in (1, 2, 3):
                r = mode_commutator(fams[("J", a)].at(m), fams[("J", b)].at(-m))
                an = r.anomaly
                if a != b:
                    if an != 0:
                        raise AnomalyPatternError(f"anomaly not prop. to delta^ab at a={a} b={b}")
                    continue
                if slope is None:
                    if m != 1:
                        raise AssertionError("m sweep starts at 1")
                    slope = an
                elif an != slope * m:
                    raise AnomalyPatternError(f"anomaly not linear in m at a={a} m={m}")
    assert slope is not None
    return slope


def measure_k1_k2(sc: StructureConstants, N: int):
    """The gl(N) central charges (k1, k2) from the T-family anomalies.

    The pair is defined through the convention

        anomaly([T^mu_nu(m), T^sigma_tau(-m)])
            = -(k1 delta^mu_tau delta^sigma_nu + k2 delta^mu_nu delta^sigma_tau) m,

    the minus mirroring the opposite written sign of the gl(N) central term
    relative to the adjoint one (see conventions()); so (k1, k2) are the
    negated anomaly slopes.  Verifies the bilinear part of every [T, T]
    bracket and the full index pattern over m in {1, 2, 3} before returning.
    """
    if N < 2:
        raise ValueError("k1 and k2 separate only for N >= 2")
    fams = build_currents(sc, N)
    s1, s2 = _tt_slopes(fams, N)
    idx = range(1, N + 1)
    for mu in idx:
        for nu in idx:
            for sig in idx:
                for tau in idx:
                    want: CurrentBody = {}
                    if sig == nu:
                        body_combine(want, fams[("T", mu, tau)].body)
                    if mu == tau:
                        body_combine(want, fams[("T", sig, nu)].body, -1)
                    got, _ = commute_bodies(fams[("T", mu, nu)].body, 1, fams[("T", sig, tau)].body, 2)
                    if got != want:
                        raise AnomalyPatternError(f"T bilinear mismatch at {mu}{nu},{sig}{tau}")
                    pattern = s1 * int(mu == tau) * int(sig == nu) + s2 * int(mu == nu) * int(sig == tau)
                    for m in (1, 2, 3):
                        _, an = commute_bodies(fams[("T", mu, nu)].body, m, fams[("T", sig, tau)].body, -m)
                        if an != pattern * m:
                            raise AnomalyPatternError(f"T anomaly pattern fails at {mu}{nu},{sig}{tau} m={m}")
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
