#!/usr/bin/env python3
"""The Wick engine: exact current brackets and where the anomaly lives.

Builds the normal-ordered current families for su(2) over a two-torus of
circle modes, commutes a few of them in closed form, and measures the
central charges.  The anomaly sits only in the diagonal (J, J) bracket
and is exactly linear in the mode number; the oscillator oracle then
reproduces one bracket column by brute force to show the closed form is
not taking anything on faith.

Run: python3 demos/wick_anomaly.py
"""

from fractions import Fraction

from curralg.lie_core import build_su
from curralg.scalars import format_scalar
from curralg.wick_currents import (
    body_render,
    build_currents,
    check_km_table,
    measure_k1_k2,
    measure_level,
    mode_commutator,
)
from curralg.fock_oracle import FockOracle, apply_body, state_add, states_equal


def main():
    sc, N = build_su(2), 2
    fams = build_currents(sc, N)
    print(f"current families for su(2), N = {N}: {len(fams)}")
    print("  labels:", ", ".join(str(lab) for lab in sorted(fams)))
    print()

    J1, J2 = fams[("J", 1)], fams[("J", 2)]
    body, _ = mode_commutator(J1, 2, J2, -1)
    print("[J^1_2, J^2_-1] bilinear part (one f^{12c} J^c_1, as a body):")
    print("  ", body_render(body))
    print()

    print("anomaly of [J^a_m, J^b_-m]: only a = b, exactly linear in m")
    for m in (1, 2, 3):
        row = []
        for a, b in ((1, 1), (1, 2)):
            _, anomaly = mode_commutator(fams[("J", a)], m, fams[("J", b)], -m)
            row.append(f"a={a},b={b}: {format_scalar(anomaly)}")
        print(f"  m={m}   " + "   ".join(row))
    print()

    k = measure_level(sc, N)
    k1, k2 = measure_k1_k2(sc, N)
    print(f"measured charges: k = {format_scalar(k)}, "
          f"k1 = {format_scalar(k1)}, k2 = {format_scalar(k2)}")
    rows = check_km_table(sc, N)
    bad = [r for r in rows if not r.ok]
    print(f"full bracket table check: {len(rows)} brackets, "
          f"{len(bad)} failures")
    print()

    # brute-force cross check of one column at level cutoff 4
    oracle = FockOracle(fams, 4, 3)
    key = oracle.safe_keys(2, -2)[1]
    got = oracle.commutator_column(("J", 1), 2, ("J", 1), -2, key)
    body, anomaly = mode_commutator(J1, 2, J1, -2)
    want = apply_body({key: Fraction(1)}, body, 0)
    state_add(want, {key: Fraction(1)}, anomaly)
    print(f"oracle vs closed form on one [J^1_2, J^1_-2] column: "
          f"match = {states_equal(got, want)}")


if __name__ == "__main__":
    main()
