#!/usr/bin/env python3
"""Where truncation bites and how deviations die as the window grows.

The realized generators preserve the oscillator level exactly, so the
level cutoff alone never clips anything; deviations appear only on
probes near the momentum-lattice edge (one commutator path shifts out of
the window) or near the particle cap (the dressed currents overflow it).
This demo evaluates a handful of fixed bracket elements at the default
truncation stage and again with every biting cutoff enlarged, and shows
each nonzero deviation strictly shrinking while interior elements stay
exactly zero.  Also runs the N = 1 degeneration, where the whole family
closes into the plain Witt algebra with no extension left.

Run: python3 demos/truncation_convergence.py
"""

from curralg.lie_core import build_su
from curralg.vertex_fock import (
    VACUUM_QP,
    TruncationSpec,
    VertexSpace,
    default_charges,
    measure_cubic_coefficient,
    p_slot_key,
    stage_deviations,
)

PHI1 = ((("phi", 1), False, 0), 1)
PHI2 = ((("phi", 2), False, 0), 1)


def main():
    sc = build_su(2)
    small_spec = TruncationSpec(N=2, L=4, P=2, M=2, current_cap=3)
    big_spec = small_spec.scaled_stage()
    small = VertexSpace(sc, small_spec)
    big = VertexSpace(sc, big_spec)
    print(f"stages: (L, P, cap) = ({small_spec.L}, {small_spec.P}, "
          f"{small_spec.current_cap}) -> ({big_spec.L}, {big_spec.P}, {big_spec.current_cap})")
    print()

    edge = (2, 0)
    m1, m_1 = (1, 0), (-1, 0)
    elements = [
        ("lattice edge, L-L     ", (("L", 1), m1, ("L", 1), m_1, (VACUUM_QP, edge, ()))),
        ("lattice edge, L-L'    ", (("L", 1), m1, ("L", 2), m_1, (p_slot_key(1), edge, ()))),
        ("lattice edge, L-S1    ", (("L", 1), m1, ("S1", 2), m_1, (p_slot_key(1), edge, ()))),
        ("particle cap, J-J     ", (("J", 3), m1, ("J", 1), m_1, (p_slot_key(1), (0, 0), (PHI1, PHI2)))),
        ("interior,     J-J     ", (("J", 1), m1, ("J", 2), m_1, (p_slot_key(1), (0, 0), ()))),
        ("interior,     L-G     ", (("L", 1), m1, ("G", 1, 2), m_1, (VACUUM_QP, (0, 0), (PHI1,)))),
    ]
    dev_small = stage_deviations(
        "DIFF_EXT", small, [e for _, e in elements], default_charges(small)
    )
    dev_big = stage_deviations(
        "DIFF_EXT", big, [e for _, e in elements], default_charges(big)
    )
    print("deviation of fixed elements, small stage vs enlarged stage:")
    for (name, _), ds, db in zip(elements, dev_small, dev_big):
        trend = "shrinks" if ds.deviation > db.deviation else "stays exact"
        print(f"  {name} {ds.deviation:10.4f} -> {db.deviation:10.4f}   {trend}")
    print()

    n1 = VertexSpace(sc, TruncationSpec(N=1, L=4, P=3, M=2, current_cap=6))
    fit = measure_cubic_coefficient(n1, include_T=True)
    print("N = 1 degeneration: the one-chain vanishes identically and the")
    print("realized family closes into plain Witt on every safe probe:")
    print(f"  fitted extension coefficients alpha = {fit.alpha}, beta = {fit.beta} "
          f"(residual {fit.residual})")


if __name__ == "__main__":
    main()
