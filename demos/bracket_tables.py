#!/usr/bin/env python3
"""Symbolic bracket tables, the Jacobi sweeps, and the obstruction.

Shows a couple of defining brackets with fully symbolic momenta, sweeps
the Jacobi identity over one table, and walks through the one deliberate
failure: the embedded table EMB1 is not a Lie algebra, its (J, G, G)
jacobiator equals d^{abc} m_rho S3^{mu,nu,rho}(m+n+r).  The d tensor of
su(2) vanishes, so there the same table is honestly Lie.

Run: python3 demos/bracket_tables.py
"""

from curralg.lie_core import build_su
from curralg.formal_algebra import (
    G,
    J,
    L,
    Momentum,
    bracket,
    emb1_obstruction,
    jacobi_sweep,
    jacobiator,
    make_table,
    verify_embedding,
)


def main():
    su3 = build_su(3)
    su2 = build_su(2)
    N = 3
    m, n, r = (Momentum.symbol(name, N) for name in "mnr")

    def flat(expr):
        return "  +  ".join(expr.render().splitlines())

    diff_ext = make_table("DIFF_EXT", su3, N)
    print("two DIFF_EXT brackets, symbolic momenta:")
    print("  [J^1(m), J^2(n)] =", flat(bracket(diff_ext, J(1, m), J(2, n))))
    print("  [L_1(m), L_2(n)] =", flat(bracket(diff_ext, L(1, m), L(2, n))))
    print()

    rep = jacobi_sweep(diff_ext)
    print(f"DIFF_EXT jacobi sweep: {rep.triples_checked} triples, "
          f"{len(rep.failures)} failures")
    print()

    emb1 = make_table("EMB1", su3, N)
    jac = jacobiator(emb1, J(8, m), G(1, 1, n), G(1, 2, r))
    print("EMB1 is not a Lie algebra; the (J, G, G) jacobiator survives:")
    print("  jac(J^8(m), G^{1,1}(n), G^{1,2}(r)) =", jac.render())

    ob = emb1_obstruction(emb1)
    print(f"  full sweep: {ob.jgg_checked} (J,G,G) triples match "
          f"d^{{abc}} m_rho S3(m+n+r); {ob.other_checked} other triples vanish")

    concrete = emb1_obstruction(make_table("EMB1", su3, 3, chain_mode="CONCRETE_3D"))
    print(f"  su(3), S3 realized concretely: nonzero on m+n+r = 0 support -> "
          f"{concrete.nonzero_on_support}")
    su2_concrete = emb1_obstruction(make_table("EMB1", su2, 3, chain_mode="CONCRETE_3D"))
    print(f"  su(2), same realization:       nonzero on m+n+r = 0 support -> "
          f"{su2_concrete.nonzero_on_support}")
    print()

    for src, dst in (("CLASSICAL_MF", "EMB2"), ("MF", "EMB1")):
        erep = verify_embedding(make_table(src, su3, N), make_table(dst, su3, N))
        print(f"embedding {src} -> {dst}: {erep.pairs_checked} species pairs, "
              f"{len(erep.mismatches)} mismatches")


if __name__ == "__main__":
    main()
