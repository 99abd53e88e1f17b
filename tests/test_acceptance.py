"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Each test measures its own wall time and enforces the stated bound, so a
slow environment fails loudly instead of silently passing a weaker check.
Run with ``pytest -v`` (one line per criterion from the node ids) or
``pytest -s`` to see the ACCEPTANCE lines directly.
"""

import time
from fractions import Fraction

from curralg.cli import oracle_sweep
from curralg.lie_core import build_su, verify_identities
from curralg.formal_algebra import (
    emb1_obstruction,
    jacobi_sweep,
    make_table,
    verify_embedding,
)
from curralg.wick_currents import (
    build_currents,
    flavors_for,
    measure_k1_k2,
    measure_level,
    mode_commutator,
)
from curralg.vertex_fock import (
    VACUUM_QP,
    TruncationSpec,
    VertexSpace,
    default_charges,
    measure_c1_c2,
    measure_vertex_level,
    p_slot_key,
    stage_deviations,
)

SU2 = build_su(2)
SU3 = build_su(3)


def _criterion(n, slug, ok, elapsed, bound=None):
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.1f}s" + (f" (bound {bound:.0f}s)" if bound else "")
    print(f"ACCEPTANCE {n} {slug}: {status} [{timing}]")
    assert ok, f"criterion {n} ({slug}) failed"
    if bound is not None:
        assert elapsed < bound, f"criterion {n} took {elapsed:.1f}s, bound {bound}s"


def test_criterion_1_structure_constants():
    t0 = time.perf_counter()
    ok = True
    for sc in (SU2, SU3):
        report = verify_identities(sc)
        ok = ok and report.passed and len(report.checks) == 6
    ok = ok and SU2.d_is_zero and not SU3.d_is_zero
    _criterion(1, "structure-constant suite", ok, time.perf_counter() - t0, bound=1.0)


def test_criterion_2_jacobi_tables():
    t0 = time.perf_counter()
    ok = True
    for sc in (SU2, SU3):
        for N in (2, 3):
            for name in ("MF", "CLASSICAL_MF", "EMB2", "DIFF_EXT"):
                report = jacobi_sweep(make_table(name, sc, N))
                ok = ok and not report.failures and report.triples_checked > 0
    _criterion(2, "jacobiator normal forms", ok, time.perf_counter() - t0, bound=60.0)


def test_criterion_3_obstruction():
    t0 = time.perf_counter()
    ok = True
    for sc in (SU2, SU3):
        formal = emb1_obstruction(make_table("EMB1", sc, 3))
        ok = ok and not formal.mismatches and formal.jgg_checked > 0
    su3_concrete = emb1_obstruction(make_table("EMB1", SU3, 3, chain_mode="CONCRETE_3D"))
    su2_concrete = emb1_obstruction(make_table("EMB1", SU2, 3, chain_mode="CONCRETE_3D"))
    ok = ok and not su3_concrete.mismatches and not su2_concrete.mismatches
    ok = ok and su3_concrete.nonzero_on_support and not su2_concrete.nonzero_on_support
    _criterion(3, "obstruction reproduction", ok, time.perf_counter() - t0)


def test_criterion_4_embeddings():
    t0 = time.perf_counter()
    ok = True
    for sc in (SU2, SU3):
        for N in (2, 3):
            for src, dst in (("CLASSICAL_MF", "EMB2"), ("MF", "EMB1")):
                report = verify_embedding(make_table(src, sc, N), make_table(dst, sc, N))
                ok = ok and not report.mismatches and report.pairs_checked > 0
    _criterion(4, "embedding suite", ok, time.perf_counter() - t0)


def test_criterion_5_wick_oracle_equivalence():
    t0 = time.perf_counter()
    sc, N, L, cap = SU2, 2, 4, 3
    fams = build_currents(sc, N)
    labels = sorted(fams)
    mode_pairs = [(m, n) for m in range(-2, 3) for n in range(m, 3)]
    sweep = oracle_sweep(fams, flavors_for(sc.dim, N), L, cap, mode_pairs)
    ok = sweep.mismatches == 0 and sweep.columns > 100000

    # anomaly location and shape among the current-family brackets
    km_labels = [lab for lab in labels if lab[0] in ("J", "G", "H")]
    slopes = set()
    for i, lab1 in enumerate(km_labels):
        for lab2 in km_labels[i:]:
            for m in (1, 2, 3):
                _, anomaly = mode_commutator(fams[lab1], m, fams[lab2], -m)
                if lab1[0] == "J" and lab1 == lab2:
                    ok = ok and anomaly != 0
                    slopes.add(Fraction(anomaly, m))  # exactly linear in m
                else:
                    ok = ok and anomaly == 0  # delta^{ab}, nothing off the J diagonal
    ok = ok and len(slopes) == 1

    _criterion(5, "wick/oracle equivalence", ok, time.perf_counter() - t0, bound=120.0)


def test_criterion_6_charge_consistency():
    t0 = time.perf_counter()
    k = float(measure_level(SU2, 2))
    k1, k2 = (float(v) for v in measure_k1_k2(SU2, 2))
    space = VertexSpace(SU2, TruncationSpec(N=2, L=4, P=2, M=2, current_cap=3))
    k_s1 = measure_vertex_level(space)
    fit = measure_c1_c2(space, include_T=True)
    ok = (
        abs(fit.c1 - (1.0 + k1)) < 1e-8
        and abs(fit.c2 - k2) < 1e-8
        and abs(k_s1 - k) < 1e-8
    )
    _criterion(6, "charge consistency", ok, time.perf_counter() - t0, bound=300.0)


def test_criterion_7_convergence():
    t0 = time.perf_counter()
    small_spec = TruncationSpec(N=2, L=4, P=2, M=2, current_cap=3)
    small = VertexSpace(SU2, small_spec)
    big = VertexSpace(SU2, small_spec.scaled_stage())
    edge = (2, 0)
    m1, m_1 = (1, 0), (-1, 0)
    phi1 = (((("phi", 1), False, 0), 1),)
    phi12 = ((((("phi", 1), False, 0), 1), ((("phi", 2), False, 0), 1)))
    elements = [
        (("L", 1), m1, ("L", 1), m_1, (VACUUM_QP, edge, ())),
        (("L", 1), m1, ("L", 2), m_1, (p_slot_key(1), edge, ())),
        (("L", 1), m1, ("S1", 2), m_1, (p_slot_key(1), edge, ())),
        (("J", 3), m1, ("J", 1), m_1, (p_slot_key(1), (0, 0), phi12)),
        (("J", 1), m1, ("J", 2), m_1, (p_slot_key(1), (0, 0), ())),
        (("L", 1), m1, ("G", 1, 2), m_1, (VACUUM_QP, (0, 0), phi1)),
    ]
    dev_small = stage_deviations("DIFF_EXT", small, elements, default_charges(small))
    dev_big = stage_deviations("DIFF_EXT", big, elements, default_charges(big))

    ok = True
    near_boundary = 0
    for ds, db in zip(dev_small, dev_big):
        if ds.deviation > 0:
            near_boundary += 1
            ok = ok and db.deviation < ds.deviation
        else:
            ok = ok and db.deviation == 0
    ok = ok and near_boundary >= 4
    _criterion(7, "truncation convergence", ok, time.perf_counter() - t0)
