"""Set-up cost of one workload, as a fresh interpreter pays it.

Usage: python3 perfbench/setup_probe.py WORKLOAD

Imports ``curralg.cli`` and returns from ``build_su(n)`` and the workload's
constructors, then exits.  The benchmark times this process from spawn to
exit.  ``curralg`` must be importable (the benchmark puts ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import sys


def construct(workload: str) -> None:
    from curralg import cli  # noqa: F401  the import is part of the cost
    from curralg.lie_core import build_su

    if workload == "tables-su3-n3":
        from curralg.formal_algebra import TABLE_NAMES, make_table

        sc = build_su(3)
        for name in TABLE_NAMES:
            make_table(name, sc, 3)
    elif workload == "fock-su2-n2-w1":
        from curralg.fock_oracle import FockOracle
        from curralg.wick_currents import build_currents

        # the CLI defaults: level cutoff 4, particle cap 3
        FockOracle(build_currents(build_su(2), 2), 4, 3)
    elif workload == "measure-su2-n2":
        from curralg.vertex_fock import TruncationSpec, VertexSpace

        # the space cli.cmd_measure builds at its defaults
        VertexSpace(build_su(2), TruncationSpec(N=2, L=4, P=2, M=2, current_cap=3))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    construct(sys.argv[1])
