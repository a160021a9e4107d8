"""The interval solve over a fixed grid of sizes and exponents.

Runs picard_solve on [-1, 1] (n = 1, default stop_tol) for every grid size N
in {33, 65, 129, 201, 257, 513, 1025} and lambda in {0.02, 0.05, 0.1, 0.15,
0.2, 0.3, ..., 0.7, 0.75, 0.8, 0.85, 0.9, 0.92, 0.94, 0.95, ..., 0.99, 0.993,
0.995}, 161 cells.  Prints per cell whether it converged, its accelerated
sweeps, the finish's residual evaluations (nfev) and the final residual,
then the totals.

    python scripts/solve_grid.py [--save F.npz] [--compare F.npz]

--save stores each cell's nodal values in F.npz.  --compare reads such a
file, from another version of the solver, and prints each cell's
max |u - u_F| / max u_F and the worst of them.  Exits 1 when some cell does
not converge, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from liebeq.regularity import Domain1D  # noqa: E402
from liebeq.solver import SolverConfig, picard_solve  # noqa: E402
from liebeq.specfun import Params  # noqa: E402

SIZES = (33, 65, 129, 201, 257, 513, 1025)
LAMBDAS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8,
           0.85, 0.9, 0.92, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 0.993, 0.995)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save", metavar="F.npz", help="store every cell's nodal values")
    parser.add_argument("--compare", metavar="F.npz", help="compare with stored nodal values")
    args = parser.parse_args(argv)

    other = np.load(args.compare) if args.compare else None
    saved, worst = {}, (0.0, "")
    failed = sweeps = nfev = 0
    start = time.perf_counter()
    domain = Domain1D.interval(-1.0, 1.0)
    for N in SIZES:
        for lam in LAMBDAS:
            solution, trace = picard_solve(SolverConfig(domain=domain, grid_size=N),
                                           Params(1, lam))
            key = f"{N}_{lam}"
            u = saved[key] = np.asarray(solution.values)
            failed += not trace.converged
            sweeps += trace.accelerated
            nfev += trace.nfev
            line = (f"N={N:5d} lam={lam:<6} converged={trace.converged!s:5} "
                    f"sweeps={trace.accelerated:4d} nfev={trace.nfev:3d} "
                    f"residual={trace.residuals[-1]:.2e}")
            if other is not None:
                ref = other[key]
                gap = float(np.max(np.abs(u - ref)) / np.max(ref))
                worst = max(worst, (gap, key))
                line += f" diff={gap:.2e}"
            print(line)
    cells = len(SIZES) * len(LAMBDAS)
    print(f"{cells - failed} of {cells} converged, {sweeps} sweeps, {nfev} finish "
          f"evaluations, {time.perf_counter() - start:.1f} s")
    if other is not None:
        print(f"worst max |u - u_F| / max u_F: {worst[0]:.2e} at N_lam = {worst[1]}")
    if args.save:
        np.savez(args.save, **saved)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
