"""Seeded audit of the radial potential's error bars against exact values.

Both closed-form solutions f solve T f = f^(p-1) exactly, so for each case
the error |T f(r) - f(r)^(p-1)| of riesz_potential_radial is known.  A case
is short when that error exceeds the returned bar by more than 8 ulp of the
exact value.  Cases are drawn from the box: both families, n = 1..6,
lambda/n uniform in (0.02, 0.98), r log-uniform in [1e-3, r_max], rel_tol
from {1e-6, 1e-8, 1e-10, 1e-12}.

    python scripts/audit_potential.py [--cases 12600] [--seed 7] [--r-max 1e6]

Prints each short case with its error/bar ratio, then a summary line.  Exits
1 when some case is short or does not converge, 0 otherwise.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from liebeq.quadrature import NonConvergent  # noqa: E402
from liebeq.radial_riesz import riesz_potential_radial  # noqa: E402
from liebeq.solutions import lieb_solution, singular_solution  # noqa: E402
from liebeq.specfun import Params  # noqa: E402

FAMILIES = {"singular": singular_solution, "lieb": lieb_solution}
REL_TOLS = (1e-6, 1e-8, 1e-10, 1e-12)


def draw(rng, r_max: float):
    """One case: family, n, lambda, r, rel_tol."""
    family = ("singular", "lieb")[rng.integers(2)]
    n = int(rng.integers(1, 7))
    lam = n * rng.uniform(0.02, 0.98)
    r = math.exp(rng.uniform(math.log(1e-3), math.log(r_max)))
    return family, n, float(lam), r, REL_TOLS[rng.integers(len(REL_TOLS))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cases", type=int, default=12600)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--r-max", type=float, default=1e6)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    short, failed, worst = 0, 0, 0.0
    start = time.perf_counter()
    for _ in range(args.cases):
        family, n, lam, r, rel_tol = draw(rng, args.r_max)
        params = Params(n, lam)
        f = FAMILIES[family](params)
        exact = float(f.value(r)) ** params.pm1
        try:
            value, err = riesz_potential_radial(f, params, r, rel_tol=rel_tol)
        except NonConvergent as exc:
            failed += 1
            print(f"nonconvergent {family} n={n} lam={lam!r} r={r!r} rel_tol={rel_tol:g}: {exc}")
            continue
        actual = abs(value - exact)
        worst = max(worst, actual / err if err else math.inf)
        if actual > err + 8 * math.ulp(exact):
            short += 1
            print(f"short {family} n={n} lam={lam!r} r={r!r} rel_tol={rel_tol:g}: "
                  f"relative error {actual / exact:.3g}, bar {err / exact:.3g}, "
                  f"ratio {actual / err if err else math.inf:.3g}")
    print(f"{args.cases} cases (seed {args.seed}, r up to {args.r_max:g}): {short} short bars, "
          f"{failed} nonconvergent, worst error/bar {worst:.3g}, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if short or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
