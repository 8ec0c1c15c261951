#!/usr/bin/env python3
"""Rate comparison sweep at q = 127 across X = T, written to sweep_q127.csv.

The genus-1 side uses the first maximal curve, y^2 = x^3 + x + 33 (150 points, Z = 1).
Prints the crossover point and the feasibility tails of both genera.
"""

import sys
from pathlib import Path

from agpir import rows_to_csv, sweep


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("sweep_q127.csv")
    result = sweep(127, 1, 70)
    out.write_text(rows_to_csv(result.rows))
    print(f"wrote {out} ({len(result.rows)} rows)")
    print(
        f"curve: y^2 = x^3 + {result.curve.a}x + {result.curve.b}, "
        f"{result.curve.point_count()} points, Z={len(result.curve.zeros_of_y())}"
    )
    print(f"genus 1 first strictly better at X = T = {result.crossover_xt}")
    print(f"genus 0 feasible up to X = T = {result.g0_max_feasible_xt}")
    print(f"genus 1 feasible up to X = T = {result.g1_max_feasible_xt}")


if __name__ == "__main__":
    main()
