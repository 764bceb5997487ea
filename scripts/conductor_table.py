#!/usr/bin/env python3
"""Tabulate conductors of two-generator numerical semigroups.

For every coprime pair 1 < a < b <= N this computes the additive closure
of {a, b} exactly, reads off its conductor (the first point past the
last gap), and checks it against the classical closed form
(a-1)(b-1).  Reports the largest number of gaps seen and any mismatch.
"""

from __future__ import annotations

import argparse
import math

from spectre import nat_closure, normalize, params
from spectre.epset import gaps_below


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-n", type=int, default=20, help="largest generator (default 20)")
    args = ap.parse_args(argv)

    print(f"{'a':>4} {'b':>4} {'conductor':>10} {'gaps':>6}")
    worst = (0, None)
    for a in range(2, args.n + 1):
        for b in range(a + 1, args.n + 1):
            if math.gcd(a, b) != 1:
                continue
            closure = nat_closure(normalize([a, b]))
            p = params(closure)
            expected = (a - 1) * (b - 1)
            assert p.c == expected, (a, b, p.c, expected)
            gaps = len(gaps_below(closure, p.c))
            print(f"{a:>4} {b:>4} {p.c:>10} {gaps:>6}")
            if gaps > worst[0]:
                worst = (gaps, (a, b))
    print(f"\nall conductors match (a-1)(b-1); most gaps: {worst[0]} at {worst[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
