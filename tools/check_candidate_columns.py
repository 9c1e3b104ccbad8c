#!/usr/bin/env python3
"""Exact check of the candidate-column claim behind
kernels::fill_candidate_columns (docs/MODEL.md, r2 on 2-D nodes).

A fill path's route-dependent length is sum_j f(j) * (x_j - x_{j-1}) +
sum_{j<m} g(x_j) over nondecreasing turn columns 1 = x_0 <= x_1 <= ... <=
x_m = n, where g has period cx on columns 1..n-1. The claim: a longest path
turns only in columns <= cx + 1 or >= n - cx. This script draws integer
instances, solves each with a DP on every column and on the candidates
alone, and counts mismatches. Integers make every sum exact.

    python3 tools/check_candidate_columns.py [draws] [seed]

It also counts mismatches of the smaller set (<= cx or > n - cx), which
should be nonzero: column n - cx is needed.
"""
import random
import sys


def longest(n, m, f, g, cols):
    """Longest route from column 1 of row 1 to column n of row m."""
    u = {x: None for x in cols}
    u[1] = 0
    for j in range(1, m + 1):
        run, prev, at = None, None, {}
        for x in cols:
            if run is not None:
                run += f[j] * (x - prev)
            if u[x] is not None and (run is None or u[x] > run):
                run = u[x]
            prev, at[x] = x, run
        if j == m:
            return at[n]
        u = {x: None if at[x] is None else at[x] + g[x] for x in cols}


def draw(rng):
    cx = rng.choice([1, 2, 3, 4, 8])
    n, m = rng.randint(1, 60), rng.randint(1, 30)
    top = rng.choice([2, 50, 1000])
    if rng.random() < 0.5:  # the model's shape: f, g from two costs each
        cy = rng.choice([1, 2, 4, 8])
        recv = [rng.randint(0, top) for _ in range(2)]
        send = [rng.randint(0, top) for _ in range(2)]
        f = [0, 0] + [recv[(j - 1) % cy != 0] for j in range(2, m + 1)]
        g = [0] + [send[i % cx != 0] for i in range(1, n)] + [0]
    else:  # any f (negative too), any period-cx g, any g(n)
        f = [0] + [rng.randint(-top, top) for _ in range(m)]
        period = [rng.randint(0, top) for _ in range(cx)]
        g = [0] + [period[i % cx] for i in range(1, n)] + [rng.randint(0, top)]
    return cx, n, m, f, g


def main():
    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 5000
    rng = random.Random(int(sys.argv[2]) if len(sys.argv) > 2 else 35)
    wide = narrow = 0
    for _ in range(draws):
        cx, n, m, f, g = draw(rng)
        full = longest(n, m, f, g, list(range(1, n + 1)))
        cand = [x for x in range(1, n + 1) if x <= cx + 1 or x >= n - cx]
        small = [x for x in range(1, n + 1) if x <= cx or x > n - cx]
        wide += longest(n, m, f, g, cand) != full
        narrow += longest(n, m, f, g, small) != full
    print(f"{draws} draws: {wide} mismatches with columns <= cx+1 or >= n-cx,"
          f" {narrow} with columns <= cx or > n-cx")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
