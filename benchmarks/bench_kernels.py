"""Benchmark the numba kernels against the pure-numpy fallbacks.

Times each kernel pair on identical inputs (median of repeated runs,
after a warmup call so numba's compilation cost is not counted; the
separator counts have a numpy build only), then
times one end-to-end sparsification under whichever backend is active.
Run `IDCODES_BACKEND=numpy python3 benchmarks/bench_kernels.py` to see
the fallback as the active backend instead.
"""

import argparse
import statistics
import time

import numpy as np

from idcodes import BACKEND, SparsifyParams, disjoint_cliques, gnp, sparsify
from idcodes import _kernels
from idcodes._kernels import (
    NUMBA_AVAILABLE,
    greedy_cover_numpy,
    pairs_equal_rows_numpy,
    row_popcounts_numpy,
    separator_counts,
)


def bench(fn, args, repeats):
    fn(*args)  # warmup; also triggers jit compilation
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def random_rows(m, n, seed):
    rng = np.random.default_rng(seed)
    W = (n + 63) >> 6
    rows = rng.integers(0, 2**64, size=(m, W), dtype=np.uint64)
    tail = n & 63
    if tail:
        rows[:, W - 1] &= (np.uint64(1) << np.uint64(tail)) - np.uint64(1)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4096, help="vertex count")
    parser.add_argument("--pairs", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    n, m = args.n, args.n
    rows = random_rows(m, n, seed=1)
    rng = np.random.default_rng(2)
    pu = rng.integers(0, m, size=args.pairs)
    pv = rng.integers(0, m, size=args.pairs)
    pv[:: 10] = pu[:: 10]  # force some equal pairs
    g = gnp(600, 0.02, seed=3)
    closed = g.packed_closed
    # closed-neighborhood incidence of g and a partition into 64 classes
    es = g.edge_array()
    loops = np.arange(g.n, dtype=np.int64)
    xs = np.concatenate((loops, es[:, 0], es[:, 1]))
    ws = np.concatenate((loops, es[:, 1], es[:, 0]))
    label = np.unique(rng.integers(0, 64, size=g.n), return_inverse=True)[1]

    cases = [
        ("row_popcounts", row_popcounts_numpy, (rows,)),
        ("pairs_equal_rows", pairs_equal_rows_numpy, (rows, pu, pv)),
        ("separator_counts", separator_counts, (label, xs, ws, g.n)),
        ("greedy_cover", greedy_cover_numpy, (closed, g.n)),
    ]

    print(f"active backend: {BACKEND} (numba importable: {NUMBA_AVAILABLE})")
    print(f"inputs: {m} rows x {n} bits, {args.pairs} pairs, "
          f"greedy cover and separator counts on G({g.n}, 0.02)")
    print()
    header = f"{'kernel':<20} {'numpy':>10} {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, np_fn, fn_args in cases:
        t_np = bench(np_fn, fn_args, args.repeats)
        nb_fn = getattr(_kernels, name + "_numba", None)
        if nb_fn is not None:
            t_nb = bench(nb_fn, fn_args, args.repeats)
            print(f"{name:<20} {t_np*1e3:>8.2f}ms {t_nb*1e3:>8.2f}ms "
                  f"{t_np/t_nb:>7.1f}x")
        else:
            print(f"{name:<20} {t_np*1e3:>8.2f}ms {'n/a':>10} {'n/a':>8}")

    big = disjoint_cliques(15, 32)
    t0 = time.perf_counter()
    res = sparsify(big, SparsifyParams(c=2.0, seed=0))
    dt = time.perf_counter() - t0
    print()
    print(f"sparsify on 32 disjoint 16-cliques [{BACKEND}]: {dt*1e3:.0f}ms "
          f"({len(res.deleted_edges)} edges deleted, "
          f"{res.retries_used} retries)")


if __name__ == "__main__":
    main()
