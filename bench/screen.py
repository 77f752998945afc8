#!/usr/bin/env python3
"""Derive the master-seed pools of the band-grid and constrained-sums workloads.

The cost of one (tree, walk) replica follows its realization: the tree size
scales with the Galton-Watson limit W, whose spread across seeds is wider
than a factor of 50 for the default law, and the constrained tuple sums scale
with the square of the band size and of the generation-8 size. A benchmark
that fed its --seed value straight into the experiments would therefore
measure mostly which trees it drew. These two workloads instead draw their
master seed from a pool of candidates whose cost lies near the median cost
of all candidates screened:

* band-grid: candidates whose predicted node count of the pass (the
  generation-10 size of every replica tree scaled to its truncation depth)
  lies within 3% of the median, and whose largest tree, which sets the peak
  memory, within 5%; of those, the ones whose measured pass time lies
  within 3% of their median;
* constrained-sums: candidates whose measured pass time lies within 4% of
  the median, because its per-pair costs depend on the genealogy of each
  pair and no size-based model predicted them within a few percent. Its
  peak memory is set by ``estimate_c_infinity`` inside ``limit_report``,
  which does not depend on the seed.

Pass times are in reference seconds (``run.SpeedProbe``); run this on an
otherwise idle machine.

The band-grid proxy reads trees through the ``tree/<n>`` stream tags the
experiment uses, so a change of the stream keying invalidates both pools;
rerun this script then and paste its output into ``run.py``.

    python3 bench/screen.py [CANDIDATES_BG] [CANDIDATES_CS]   # 0 skips one
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import run  # noqa: E402  (bench/ is on sys.path when run as a script)


def band_grid_nodes(gw, law, master):
    """(predicted nodes of the pass, predicted nodes of its largest tree)."""
    total = peak = 0.0
    for n, reps in run.BAND_GRID_REPLICAS.items():
        upper = gw.theory.desk_band(law, n)[1]
        for rep in range(reps):
            tree = gw.tree.generate(law, 10, rng=gw.rng.stream(master, f"tree/{n}", rep))
            nodes = tree.generation_size(10) * law.mean_offspring ** (upper - 9)
            total += nodes
            peak = max(peak, nodes)
    return total, peak


def pass_time(setup):
    """Proxy: reference seconds of one pass of the workload's operations."""

    def proxy(gw, law, master):
        wl = setup(gw, master, master)
        probe = run.SpeedProbe()
        with probe:
            t0 = time.perf_counter()
            run.run_pass(wl)
            raw = time.perf_counter() - t0
        return probe.scale(raw), 0.0

    return proxy


def screen(proxy, gw, law, candidates):
    values = {}
    for m in candidates:
        values[m] = proxy(gw, law, m)
        print(f"  candidate {m}: {values[m][0]:.6g} {values[m][1]:.6g}", file=sys.stderr, flush=True)
    return values


def select(values, tol_cost, tol_peak=None):
    """Candidates within the relative tolerances of the medians."""
    cost = statistics.median(v[0] for v in values.values())
    peak = statistics.median(v[1] for v in values.values())
    return [m for m, (c, p) in values.items()
            if abs(c / cost - 1.0) < tol_cost
            and (tol_peak is None or abs(p / peak - 1.0) < tol_peak)]


def main(argv):
    bg = int(argv[1]) if len(argv) > 1 else 2000
    cs = int(argv[2]) if len(argv) > 2 else 48
    gw = run.import_gwrange(Path(run.SRC))
    law = gw.environment.default_law()
    if bg:
        nodes = screen(band_grid_nodes, gw, law, range(1, bg + 1))
        typical = select(nodes, 0.03, 0.05)
        pool = select(screen(pass_time(run.setup_band_grid), gw, law, typical), 0.03)
        print(f"    'band-grid': {pool},  # {len(typical)} of {bg} by nodes", flush=True)
    if cs:
        times = screen(pass_time(run.setup_constrained_sums), gw, law, range(1, cs + 1))
        pool = select(times, 0.04)
        print(f"    'constrained-sums': {pool},  # of {cs}", flush=True)


if __name__ == "__main__":
    main(sys.argv)
