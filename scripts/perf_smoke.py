#!/usr/bin/env python3
"""Perf-smoke gate: compare a fresh BENCH_live_scaling.json against the
committed baseline.

The gated quantity is the per-cell *speedup ratio* of the live laned
data plane over the bare join kernel (one JoinStore per side, insert +
probe_count in stream order, one copy per core) on the same feed, not
absolute throughput: machines disagree far more on rec/s than on the
ratio of two legs measured in the same run. A cell's ratio is the median
over rounds of each round's laned/kernel ratio. The kernel runs none of
the data plane, so it cannot move with it. A multi-producer cell whose
ratio drops below ``tolerance`` x its committed value (default 0.9)
fails the gate — the shape of a data-plane regression such as
multi-producer pushes starving the workers.

Both legs run on every core, but the laned leg does not scale with the
core count the way independent kernel copies do, so runs on different
core counts are not comparable. The gate fails when the two files
disagree on ``cores``: record the baseline on the runner class that
gates against it.

Single-producer cells are reported but not gated: on shared runners
every gated cell adds a chance of a spurious failure, and the
multi-producer cells are where data-plane regressions have shown.

Usage:
    scripts/perf_smoke.py --baseline <committed.json> --current <fresh.json>
                          [--tolerance 0.9]

Exit codes: 0 clean, 1 regression, result mismatch or core-count
mismatch, 2 usage/IO error.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_smoke: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def cell_key(cell):
    return (cell["producers"], cell["workers"], cell["zipf"])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True,
                    help="committed BENCH_live_scaling.json")
    ap.add_argument("--current", required=True,
                    help="freshly generated BENCH_live_scaling.json")
    ap.add_argument("--tolerance", type=float, default=0.9,
                    help="min current/baseline speedup ratio for "
                         "multi-producer cells (default 0.9)")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    if base.get("cores") != cur.get("cores"):
        print(f"perf_smoke: baseline was recorded on {base.get('cores')} "
              f"cores, the current run on {cur.get('cores')}; the "
              f"laned/kernel ratio depends on the core count, so the two "
              f"are not comparable. Re-record the baseline on this "
              f"runner class.", file=sys.stderr)
        return 1

    failures = []
    if not cur.get("results_identical", False):
        failures.append("current run: kernel and laned results DIFFER "
                        "(exactness broken, numbers are meaningless)")

    base_cells = {cell_key(c): c for c in base.get("cells", [])}
    gated = skipped = 0
    for cell in cur.get("cells", []):
        key = cell_key(cell)
        label = (f"producers={key[0]} workers={key[1]} zipf={key[2]}")
        ref = base_cells.get(key)
        if ref is None:
            print(f"[  --  ] {label}: not in baseline, skipped")
            skipped += 1
            continue
        ratio = cell["speedup"] / ref["speedup"] if ref["speedup"] else 0.0
        line = (f"{label}: speedup {cell['speedup']:.2f}x "
                f"vs baseline {ref['speedup']:.2f}x "
                f"(ratio {ratio:.2f})")
        if key[0] <= 1:
            print(f"[ info ] {line} — single-producer, not gated")
            continue
        gated += 1
        if ratio < args.tolerance:
            print(f"[ FAIL ] {line} < tolerance {args.tolerance}")
            failures.append(line)
        else:
            print(f"[  ok  ] {line}")

    if gated == 0:
        failures.append("no multi-producer cells were gated — matrix "
                        "mismatch between baseline and current run?")

    print(f"\nperf_smoke: {gated} cells gated, {skipped} skipped, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
