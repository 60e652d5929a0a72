#!/usr/bin/env python3
"""The stretch computation: homology of the twice-iterated classifying
space of the order-2 group at simplicial dimension 4, checked against the
expected pattern.  Takes a simplex budget as an optional argument.  Prints
the process's peak resident set size once the package is imported, then
the time spent building and validating the bar, the time spent on its
homology, and the peak resident set size at the end: the difference is
what the computation itself holds at its peak."""

import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gammaspaces import algebra as alg
from gammaspaces import classifying as cb
from gammaspaces import presheaves as ps


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def main():
    print(f"imported: peak RSS {peak_rss_mb():.1f} MB")
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else cb.DEFAULT_BUDGET
    A = alg.cyclic(2)
    X = ps.build_gamma_set(A, 16)
    start = time.perf_counter()
    B = cb.iterate_bar(X, 2, 4, budget=budget)
    built = time.perf_counter()
    report = cb.delooping_report(B, 2)
    done = time.perf_counter()
    print(f"levels: {report.levels}  (bar {built - start:.3f}s, homology {done - built:.3f}s, "
          f"peak RSS {peak_rss_mb():.1f} MB)")
    for q, h in enumerate(report.homology):
        expected = report.expected[q]
        mark = "" if expected is None else ("  ok" if report.matches[q] else "  MISMATCH")
        print(f"H_{q} = {h}   expected {expected}{mark}")


if __name__ == "__main__":
    main()
