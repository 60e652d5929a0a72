#!/usr/bin/env python3
"""Survey the first delooping of every shipped group fixture: homology
through degree 2, the expected pattern, and the induced group actions."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from gammaspaces import algebra as alg
from gammaspaces import classifying as cb
from gammaspaces import presheaves as ps

GROUPS = {
    "order-2 cyclic": alg.cyclic(2),
    "order-3 cyclic": alg.cyclic(3),
    "order-4 cyclic": alg.cyclic(4),
    "product of two order-2": alg.klein_four(),
}

ACTIONS = {
    "inversion on order-3": alg.inversion_action(alg.cyclic(3)),
    "swap on the order-4 product": alg.swap_action(),
}


def main():
    for name, A in GROUPS.items():
        X = ps.build_gamma_set(A, 4)
        report = cb.delooping_report(cb.bar(X, 1, 4), 2)
        hom = ", ".join(f"H_{q}={h}" for q, h in enumerate(report.homology))
        flags = "".join("." if m else "!" for m in report.matches if m is not None)
        print(f"{name:28s} {hom:40s} expected-match [{flags}]")
    print()
    for name, A in ACTIONS.items():
        X = ps.build_ggamma_set(A, 4)
        report = cb.delooping_report(cb.bar(X, 1, 4), 1)
        action = {g: mats[1] for g, mats in report.g_action_on_h.items()}
        print(f"{name:28s} H_1={report.homology[1]}  action on H_1: {action}")
        sm = cb.structure_map(cb.bar(X, 1, 3))
        print(f"{'':28s} structure map iso levels {sm.one_skeleton.level_sizes()}, "
              f"equivariant={sm.equivariant}")


if __name__ == "__main__":
    main()
