"""Robustness-threshold sweeps: coordination costs, then the canonical boundary.

For each cost c of the coordination game with logistic types, computes the
side-wise deficit thresholds of every stable equilibrium and which
equilibrium the bounded-tempering criterion selects, next to the
risk-dominant action of the underlying 2x2 game.

Then, for the canonical family (affine F = a x + b on sqrt-shift types),
prints the closed-form selection boundary b*(a) = -(a - 2)^2/8 for
a = 2.1, 2.2, ..., 3.0 and the selection at b* +- 1e-8: the interior
stable equilibrium above b*, the corner 0 below it.  Exits with status 1
if either selection disagrees with the closed form.

Usage: python scripts/selection_sweep.py
"""

import sys

import numpy as np

from evodyn import (
    SqrtShiftTypes,
    TruncatedLogisticTypes,
    affine_game,
    linear_coordination_game,
    risk_dominant_action,
    select_most_robust,
)


def shown(report) -> str:
    return "tie" if report.tie else f"{report.selected:.4f}"


def coordination_sweep() -> None:
    dist = TruncatedLogisticTypes(mu=0.0, s=0.05)
    print(f"{'c':>5} {'risk-dom':>8} {'selected':>9}  thresholds")
    for c in np.arange(0.15, 0.90, 0.1):
        game = linear_coordination_game(float(c))
        report = select_most_robust(game, dist)
        levels = {f"{e.xbar_star:.4f}": f"{e.overall:.4f}" for e in report.entries}
        print(f"{c:5.2f} {risk_dominant_action(float(c)):>8} {shown(report):>9}  {levels}")


def canonical_boundary() -> bool:
    """Print b*(a) and the selection on either side; True if all agree."""
    dist = SqrtShiftTypes()
    print(f"\n{'a':>4} {'b*':>12} {'above b*':>9} {'below b*':>9}")
    agree = True
    for k in range(1, 11):
        a = 2.0 + k / 10
        b_star = -((a - 2.0) ** 2) / 8.0
        above, below = (select_most_robust(affine_game(a, b_star + shift), dist)
                        for shift in (1e-8, -1e-8))
        agree &= (not above.tie and above.selected == above.entries[-1].xbar_star > 0.0
                  and not below.tie and below.selected == 0.0)
        print(f"{a:4.1f} {b_star:12.9f} {shown(above):>9} {shown(below):>9}")
    return agree


def main() -> int:
    coordination_sweep()
    if canonical_boundary():
        return 0
    print("selection disagrees with the closed-form boundary b*(a) = -(a - 2)^2/8")
    return 1


if __name__ == "__main__":
    sys.exit(main())
