#!/usr/bin/env python3
"""Lifetime study: a miniature of the paper's Figures 8–10.

Runs the three protocols to network death on a scaled-down deployment and
prints the remaining-energy trajectory, the die-off curve, and the
lifetime gains over pure LEACH (paper: ≈ +40% for Scheme 1, ≈ +130% for
Scheme 2 at 5 pkt/s).

Experiments are resolved through the :mod:`repro.api` registry — the
same lookup `repro-caem run` uses — and run under ``--executor SPEC``
(e.g. ``pool:4`` for process-parallel execution), installed with
:func:`repro.api.use_executor`.

Run:  python examples/lifetime_study.py [--preset quick|smoke] [--executor SPEC]
"""

import argparse

from repro.api import get_experiment, use_executor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="smoke",
                        choices=("smoke", "quick", "full"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--executor", default="serial", metavar="SPEC",
                        help="execution backend, e.g. serial or pool:4")
    args = parser.parse_args()

    with use_executor(args.executor):
        print("— energy trajectory (Fig. 8) —")
        fig8 = get_experiment("fig8").run(
            preset=args.preset, seeds=tuple(args.seeds)
        )
        # Print a decimated view: every 4th row.
        fig8.rows = fig8.rows[::4]
        print(fig8.render())

        print("— die-off and lifetime (Fig. 9) —")
        fig9 = get_experiment("fig9").run(
            preset=args.preset, seeds=tuple(args.seeds)
        )
        fig9.rows = fig9.rows[::4]
        print(fig9.render())


if __name__ == "__main__":
    main()
