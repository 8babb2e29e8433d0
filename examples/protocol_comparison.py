#!/usr/bin/env python3
"""Protocol comparison: the paper's three protocols head-to-head.

Runs pure LEACH, Scheme 1 (adaptive threshold) and Scheme 2 (fixed
threshold) on identical topology/traffic/channel seeds — a miniature of
the paper's whole evaluation — expressed as a one-axis
:class:`repro.api.Campaign`.  Pass ``--executor pool:3`` to run the
three protocols in parallel processes; the table is identical either way.

Run:  python examples/protocol_comparison.py [--nodes N] [--horizon S] [--executor SPEC]
"""

import argparse

from repro.api import Campaign, Scenario
from repro.config import Protocol
from repro.experiments import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument("--horizon", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--executor", default="serial", metavar="SPEC",
                        help="execution backend, e.g. serial or pool:3")
    args = parser.parse_args()

    base = (
        Scenario()
        .with_(n_nodes=args.nodes, seed=args.seed)
        .with_runtime(horizon_s=args.horizon, sample_interval_s=5.0)
    )
    campaign = Campaign(base, name="protocol-comparison").over(
        protocol=list(Protocol)
    )
    result = campaign.run(executor=args.executor)

    rows = []
    for scenario, run in result:
        rows.append([
            scenario.config.protocol.label,
            run.generated,
            run.delivered,
            f"{run.delivery_rate:.1%}" if run.delivery_rate is not None else "—",
            round(run.total_consumed_j, 2),
            round(run.energy_per_packet_j * 1e3, 2)
            if run.energy_per_packet_j is not None else None,
            round(run.mean_delay_s * 1e3, 1),
            run.dropped_overflow,
        ])
    print(render_table(
        ["protocol", "generated", "delivered", "delivery", "energy J",
         "mJ/packet", "delay ms", "overflow"],
        rows,
        title=f"{args.nodes} nodes, {args.horizon:.0f} s, load 5 pkt/s",
    ))
    print("expected shape (paper): energy LEACH > S1 > S2;")
    print("delay/overflow S2 worst; S1 balances both.")


if __name__ == "__main__":
    main()
