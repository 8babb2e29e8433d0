#!/usr/bin/env python3
"""Campaign study: a protocol × load × seed grid through `repro.api`.

The full new-API workflow in one script:

1. build a template :class:`~repro.api.Scenario` from a preset;
2. expand it into a :class:`~repro.api.Campaign` grid (3 protocols ×
   3 loads × 2 seeds = 18 runs);
3. execute under any ``--executor SPEC`` — ``serial``, ``pool:4``,
   ``supervised:retries=2``... (results bit-identical to serial) while
   streaming every raw run into a :class:`~repro.api.ResultStore`;
4. aggregate with :meth:`CampaignResult.select` and re-load the store to
   show that nothing needs re-simulating.

Run:  python examples/campaign_study.py [--executor pool:4] [--store runs.jsonl]
"""

import argparse

from repro.api import Campaign, ResultStore, Scenario
from repro.config import Protocol
from repro.experiments import render_table
from repro.metrics.summary import summarize

LOADS = (5.0, 15.0, 25.0)
SEEDS = (1, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="smoke",
                        choices=("smoke", "quick", "full"))
    parser.add_argument("--executor", default="serial", metavar="SPEC",
                        help="execution backend, e.g. serial or pool:4")
    parser.add_argument("--store", default=None,
                        help="also persist raw runs to this .jsonl path")
    args = parser.parse_args()

    base = Scenario.from_preset(args.preset)
    campaign = (
        Campaign(base, name="load-grid")
        .over(protocol=list(Protocol), load_pps=list(LOADS))
        .seeds(SEEDS)
    )
    print(f"executing {len(campaign)} scenarios ...")
    store = ResultStore(args.store) if args.store else None
    result = campaign.run(executor=args.executor, store=store)

    rows = []
    for load in LOADS:
        row = [load]
        for proto in Protocol:
            runs = result.select(protocol=proto, load_pps=load)
            row.append(summarize(
                [r.delivery_rate for r in runs if r.delivery_rate is not None]
            ).mean)
        rows.append(row)
    print(render_table(
        ["load_pps"] + [p.value for p in Protocol],
        rows,
        title=f"delivery rate vs load ({args.preset} preset, "
              f"{len(SEEDS)} seeds)",
    ))

    if store is not None:
        reloaded = ResultStore(args.store).load()
        print(f"store round-trip: {len(reloaded)} runs reloaded from "
              f"{args.store} — re-render any table without re-simulating.")


if __name__ == "__main__":
    main()
