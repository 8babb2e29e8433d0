"""Rewrite ``pins.json``: the outputs of the pinned seed on this checkout.

    PYTHONPATH=src python3 perfbench/pin.py

Only for a change that states a modelling fix: the pins are the
benchmark's output check, so re-pinning must be deliberate.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from workloads import (
    CAMPAIGN,
    ENGINES,
    PINNED_SEED,
    ROOT,
    campaign_argv,
    fingerprint,
    text_fingerprint,
)


def main() -> None:
    from repro import cli
    from repro.api import simulate

    pins = {}
    for name, wl in ENGINES.items():
        opts = wl.options()
        pins[name] = {
            "seed": PINNED_SEED,
            "fingerprints": [
                fingerprint(simulate(cfg, opts)) for cfg in wl.configs(PINNED_SEED)
            ],
        }
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            db = str(Path(tmp) / "c.sqlite")
            code = cli.main(campaign_argv(PINNED_SEED, db, "serial"))
        if code != 0:
            raise SystemExit(f"campaign exited {code}")
    pins[CAMPAIGN] = {"seed": PINNED_SEED, "sha256": text_fingerprint(out.getvalue())}
    path = Path(__file__).with_name("pins.json")
    path.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
