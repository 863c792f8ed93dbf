"""Rewrite perfbench/pins.json from one clean pass of every workload.

    python3 perfbench/pin.py

Run it only on a commit whose output is known good: the pins are what every
later pass is checked against.
"""

import json

from run import HERE, WORKLOADS, make_pin

if __name__ == "__main__":
    pins = {name: make_pin(name, spec) for name, spec in WORKLOADS.items()}
    with open(HERE / "pins.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
