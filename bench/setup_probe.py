"""Set-up probe: a fresh interpreter imports reservoirq, parses a config and
prepares its data, then prints the seconds since its parent spawned it.

Usage: python3 bench/setup_probe.py CONFIG OVERRIDES_JSON START

START is the parent's time.monotonic() taken just before the spawn. On
Linux that clock is system-wide, so the figure includes interpreter
start-up. bench/run.py starts this with reservoirq's src/ on PYTHONPATH.
"""

import sys
import time


def main():
    config_path, overrides, start = sys.argv[1], sys.argv[2], float(sys.argv[3])
    import dataclasses
    import json

    from reservoirq import harness
    config = dataclasses.replace(harness.ExperimentConfig.from_file(config_path),
                                 **json.loads(overrides))
    harness.prepare_data(config)
    print(time.monotonic() - start)


if __name__ == "__main__":
    main()
