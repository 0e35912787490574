"""Set-up cost in a fresh interpreter: `import gamehedge` plus parsing every job's scenario.

    python3 perfbench/setup_probe.py SCENARIOS.json

SCENARIOS.json holds a list of scenario texts.  Prints the elapsed seconds
and, taken after them, the machine probe's seconds (see probe.py).
"""

import json
import sys
import time

with open(sys.argv[1], encoding="utf-8") as fh:
    texts = json.load(fh)

t0 = time.perf_counter()
import gamehedge  # noqa: E402
from gamehedge.scenario import Scenario  # noqa: E402

for text in texts:
    Scenario.from_text(text)
elapsed = time.perf_counter() - t0

from probe import median_probe  # noqa: E402

print(json.dumps({"seconds": elapsed, "probe": median_probe(), "module": gamehedge.__file__,
                  "scenarios": len(texts)}))
