"""Time thzlink's set-up in a fresh interpreter and print it as JSON.

Set-up is ``import thzlink`` plus ``config.load_scenario``: reading,
parsing and filtering the catalog and building the scenario.

    PYTHONPATH=src python3 perfbench/setup_probe.py [CATALOG_PATH]
"""

import json
import sys
import time

start = time.perf_counter()
import thzlink  # noqa: E402  (the import is what is timed)
from thzlink import config  # noqa: E402

scenario = config.load_scenario(
    catalog_path=sys.argv[1] if len(sys.argv) > 1 else None)
setup_s = time.perf_counter() - start
print(json.dumps({"setup_s": setup_s, "module": thzlink.__file__,
                  "medium_lines": len(scenario.medium.lines)}))
