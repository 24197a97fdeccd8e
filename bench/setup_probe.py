"""Time beamsel's set-up in a fresh interpreter, up to the first realization.

    python3 bench/setup_probe.py SRC_DIR CONFIG_FILE [KEY=VALUE ...]

Imports beamsel.cli from SRC_DIR, parses CONFIG_FILE, applies the overrides
and validates every sweep point, then prints {"import_s", "load_s",
"violations"} as JSON. Exits 1 when a point is invalid.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from beamsel import cli  # noqa: E402
from beamsel.core import validate_config  # noqa: E402

t1 = time.perf_counter()
ec = cli.apply_cli_overrides(cli.parse_config(sys.argv[2]), tuple(sys.argv[3:]))
violations = [v for _, cfg in ec.points() for v in validate_config(cfg)]
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "violations": violations}))
sys.exit(1 if violations else 0)
