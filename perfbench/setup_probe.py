"""One set-up measurement in a fresh process; prints the seconds it took.

Set-up is what every causetrace process pays before its first operation:
import the package, then load and validate benchmark.json and all seven
scenario files.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
t0 = time.perf_counter()
import causetrace  # noqa: E402,F401
import workloads  # noqa: E402  (stdlib imports only, all loaded by causetrace)

workloads.load_inputs()
print(repr(time.perf_counter() - t0))
