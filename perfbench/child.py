"""Entry point of each cli workload child: run ``numrep.cli.main`` on argv.

The numrep script is not installed, so each child imports the package
from the checkout's ``src`` directory.  stdout is exactly what ``main``
writes; the last line on stderr is a JSON object with the import and
``main`` times in milliseconds.

    python3 perfbench/child.py convert --kind binary --from int --to literal 4
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import numrep.cli  # noqa: E402

t1 = time.perf_counter()
code = numrep.cli.main(sys.argv[1:])
sys.stdout.flush()
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "main_ms": (t2 - t1) * 1e3}), file=sys.stderr)
sys.exit(code)
