"""``import repro`` stays light: no numpy, no process pools.

Every benchmark round and every spawned component host pays the import
of the ``repro`` package, so the import graph is part of the cost of a
run.  Pinned in a fresh interpreter, because this test process has
already imported whatever the rest of the suite needed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys
import repro, repro.integration
heavy = [name for name in ("numpy", "concurrent.futures.process") if name in sys.modules]
print(",".join(heavy))
"""


def test_import_repro_loads_neither_numpy_nor_process_pools():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == ""
