"""Run the suite from a source checkout, without an install: `src/` goes
first on this process's import path and on the PYTHONPATH that the CLI
subprocesses of the acceptance tests inherit."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
