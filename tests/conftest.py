"""Child interpreters started by the tests import windowalg from this
checkout's src/, as the test process does (pythonpath in pyproject.toml)."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
