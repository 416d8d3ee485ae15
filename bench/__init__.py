"""Wall-clock benchmark of the TCP stack (see bench/README.md).

The system under test is imported from this checkout's ``src/``; the
benchmark's one command carries no environment, so the path is added
here unless the caller already put a ``repro`` on it via PYTHONPATH.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.append(_SRC)
