import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def saved_environ():
    """``run.main`` rewrites ``REPRO_*`` variables; put them back."""
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)
