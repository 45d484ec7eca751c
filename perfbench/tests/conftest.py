"""The benchmark's modules import each other by bare name, as run.py does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import specs  # noqa: E402

specs.use_source_tree()
