"""Put the benchmark's modules on the import path (they are scripts, not a package)."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
