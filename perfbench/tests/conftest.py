"""Put the benchmark modules and the checkout's hamalg sources on the path.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))
