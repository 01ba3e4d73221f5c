"""Rewrite golden.json from the program as it is now.

    PYTHONPATH=src python3 tests/golden/update.py

Run it only when outputs move on purpose, and say in CHANGES.md why each
moved file in the diff of golden.json moved.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import numpy as np  # noqa: E402

from test_golden import GOLDEN, output_digests, write_corpus  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = output_digests(write_corpus(tmp / "wavs"), tmp / "out", jobs=1)
    payload = {"numpy": np.__version__, "files": files}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{GOLDEN}: {len(files)} files")


if __name__ == "__main__":
    main()
