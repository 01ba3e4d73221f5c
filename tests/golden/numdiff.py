"""Say how far the numbers moved between two output trees.

    python3 tests/golden/numdiff.py OLD_DIR NEW_DIR

For a change that moves golden digests on purpose, run the CLI as
``test_golden.output_digests`` does (or any other way) into two trees, one
per version, and compare them. Each file that differs gets one row: the
count of numbers that moved, with the largest absolute and relative
change. Any other difference gets its own row: a word or field that
changed, a different row count, or a file found in only one tree.
Identical trees print nothing. Exit 0 when the trees are identical, 1
when any file differs, 2 on a usage error.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")  # NaN counts as a word
SHOWN = 5  # text differences listed per file


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _rows(name: str, old: str, new: str) -> list[str]:
    """The rows for one file that differs."""
    a, b = old.splitlines(), new.splitlines()
    rows = [] if len(a) == len(b) else [f"{name}: {len(a)} rows -> {len(b)}"]
    moved, max_abs, max_rel, words = 0, 0.0, 0.0, []
    for lineno, (la, lb) in enumerate(zip(a, b), 1):
        if la == lb:
            continue
        pa, pb = NUMBER.split(la), NUMBER.split(lb)  # text at even, numbers at odd indices
        if len(pa) != len(pb) or pa[::2] != pb[::2]:
            words.append(f"{name}:{lineno}: {la!r} -> {lb!r}")
            continue
        for sa, sb in zip(pa[1::2], pb[1::2]):
            x, y = float(sa), float(sb)
            if x == y:
                if sa != sb:  # one value written two ways
                    words.append(f"{name}:{lineno}: {sa!r} -> {sb!r}")
                continue
            moved += 1
            change = abs(y - x)
            max_abs = max(max_abs, change)
            max_rel = max(max_rel, change / abs(x) if x else math.inf)
    if moved:
        rows.append(f"{name}: numbers moved: {moved}, max abs {max_abs:.3g}, "
                    f"max rel {max_rel:.3g}")
    rows += words[:SHOWN]
    if len(words) > SHOWN:
        rows.append(f"{name}: {len(words) - SHOWN} more lines with text changes")
    if not rows:  # same lines, different bytes: line endings or undecodable bytes
        rows.append(f"{name}: same lines, different bytes")
    return rows


def diff_trees(old: Path, new: Path) -> list[str]:
    """One or more rows per file that differs between the trees, by path."""
    old, new = Path(old), Path(new)
    a, b = _files(old), _files(new)
    rows = []
    for name in sorted(a | b):
        if name not in b:
            rows.append(f"{name}: only in {old}")
        elif name not in a:
            rows.append(f"{name}: only in {new}")
        else:
            ta, tb = (root.joinpath(name).read_bytes() for root in (old, new))
            if ta != tb:
                rows += _rows(name, ta.decode("utf-8", "replace"), tb.decode("utf-8", "replace"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: numdiff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    rows = diff_trees(*argv)
    for row in rows:
        print(row)
    return 1 if rows else 0


if __name__ == "__main__":
    sys.exit(main())
