"""tests/golden/numdiff.py: how far numbers moved between two output trees."""

import importlib.util
from pathlib import Path

NUMDIFF = Path(__file__).parent / "golden" / "numdiff.py"
_spec = importlib.util.spec_from_file_location("numdiff", NUMDIFF)
numdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(numdiff)


def trees(tmp_path, old: dict, new: dict):
    """Two trees under tmp_path holding the given {relative path: text}."""
    roots = tmp_path / "old", tmp_path / "new"
    for root, files in zip(roots, (old, new)):
        root.mkdir()
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text, encoding="utf-8")
    return roots


def test_identical_trees_have_no_rows(tmp_path, capsys):
    files = {"a_report.json": '{"x": 0.25}\n', "sub/b.csv": "f,m\n1.0,2.5\n"}
    old, new = trees(tmp_path, files, files)
    assert numdiff.diff_trees(old, new) == []
    assert numdiff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""


def test_one_number_moved_by_1e_12(tmp_path):
    old, new = trees(tmp_path, {"s.csv": "f,residual\n1.0,0.5\n1.2,-0.25\n"},
                     {"s.csv": "f,residual\n1.0,0.500000000001\n1.2,-0.25\n"})
    assert numdiff.diff_trees(old, new) == ["s.csv: numbers moved: 1, max abs 1e-12, max rel 2e-12"]
    assert numdiff.main([str(old), str(new)]) == 1


def test_changed_word_row_count_and_missing_file(tmp_path):
    old, new = trees(tmp_path,
                     {"r.json": '{"domain": "AMS", "r": 0.5}\n', "gone.svg": "<svg/>\n",
                      "t.csv": "a\n1\n2\n"},
                     {"r.json": '{"domain": "AEMS", "r": 0.5}\n', "t.csv": "a\n1\n2\n3\n"})
    assert numdiff.diff_trees(old, new) == [
        f"gone.svg: only in {old}",
        """r.json:1: '{"domain": "AMS", "r": 0.5}' -> '{"domain": "AEMS", "r": 0.5}'""",
        "t.csv: 3 rows -> 4",
    ]
