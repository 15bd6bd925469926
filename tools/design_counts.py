"""Print the design numbers: lines of `src/alexgeo/*.py` and lines holding `isinstance`.

Usage, from the repository root:

    python tools/design_counts.py

It takes no options.  Each module gets one line with its line count and
the number of its lines that contain `isinstance`; the last line is the
total.
"""

from __future__ import annotations

from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "alexgeo"


def main():
    total_lines = total_isinstance = 0
    for path in sorted(SOURCE.glob("*.py")):
        lines = path.read_text().splitlines()
        hits = sum("isinstance" in line for line in lines)
        total_lines += len(lines)
        total_isinstance += hits
        print(f"{path.name:16} {len(lines):5} lines  {hits:4} isinstance")
    print(f"{'total':16} {total_lines:5} lines  {total_isinstance:4} isinstance")


if __name__ == "__main__":
    main()
