"""Print the design numbers of `src/alexgeo/*.py`: lines, lines holding
`isinstance`, curvature-dispatch lines, and the size of the public API.

Usage, from the repository root:

    python tools/design_counts.py

It takes no options.  Each module gets one line with its line count, the
number of its lines that contain `isinstance`, and the number of its lines
that split on the curvature k (`k == 0.0`, `k == 1.0` or `elif k`); then
comes the total, and last the number of names `alexgeo/__init__.py`
imports, which is the package's public API.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "alexgeo"
K_DISPATCH = re.compile(r"\bk == 0\.0|\bk == 1\.0|\belif k\b")


def main():
    total_lines = total_isinstance = total_k = 0
    for path in sorted(SOURCE.glob("*.py")):
        lines = path.read_text().splitlines()
        hits = sum("isinstance" in line for line in lines)
        k_hits = sum(bool(K_DISPATCH.search(line)) for line in lines)
        total_lines += len(lines)
        total_isinstance += hits
        total_k += k_hits
        print(f"{path.name:16} {len(lines):5} lines  {hits:4} isinstance  {k_hits:3} k-dispatch")
    print(f"{'total':16} {total_lines:5} lines  {total_isinstance:4} isinstance  {total_k:3} k-dispatch")
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    names = sum(len(node.names) for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom)))
    print(f"{'api':16} {names:5} names imported by __init__.py")


if __name__ == "__main__":
    main()
