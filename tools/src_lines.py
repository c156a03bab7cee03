#!/usr/bin/env python3
"""Prints the source line counts that ROADMAP.md and CHANGES.md cite.

Counts newline-terminated lines of the C++ sources (`.h` and `.cpp` files,
recursively; CMakeLists and other files are not code and do not count) in
three groups: all of `src/`, the network layers `src/serve` + `src/cluster`,
and the stream engine `src/stream`. Run from anywhere; pass another
checkout's root to count that one instead:

    python3 tools/src_lines.py [REPO_ROOT]
"""

import sys
from pathlib import Path

GROUPS = [
    ("src", ["src"]),
    ("src/serve + src/cluster", ["src/serve", "src/cluster"]),
    ("src/stream", ["src/stream"]),
]


def lines_under(root: Path, rel: str) -> int:
    """Lines of every .h/.cpp file below root/rel, as `wc -l` counts them."""
    return sum(
        path.read_bytes().count(b"\n")
        for path in (root / rel).rglob("*")
        if path.suffix in (".h", ".cpp") and path.is_file()
    )


def main() -> int:
    root = (
        Path(sys.argv[1]).resolve()
        if len(sys.argv) > 1
        else Path(__file__).resolve().parent.parent
    )
    if not (root / "src").is_dir():
        print(f"src_lines: no src/ under {root}", file=sys.stderr)
        return 1
    width = max(len(name) for name, _ in GROUPS)
    for name, dirs in GROUPS:
        total = sum(lines_under(root, d) for d in dirs)
        print(f"{name:<{width}}  {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
