#!/usr/bin/env python3
"""Count the workspace's non-test code lines.

A counted line is non-blank, is not a `//` comment (`///` and `//!` doc
comments included), and sits outside every `#[cfg(test)]` module, in a
`.rs` file under `crates/*/src`, `src/` or `examples/`. A `#[cfg(test)]`
module ends at the first `}` line at its own indentation (the layout
rustfmt produces).

Usage: python3 scripts/count_code_lines.py [--per-file] [REPO_ROOT]
"""

import glob
import os
import sys


def count_lines(text):
    """Counted lines of one Rust source text."""
    lines = text.splitlines()
    count = 0
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == "#[cfg(test)]":
            # Find the item the attribute applies to.
            k = i + 1
            while k < len(lines) and not lines[k].strip():
                k += 1
            item = lines[k] if k < len(lines) else ""
            if item.strip().startswith("mod ") and item.rstrip().endswith("{"):
                indent = item[: len(item) - len(item.lstrip())]
                end = k + 1
                while end < len(lines) and lines[end].rstrip() != indent + "}":
                    end += 1
                i = end + 1
                continue
        if stripped and not stripped.startswith("//"):
            count += 1
        i += 1
    return count


def source_files(root):
    """Every counted `.rs` file under `root`, sorted."""
    patterns = ["crates/*/src/**/*.rs", "src/**/*.rs", "examples/**/*.rs"]
    files = set()
    for pattern in patterns:
        files.update(glob.glob(os.path.join(root, pattern), recursive=True))
    return sorted(files)


def count_tree(root):
    """`(total, {relative path: count})` for the tree at `root`."""
    per_file = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            per_file[os.path.relpath(path, root)] = count_lines(f.read())
    return sum(per_file.values()), per_file


def main(argv):
    per_file = "--per-file" in argv
    args = [a for a in argv if a != "--per-file"]
    root = args[0] if args else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    total, files = count_tree(root)
    if per_file:
        for path, n in sorted(files.items(), key=lambda kv: -kv[1]):
            print(f"{n:7d}  {path}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
