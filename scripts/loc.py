#!/usr/bin/env python3
"""Line counts of src/: per module, in total, and per link closure.

    python3 scripts/loc.py [--root DIR]

Counts the lines of every .hpp and .cpp file directly under src/<module>/
(CMakeLists.txt and other files are not counted). The link closure of a
target is the target's module plus every parma_* library it reaches through
target_link_libraries in src/*/CMakeLists.txt; its size is the summed line
count of those modules.
"""
import argparse
import re
from pathlib import Path

CLOSURES = ("parma_net", "parma_solver")


def module_lines(src):
    counts = {}
    for module in sorted(p for p in src.iterdir() if p.is_dir()):
        total = 0
        for f in module.iterdir():
            if f.suffix in (".hpp", ".cpp"):
                with f.open("rb") as fh:
                    total += sum(1 for _ in fh)
        counts[module.name] = total
    return counts


def link_graph(src):
    graph = {}
    for cmake in src.glob("*/CMakeLists.txt"):
        text = cmake.read_text()
        for target, body in re.findall(r"target_link_libraries\(\s*(parma_\w+)([^)]*)\)", text):
            graph.setdefault(target, set()).update(re.findall(r"\bparma_\w+", body))
    return graph


def closure(target, graph):
    seen = set()
    stack = [target]
    while stack:
        t = stack.pop()
        if t not in seen:
            seen.add(t)
            stack.extend(graph.get(t, ()))
    return seen


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent, type=Path,
                        help="repository root (default: this script's repo)")
    src = parser.parse_args().root / "src"
    counts = module_lines(src)
    graph = link_graph(src)
    for module, lines in counts.items():
        print(f"{module:<12} {lines:>7,}")
    print(f"{'total':<12} {sum(counts.values()):>7,}")
    for target in CLOSURES:
        members = sorted(t[len("parma_"):] for t in closure(target, graph))
        lines = sum(counts.get(m, 0) for m in members)
        print(f"closure {target}: {lines:,} lines ({len(members)} modules: {' '.join(members)})")


if __name__ == "__main__":
    main()
