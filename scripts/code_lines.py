#!/usr/bin/env python3
"""Count OCaml code lines: non-blank lines with text outside comments.

Usage: scripts/code_lines.py PATH...   (files, or directories searched for
*.ml and *.mli). Comments nest; string and character literals are skipped,
so a "(*" inside a string opens nothing. Prints one count per path, then the
total when given several paths.
"""
import pathlib
import re
import sys

# A character literal: an escape ('\n', '\'', '\065') or one plain character.
CHAR = re.compile(r"'(\\([\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2})|[^\\'\n])'")


def count(text):
    depth, in_str, lines, code = 0, False, 0, False
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            lines, code = lines + code, False
        elif in_str:
            if c == "\\" and text[i + 1 : i + 2] != "\n":
                i += 1
            elif c == '"':
                in_str = False
            code = code or depth == 0
        elif text.startswith("(*", i):
            depth, i = depth + 1, i + 1
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 1
        elif c == '"':
            in_str, code = True, code or depth == 0
        elif c == "'" and CHAR.match(text, i):
            i = CHAR.match(text, i).end() - 1
            code = code or depth == 0
        elif not c.isspace() and depth == 0:
            code = True
        i += 1
    return lines + code


def files(path):
    p = pathlib.Path(path)
    return sorted(p.rglob("*.ml")) + sorted(p.rglob("*.mli")) if p.is_dir() else [p]


if __name__ == "__main__":
    counts = [sum(count(f.read_text()) for f in files(a)) for a in sys.argv[1:]]
    for arg, n in zip(sys.argv[1:], counts):
        print(f"{n:7d} {arg}")
    if len(counts) > 1:
        print(f"{sum(counts):7d} total")
