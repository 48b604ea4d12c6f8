#!/usr/bin/env python3
"""Print ROADMAP aim 2's two counts: lines of code and settable values.

Run from the repository root:

    python3 tools/aim2_counts.py [--list]

Lines: every line of every file under src/main and jobs/.

Settable values, over the .scala files of src/main and jobs/:
  * every defaulted parameter of a def, class or constructor, outside the
    config objects;
  * every field of the config objects (Training.TrainConfig, QdtsParams,
    RL4QDTS.Variant), defaulted or not;
  * every distinct BENCH_* environment variable name.

--list also prints each counted value with its file and line.
"""

import argparse
import re
import sys
from pathlib import Path

ROOTS = ["src/main", "jobs"]
CONFIGS = {"TrainConfig", "QdtsParams", "Variant"}

# a parameter-list owner: `def name[...]`, `def this`, `class Name[...]`,
# with an optional access modifier before the first list
OWNER = re.compile(r"\b(def\s+(\w+|this)|class\s+(\w+))\s*(\[[^\]]*\])?\s*(private(\[\w+\])?\s*)?(?=\()")
BENCH = re.compile(r"\bBENCH_[A-Z][A-Z0-9_]*")


def strip(src):
    """`src` with comments and string/char literals blanked, offsets kept."""
    out = list(src)
    i, n = 0, len(src)

    def blank(a, b):
        for j in range(a, b):
            if out[j] != "\n":
                out[j] = " "

    while i < n:
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif src.startswith("/*", i):
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif src.startswith('"""', i):
            j = src.find('"""', i + 3)
            j = n if j < 0 else j + 3
            blank(i + 1, j - 1)
            i = j
        elif src[i] == '"':
            j = i + 1
            while j < n and src[j] != '"' and src[j] != "\n":
                j += 2 if src[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        elif src[i] == "'" and i + 2 < n and (src[i + 2] == "'" or src[i + 1] == "\\"):
            j = src.find("'", i + 2)
            blank(i + 1, j)
            i = j + 1
        else:
            i += 1
    return "".join(out)


def param_lists(code, start):
    """The consecutive parenthesised lists from `start` as (offset, text)."""
    lists = []
    i = start
    while i < len(code) and code[i] == "(":
        depth, j = 0, i
        while j < len(code):
            depth += {"(": 1, ")": -1}.get(code[j], 0)
            if depth == 0:
                break
            j += 1
        lists.append((i + 1, code[i + 1:j]))
        i = j + 1
        while i < len(code) and code[i] in " \t\n":
            i += 1
    return lists


def params(offset, text):
    """Split a list at top-level commas: (offset, parameter text)."""
    parts, depth, begin = [], 0, 0
    for j, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append((offset + begin, text[begin:j]))
            begin = j + 1
    if text.strip():
        parts.append((offset + begin, text[begin:]))
    return parts


def has_default(p):
    """Whether parameter text `p` has a top-level `=` that is not `=>`."""
    depth = 0
    for j, c in enumerate(p):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "=" and depth == 0 and p[j + 1:j + 2] != ">" and p[j - 1:j] not in "=!<>":
            return True
    return False


def name_of(p):
    m = re.search(r"(\w+)\s*:", p)
    return m.group(1) if m else p.strip()


def count(root):
    lines = 0
    defaulted, fields, bench = [], [], {}
    for r in ROOTS:
        for f in sorted((root / r).rglob("*")):
            if not f.is_file():
                continue
            src = f.read_text(encoding="utf-8")
            lines += src.count("\n")
            if f.suffix != ".scala":
                continue
            rel = f.relative_to(root)
            code = strip(src)
            for m in BENCH.finditer(src):
                bench.setdefault(m.group(0), f"{rel}:{src.count(chr(10), 0, m.start()) + 1}")
            for m in OWNER.finditer(code):
                owner = m.group(2) or m.group(3)
                is_config = m.group(3) in CONFIGS
                for off, text in param_lists(code, m.end()):
                    for poff, p in params(off, text):
                        where = f"{rel}:{code.count(chr(10), 0, poff) + 1} {owner}.{name_of(p)}"
                        if is_config:
                            fields.append(where)
                        elif has_default(p):
                            defaulted.append(where)
    return lines, defaulted, fields, bench


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print every counted value")
    args = ap.parse_args()
    lines, defaulted, fields, bench = count(Path.cwd())
    if args.list:
        for title, items in (("defaulted parameters", defaulted), ("config fields", fields),
                             ("BENCH_* variables", [f"{v} {k}" for k, v in sorted(bench.items())])):
            print(f"# {title}")
            for it in items:
                print(f"  {it}")
    total = len(defaulted) + len(fields) + len(bench)
    print(f"lines (src/main + jobs/): {lines}")
    print(f"settable values: {total} ({len(defaulted)} defaulted parameters + "
          f"{len(fields)} config fields + {len(bench)} BENCH_* variables)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
