#!/usr/bin/env python3
"""Census of the simulator's settable options.

Lists every field of every ``*Config`` / ``*Options`` struct declared
under ``src/`` and counts the places that assign it (``.f =``,
``->f =`` and ``.f{``) in ``src/``, ``bench/``, ``tools/``,
``examples/``, ``perfbench/`` and ``tests/``. A field that nothing
assigns is a constant posing as an option: make it a named constant
where it is used instead.

Fields are matched by name, so a name shared by two structs counts
the assignments of both.

Usage: tools/check_options.py [--list]
Exits 1 if any field is never assigned.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ["src", "bench", "tools", "examples", "perfbench", "tests"]
TEST_DIRS = ["tests", os.path.join("perfbench", "tests")]
SOURCE_EXT = (".hh", ".h", ".hpp", ".cc", ".cpp")

STRUCT_RE = re.compile(r"\bstruct\s+(\w*(?:Config|Options))\b[^;{]*\{")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
SKIP_PREFIXES = ("static", "using", "friend", "enum", "struct", "class",
                 "typedef", "template", "public", "private", "protected")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def source_files(dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for name in sorted(files):
                if name.endswith(SOURCE_EXT):
                    yield os.path.join(base, name)


def matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces")


def member_statements(body):
    """Split a struct body into its top-level member declarations.

    A brace group that follows ``)`` (optionally ``const``/``noexcept``)
    is a function body and ends its statement; any other brace group is
    an initializer and the statement runs on to the next ``;``.
    """
    stmts, start, i = [], 0, 0
    while i < len(body):
        c = body[i]
        if c == "{":
            end = matching_brace(body, i)
            head = body[start:i].rstrip()
            if re.search(r"\)\s*(const|noexcept|override|\s)*$", head) \
                    or head.startswith(SKIP_PREFIXES):
                stmts.append(body[start:end + 1])
                i = end + 1
                if i < len(body) and body[i] == ";":
                    i += 1
                start = i
                continue
            i = end + 1
            continue
        if c == ";":
            stmts.append(body[start:i])
            start = i + 1
        i += 1
    return stmts


def field_name(stmt):
    s = " ".join(stmt.split())
    if not s or s.startswith(SKIP_PREFIXES) or ":" in s.split("=")[0] \
            .replace("::", ""):
        return None
    s = s.split("=", 1)[0]
    if "{" in s:
        s = s[:s.index("{")]
    if "(" in s or "operator" in s:
        return None
    names = IDENT_RE.findall(s)
    return names[-1] if len(names) >= 2 else None


def declared_fields():
    fields = []
    for path in source_files(["src"]):
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        for m in STRUCT_RE.finditer(text):
            open_pos = m.end() - 1
            body = text[open_pos + 1:matching_brace(text, open_pos)]
            for stmt in member_statements(body):
                name = field_name(stmt)
                if name:
                    fields.append((m.group(1), name,
                                   os.path.relpath(path, ROOT)))
    return fields


def assignment_counts(names):
    pattern = re.compile(r"(?:\.|->)\s*(%s)\s*(?:=(?!=)|\{)"
                         % "|".join(sorted(names, key=len, reverse=True)))
    total = {n: 0 for n in names}
    outside_tests = {n: 0 for n in names}
    test_roots = tuple(os.path.join(ROOT, d) + os.sep for d in TEST_DIRS)
    for path in source_files(SCAN_DIRS):
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        in_tests = path.startswith(test_roots)
        for m in pattern.finditer(text):
            total[m.group(1)] += 1
            if not in_tests:
                outside_tests[m.group(1)] += 1
    return total, outside_tests


def main(argv):
    fields = declared_fields()
    total, outside_tests = assignment_counts({f[1] for f in fields})
    never = [f for f in fields if total[f[1]] == 0]
    test_only = [f for f in fields
                 if total[f[1]] > 0 and outside_tests[f[1]] == 0]
    structs = len({(f[0], f[2]) for f in fields})
    print("option fields: %d in %d structs" % (len(fields), structs))
    print("never assigned: %d" % len(never))
    print("assigned only by tests: %d" % len(test_only))
    if "--list" in argv:
        for struct, name, path in test_only:
            print("  test-only  %s::%s (%s)" % (struct, name, path))
    for struct, name, path in never:
        print("  never assigned  %s::%s (%s)" % (struct, name, path))
    return 1 if never else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
