#!/usr/bin/env python3
"""Report-only dead-API scan: lists every `pub fn` in `crates/*/src`
(the benchmark crate excluded) that nothing calls outside `#[cfg(test)]`
code.

A free function counts as called when its name appears as a whole word,
and a function inside an `impl` when it appears after `.` or `::`, on a
line that is neither a comment, a `fn` definition nor part of a `pub use`
re-export, in any `.rs` file under `crates`, `src`, `tests` or `examples`
(the benchmark included, as a caller).  In a `src` file, everything from
its first `#[cfg(test)]` on is test code and does not count.  The match is
by name only, so a name defined twice is reported only when neither
definition has a caller: the list can miss dead functions, but every
function it lists has no caller outside tests.

Run from the repository root: `python3 scripts/dead_api.py`.  It prints
one `path:line: name` per function and always exits 0.
"""

import pathlib
import re
import sys

ROOTS = ("crates", "src", "tests", "examples")
DEF = re.compile(r"^(\s*)pub fn (\w+)")
ANY_DEF = re.compile(r"\bfn (\w+)")
WORD = re.compile(r"(\.|::)?\b(\w+)\b")


def live_lines(path):
    """(line number, text) of the lines that are not test code, comments or
    re-exports."""
    in_src = "src" in path.parts
    in_reexport = False
    for number, line in enumerate(path.read_text().splitlines(), 1):
        text = line.strip()
        if in_src and text.startswith("#[cfg(test)]"):
            return
        if text.startswith("pub use"):
            in_reexport = True
        if not in_reexport and not text.startswith("//"):
            yield number, line
        in_reexport = in_reexport and ";" not in text


def main():
    files = sorted(
        p
        for root in ROOTS
        for p in pathlib.Path(root).rglob("*.rs")
        if "target" not in p.parts
    )
    defined = []
    # Uses of a name: any, and qualified (after `.` or `::`).
    uses, qualified = set(), set()
    for path in files:
        scanned = path.parts[0] == "crates" and path.parts[2] == "src"
        for number, line in live_lines(path):
            m = DEF.match(line)
            if m and scanned and path.parts[1] != "benchmark":
                defined.append((path, number, m.group(2), m.group(1) != ""))
            own = set(ANY_DEF.findall(line))
            for prefix, word in WORD.findall(line):
                if word not in own:
                    uses.add(word)
                    if prefix:
                        qualified.add(word)
    dead = [
        (p, n, name)
        for p, n, name, method in defined
        if name not in (qualified if method else uses)
    ]
    for path, number, name in dead:
        print(f"{path}:{number}: {name}")
    print(f"{len(dead)} of {len(defined)} pub fns have no caller outside tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
