#!/usr/bin/env python3
"""List the public API under crates/ whose name no other non-test code holds.

Method: the definitions are every `pub` fn, const, struct, enum, trait or
type in the files `count_lines.py` counts (`.rs` under `crates/*/src` and
`crates/*/benches`, skipping the `*-shim` crates, each cut at its first
unindented `#[cfg(test)]` line; this script takes both the walk and the cut
from `count_lines.py`). The corpus is the non-test part, cut the same way,
of those files plus `examples/`, `perfbench/src` and the root `src/`, less
its `pub use` statements: a re-export names an item but does not use it. A
fn is listed when the corpus never calls it (`name(` or `name::<…>(`, its
own `fn name(` aside) and never names it by path (`::name`): a field or a
local of the same word is not a use. Any other item is listed when the
corpus holds its name, as a whole word, no more often than it is defined:
nothing but its own definition mentions it. Names are matched without
their paths, so a name shared by two items, or named in a comment, hides
an item; the list is a floor, not the full set of dead code.

The items kept on purpose are listed, one `path name` pair a line with its
reason, in `.github/callers_kept.txt`, the one copy of that list.

Usage: python3 .github/callers.py
Reads the working tree and prints one `path:line kind name` row per
listed item, then a count. It exits 1 when an item is callerless but not
kept, or kept but no longer callerless (it gained a caller or is gone).
"""
import os
import pathlib
import re
import sys
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from count_lines import non_test, sources  # noqa: E402

EXTRA = ["examples", "perfbench/src", "src"]
KEPT = ".github/callers_kept.txt"
DEF = re.compile(r"^\s*pub\s+(?:const\s+|unsafe\s+)*(fn|const|struct|enum|trait|type)\s+(\w+)", re.M)
REEXPORT = re.compile(r"^\s*pub\s+use\b[^;]*;", re.M)
WORD = re.compile(r"\w+")
CALL = re.compile(r"(?<!fn )\b(\w+)\s*(?:::<[^()]*>)?\(|::(\w+)\b")


def main():
    os.chdir(pathlib.Path(__file__).resolve().parents[1])
    extra = sorted(p.as_posix() for d in EXTRA for p in pathlib.Path(d).rglob("*.rs"))
    defs, words, calls, corpus = [], Counter(), Counter(), []
    for path, _, text in sources():
        text = "\n".join(non_test(text))
        for m in DEF.finditer(text):
            line = text.count("\n", 0, m.start(2)) + 1
            defs.append((path, line, m.group(1), m.group(2)))
        corpus.append(text)
    corpus += ["\n".join(non_test(pathlib.Path(path).read_text())) for path in extra]
    for text in corpus:
        text = REEXPORT.sub("", text)
        words.update(WORD.findall(text))
        calls.update(a or b for a, b in CALL.findall(text))
    defined = Counter(name for *_, name in defs)
    rows = [d for d in defs
            if (calls[d[3]] == 0 if d[2] == "fn" else words[d[3]] <= defined[d[3]])]
    for path, line, kind, name in rows:
        print(f"{path}:{line} {kind} {name}")
    print(f"{len(rows)} callerless of {len(defs)} public items")
    kept = {tuple(line.split()[:2]) for line in pathlib.Path(KEPT).read_text().splitlines()
            if line.strip() and not line.startswith("#")}
    found = {(path, name) for path, _, _, name in rows}
    for path, name in sorted(found - kept):
        print(f"FAIL: {path} {name} has no caller and is not kept in {KEPT}")
    for path, name in sorted(kept - found):
        print(f"FAIL: {path} {name} is kept in {KEPT} but is not callerless")
    return 1 if found != kept else 0


if __name__ == "__main__":
    sys.exit(main())
