#!/usr/bin/env python3
"""Fence the storage tier: no raw SoaStore row access outside its owners,
and no fail-stop pin on the query path.

``ts::SoaStore`` keeps three resident-only escape hatches —
``resident_row()``, ``resident_values()``, ``resident_data()`` — for the
two layers that legitimately sit below the paging tier:

* ``src/ts/``        — the store, the buffer pool and the view itself;
* ``src/distance/``  — the resident-only whole-store batch wrappers.

Every other consumer (engines, index, server, tools, benches) must go
through ``ts::StoreView`` pins so it works identically for paged stores.

``ts::PinOrAbort`` and ``ts::PinRowOrAbort`` abort the process when a
paged store's spill log cannot be read. A query must instead return that
failure as a ``Status`` (``query::detail::ScanRows`` / ``ScoreRow`` and
``UncertainEngine::Answer``), so the server answers the one request with
an error. The abort tokens are fenced out of the query path:
``src/query`` (except ``src/query/engine.cpp``, whose ground-truth and
motif loops still return plain values until the certain engine folds into
the uncertain one), ``src/server`` and ``src/core``. The synopsis index
build (``src/index``) keeps its abort for the same reason.

This script greps the fenced trees for each token set and fails on any
hit, so a new call site cannot silently reintroduce a resident-only
assumption or an abort on the query path. Tests are exempt: they pin the
escape hatch's own contract.

Usage:
    tools/check_store_raw_access.py [--root .]
"""

import argparse
import pathlib
import re
import sys

# (tokens, fenced directories, files allowed inside them, failure message)
FENCES = [
    (re.compile(r"\bresident_(?:row|values|data)\s*\("),
     ["src/query", "src/index", "src/server", "src/io", "src/measures",
      "src/uncertain", "src/core", "src/datagen", "src/exec", "src/prob",
      "src/wavelet", "bench", "tools"],
     set(),
     "raw SoaStore access outside src/ts + src/distance "
     "(use ts::StoreView pins)"),
    (re.compile(r"\bPin(?:Row)?OrAbort\b"),
     ["src/query", "src/server", "src/core"],
     {"src/query/engine.cpp"},
     "fail-stop pin on the query path "
     "(pin with ts::StoreView::Pin and return the Status)"),
]

SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)

    failed = False
    for tokens, fenced, allowed, message in FENCES:
        violations = []
        for fence in fenced:
            base = root / fence
            if not base.exists():
                continue
            for path in sorted(base.rglob("*")):
                relative = path.relative_to(root).as_posix()
                if path.suffix not in SUFFIXES or relative in allowed:
                    continue
                for lineno, line in enumerate(
                        path.read_text(errors="replace").splitlines(), 1):
                    if tokens.search(line):
                        violations.append(f"{relative}:{lineno}: "
                                          f"{line.strip()}")
        if violations:
            failed = True
            print(f"FAIL {message}:")
            for v in violations:
                print(f"  {v}")
    if failed:
        return 1
    print("OK   no raw SoaStore row access outside the storage tier, "
          "no fail-stop pin on the query path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
