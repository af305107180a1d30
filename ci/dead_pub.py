#!/usr/bin/env python3
"""Report public library functions that nothing outside their crate calls.

Copies the tracked tree to a temporary directory and there narrows to
`pub(crate)` every `pub fn` of a library crate (`crates/*` except `bench`
and `testkit`) whose name no tracked `.rs` file outside that crate's
`src/` mentions, keeping `pub` on every name a `pub use` re-exports
or an exported macro reaches through `$crate::`. For a module-level
(unindented) `pub fn`, a mention after a `.` (a method call or field)
or after `fn ` (another definition) does not count: neither can reach
a free function, and common names like `to_json` are methods all over
the tree. `cargo check
--workspace --lib --bins` then warns about each narrowed function that
its own crate never calls either: public API that only tests, or nothing
at all, reach. Prints each narrowed `file: function`, then those
warnings, and exits 1 if there are any warnings.

Run from anywhere inside the repository: `python3 ci/dead_pub.py`.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = {"bench", "testkit"}
PUB_FN = re.compile(r"^(\s*)pub fn (\w+)", re.M)
PUB_USE = re.compile(r"\bpub use [^;]*;", re.S)
# Exported macros reach their crate's functions through `$crate::` paths.
MACRO_PATH = re.compile(r"\$crate::[\w:]+")


def main():
    root = Path(subprocess.check_output(["git", "rev-parse", "--show-toplevel"], text=True).strip())
    listed = subprocess.check_output(["git", "ls-files", "-z"], cwd=root, text=True).split("\0")
    files = [f for f in listed if f and (root / f).is_file()]
    text = {f: (root / f).read_text(encoding="utf-8") for f in files if f.endswith(".rs")}
    kept = set()
    for body in text.values():
        for stmt in PUB_USE.findall(body) + MACRO_PATH.findall(body):
            kept.update(re.findall(r"\w+", stmt))

    with tempfile.TemporaryDirectory(prefix="dead-pub-") as tmp:
        for f in files:
            (Path(tmp) / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / f, Path(tmp) / f)
        narrowed = []
        crates = {f.split("/")[1] for f in text if f.startswith("crates/")} - SKIP
        for crate in sorted(crates):
            src = f"crates/{crate}/src/"
            outside = "\n".join(b for f, b in text.items() if not f.startswith(src))

            def narrow(m, f):
                name = m.group(2)
                free = "" if m.group(1) else r"(?<!\.)(?<!fn )"
                if name in kept or re.search(rf"{free}\b{name}\b", outside):
                    return m.group(0)
                narrowed.append(f"{f}: {name}")
                return f"{m.group(1)}pub(crate) fn {name}"

            for f in (f for f in text if f.startswith(src)):
                body = PUB_FN.sub(lambda m: narrow(m, f), text[f])
                (Path(tmp) / f).write_text(body, encoding="utf-8")
        check = subprocess.run(
            ["cargo", "check", "--offline", "--workspace", "--lib", "--bins",
             "--message-format=short"],
            cwd=tmp, capture_output=True, text=True,
            env=dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "target")),
        )
    if check.returncode != 0:
        sys.stderr.write(check.stderr)
        sys.exit(f"cargo check failed (exit {check.returncode})")
    dead = sorted({line for line in check.stderr.splitlines() if "never used" in line})
    for line in narrowed + dead:
        print(line)
    names = sum(len(re.findall(r"`(\w+)`", line)) for line in dead)
    print(f"{len(narrowed)} functions narrowed to pub(crate); {names} never used")
    sys.exit(1 if dead else 0)


if __name__ == "__main__":
    main()
