#!/usr/bin/env python3
"""Dead-surface scan: the library items that only tests reach.

Usage: scripts/dead_surface.py [REV]   (default REV: HEAD; run from the repo)

On a scratch copy of REV (`git archive`), with its own CARGO_TARGET_DIR,
both removed when the scan ends:

1. every `pub` in `crates/*/src` becomes `pub(crate)`;
2. the workspace's libraries, binaries and examples and the `benchmark/`
   package are checked (`cargo check --keep-going`);
3. `pub` goes back on each definition a privacy error names, and only
   there, until both build:
   - E0603 (private item) and E0624 (private method) carry the
     definition in a secondary span of the error or in its first
     "defined here" note;
   - E0364/E0365 (a re-export of a non-`pub` item) and "type `m::T` is
     private" carry none, so the name is looked up along its path in the
     defining crate;
   - E0616/E0451 (private field) name the struct and the field;
4. the `dead_code` and `unused_imports` warnings left are what only tests
   reach, printed one a line, sorted. Integration tests and the benchmark's
   `#[cfg(test)]` modules are not built, so they count as tests.

A method of a type with `impl Deref` whose target has a same-named `pub`
method is listed apart, under "unverified: shadowed through Deref": once
the method is crate-private, a call from another crate resolves through
`Deref` to the target's, so no privacy error names it and the scan cannot
tell whether anything calls it.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

PUB = re.compile(r"(?<![\w(])pub(?=\s)")
CRATE_DIR = re.compile(r"crates/([^/]+)/src/")
ITEM_KINDS = r"(?:struct|enum|union|trait|type|fn|const|static|mod|use|unsafe fn|async fn|const fn)"
IMPL = re.compile(r"^impl(?:<[^>]*>)?\s+(?:(?:std::ops::)?(Deref)\s+for\s+)?(\w+)")
TARGET = re.compile(r"^\s*type\s+Target\s*=\s*(\w+)")
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+(\w+)")


def rust_sources(root):
    """Every `.rs` file under `crates/*/src`."""
    crates = os.path.join(root, "crates")
    for name in sorted(os.listdir(crates)):
        for d, _, files in os.walk(os.path.join(crates, name, "src")):
            yield from (os.path.join(d, f) for f in sorted(files) if f.endswith(".rs"))


def impl_of(lines, line):
    """The `IMPL` match of the top-level `impl` block that `line` (1-based)
    is in, or None."""
    for text in reversed(lines[:line]):
        if text.startswith("}"):
            return None
        m = IMPL.match(text)
        if m:
            return m
    return None


def deref_shadows(root):
    """Per type with `impl Deref`, the `pub` inherent methods of its target.
    Read before visibility is lowered."""
    targets, methods = {}, {}
    for path in rust_sources(root):
        impl = None
        for text in open(path).read().split("\n"):
            if m := IMPL.match(text):
                impl = m
            elif text.startswith("}"):
                impl = None
            elif impl and impl.group(1) and (m := TARGET.match(text)):
                targets[impl.group(2)] = m.group(1)
            elif impl and " for " not in impl.group(0) and (m := PUB_FN.match(text)):
                methods.setdefault(impl.group(2), set()).add(m.group(1))
    return {ty: methods.get(target, set()) for ty, target in targets.items()}


def shadowed(shadows, msg, span):
    """Whether every method a `dead_code` warning names has a same-named
    `pub` method on its type's `Deref` target."""
    names = re.findall(r"`(\w+)`", msg["message"])
    if not names or not re.search(r"\b(method|associated function)", msg["message"]):
        return False
    impl = impl_of(open(span["file_name"]).read().split("\n"), span["line_start"])
    found = shadows.get(impl.group(2), set()) if impl else set()
    return all(n in found for n in names)


def lower_visibility(root):
    """Turn every `pub` in `crates/*/src` into `pub(crate)`. Returns the set of
    lowered positions as (path, line, column of the `pub`), 1-based lines."""
    lowered = set()
    for path in rust_sources(root):
        lines = open(path).read().split("\n")
        for i, line in enumerate(lines):
            cols = [m.start() for m in PUB.finditer(line)]
            for c in reversed(cols):
                line = line[:c] + "pub(crate)" + line[c + 3:]
            # Record columns as they stand after the rewrite.
            shift = 0
            for c in cols:
                lowered.add((path, i + 1, c + shift))
                shift += len("(crate)")
            lines[i] = line
        open(path, "w").write("\n".join(lines))
    return lowered


def check(root, target):
    """Run both checks; yield each compiler message with its file paths made
    absolute."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    runs = [
        (root, ["--workspace", "--lib", "--bins", "--examples"]),
        (os.path.join(root, "benchmark"),
         ["--manifest-path", os.path.join(root, "benchmark", "Cargo.toml")]),
    ]
    for base, args in runs:
        cmd = ["cargo", "check", "--offline", "--keep-going", "--message-format=json", *args]
        out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        for line in out.stdout.splitlines():
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if record.get("reason") != "compiler-message":
                continue
            msg = record["message"]
            # Workspace members' paths are relative to the workspace they were
            # built in; path dependencies outside it come absolute.
            ws = base if record["manifest_path"].startswith(base + os.sep) else root
            for s in all_spans(msg):
                if not os.path.isabs(s["file_name"]):
                    s["file_name"] = os.path.normpath(os.path.join(ws, s["file_name"]))
            yield msg


def all_spans(msg):
    yield from msg["spans"]
    for child in msg.get("children", []):
        yield from all_spans(child)


class Restorer:
    """Puts `pub` back on lowered definitions, never on anything else."""

    def __init__(self, root, lowered):
        self.root = root
        self.lowered = lowered
        self.restored = 0

    def restore_at(self, path, line):
        """Restore the lowered `pub` of the item whose span begins on `line`:
        on that line, or at the head of the `use` list the line is in."""
        lines = open(path).read().split("\n")
        for ln in range(line, max(line - 20, 0), -1):
            hits = sorted(c for (p, l, c) in self.lowered if p == path and l == ln)
            if hits:
                return (ln == line or "use " in lines[ln - 1]) and self._raise(path, ln, hits[0])
        return False

    def _raise(self, path, line, col):
        lines = open(path).read().split("\n")
        text = lines[line - 1]
        assert text[col:col + 10] == "pub(crate)", (path, line, text)
        lines[line - 1] = text[:col] + "pub" + text[col + 10:]
        open(path, "w").write("\n".join(lines))
        # Later columns on the line move left by the restored `(crate)`.
        moved = {(p, l, c) for (p, l, c) in self.lowered if p == path and l == line}
        self.lowered -= moved
        for (p, l, c) in moved:
            if c > col:
                self.lowered.add((p, l, c - len("(crate)")))
        self.restored += 1
        return True

    def crate_src(self, crate):
        return os.path.join(self.root, "crates", crate, "src")

    def module_files(self, crate, modules):
        """Candidate files of `crate`'s module path `modules` (lib.rs first)."""
        src = self.crate_src(crate)
        files = [os.path.join(src, "lib.rs")]
        if modules:
            stem = os.path.join(src, *modules)
            files = [stem + ".rs", os.path.join(stem, "mod.rs")] + files
        return [f for f in files if os.path.exists(f)]

    def restore_item(self, crate, path):
        """Restore the definition of `path` (`a::b::Name`, crate-relative) in
        `crate`: its module's own file first, then the crate root."""
        *modules, name = path
        pattern = re.compile(r"\bpub\(crate\)\s+" + ITEM_KINDS + r"\s+(?:[\w:{}, ]*\b)?" + re.escape(name) + r"\b")
        for f in self.module_files(crate, modules):
            for i, text in enumerate(open(f).read().split("\n")):
                if pattern.search(text) and self.restore_at(f, i + 1):
                    return True
        return False

    def restore_field(self, struct, field):
        """Restore `field` in every lowered definition of a struct named
        `struct` (the error names no path; a struct and field name pair that
        two crates share would both be restored)."""
        done = False
        head = re.compile(r"\bstruct\s+" + re.escape(struct) + r"\b")
        for name in sorted(os.listdir(os.path.join(self.root, "crates"))):
            for d, _, files in os.walk(self.crate_src(name)):
                for f in files:
                    path = os.path.join(d, f)
                    lines = open(path).read().split("\n")
                    for i, text in enumerate(lines):
                        if head.search(text):
                            done |= self._field_in(path, lines, i, field)
        return done

    def _field_in(self, path, lines, start, field):
        decl = re.compile(r"^\s*pub\(crate\)\s+" + re.escape(field) + r"\s*:")
        for ln in range(start + 1, len(lines)):
            if lines[ln].startswith("}"):
                break
            if decl.search(lines[ln]):
                return self.restore_at(path, ln + 1)
        return False


def crate_of(path):
    m = CRATE_DIR.search(path)
    return m.group(1) if m else None


def use_path(path, line):
    """The module path (`a::b`) of the `use` statement that spans `line`."""
    text = open(path).read().split("\n")
    i = line - 1
    while i > 0 and not re.search(r"\buse\b", text[i]):
        i -= 1
    m = re.search(r"\buse\s+([\w:]*)(.?)", text[i])
    parts = [p for p in m.group(1).split("::") if p not in ("", "crate", "self")]
    # `use a::b::Name;` names its item last; `a::{…}` and `a::*` do not.
    return parts if m.group(2) in ("{", "*") else parts[:-1]


def fix(restorer, msg):
    """Restore what one privacy error names. Returns whether it was handled."""
    code = (msg.get("code") or {}).get("code")
    text = msg["message"]
    if code in ("E0603", "E0624"):
        # The definition is in a "defined here" note (through a re-export the
        # first note is the import) or a secondary span of the error itself;
        # the first of them that was lowered is restored.
        defs = [s for c in msg["children"] if "defined here" in c["message"] for s in c["spans"]]
        defs += [s for s in msg["spans"] if not s["is_primary"]]
        if any(restorer.restore_at(s["file_name"], s["line_start"]) for s in defs):
            return True
        # A note at a `use` already `pub` (a glob, say): the item behind it.
        name = re.search(r"`(\w+)`", text).group(1)
        uses = [s for s in defs if crate_of(s["file_name"]) and s["text"]
                and re.search(r"\buse\b", s["text"][0]["text"])]
        return any(restorer.restore_item(crate_of(s["file_name"]),
                                         use_path(s["file_name"], s["line_start"]) + [name])
                   for s in uses)
    if code in ("E0364", "E0365"):
        primary = next(s for s in msg["spans"] if s["is_primary"])
        name = re.search(r"`([\w:]+)`", text).group(1).split("::")[-1]
        crate = crate_of(primary["file_name"])
        prefix = use_path(primary["file_name"], primary["line_start"])
        # The re-exported item lives along the use path; an item that is
        # already `pub` means a module on that path is not.
        if restorer.restore_item(crate, prefix + [name]):
            return True
        return any(restorer.restore_item(crate, prefix[:i + 1]) for i in range(len(prefix)))
    m = re.match(r"type `(?:[\w]+<.*>::)?([\w:]+)(?:<.*>)?` is private", text)
    if m:
        # `m::T` is crate-relative in whichever crate has module `m`; a
        # module on the path may be the private part.
        path = m.group(1).split("::")
        crates = sorted(os.listdir(os.path.join(restorer.root, "crates")))
        for crate in crates:
            if restorer.restore_item(crate, path):
                return True
        return any(restorer.restore_item(c, path[:i + 1])
                   for c in crates for i in range(len(path) - 1))
    m = re.match(r"fields? (.+) of (?:struct|union) `(?:[\w:]*::)?(\w+)(?:<.*>)?` (?:is|are) private", text)
    if code in ("E0616", "E0451") and m:
        fields = re.findall(r"`(\w+)`", m.group(1))
        return any([restorer.restore_field(m.group(2), f) for f in fields])
    return False


def main():
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    started = time.time()
    scratch = tempfile.mkdtemp(prefix="dead-surface-")
    root, target = os.path.join(scratch, "src"), os.path.join(scratch, "target")
    os.makedirs(root)
    try:
        archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", root], input=archive, check=True)
        shadows = deref_shadows(root)
        restorer = Restorer(root, lower_visibility(root))
        for rounds in range(1, 200):
            messages = list(check(root, target))
            errors = [m for m in messages if m["level"] == "error" and m["spans"]]
            fixed = sum(fix(restorer, m) for m in errors)
            if not errors:
                break
            if not fixed:
                for m in errors:
                    print(m["rendered"], file=sys.stderr)
                sys.exit("dead_surface: privacy errors left that no definition answers")
            print(f"round {rounds}: {len(errors)} errors, {restorer.restored} restored",
                  file=sys.stderr)
        seen, unverified = set(), set()
        for m in messages:
            code = (m.get("code") or {}).get("code")
            if code not in ("dead_code", "unused_imports"):
                continue
            s = next(s for s in m["spans"] if s["is_primary"])
            where = os.path.relpath(s["file_name"], root)
            line = f"{where}:{s['line_start']}: {m['message']}"
            (unverified if shadowed(shadows, m, s) else seen).add(line)
        for line in sorted(seen):
            print(line)
        if unverified:
            print("unverified: shadowed through Deref")
            for line in sorted(unverified):
                print(f"  {line}")
        print(f"{len(seen)} reports, {len(unverified)} unverified, {rounds} rounds, "
              f"{time.time() - started:.0f} s", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
