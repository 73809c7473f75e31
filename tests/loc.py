"""Code lines per module under src/.

    python3 tests/loc.py [--against REV]

prints, for each module under src/, the number of lines that hold code:
lines that are blank, hold only a comment, or belong to a docstring (the
leading string of a module, class or function) are not counted.  The last
line is the total.  With --against REV it prints, per module, the count at
the git revision REV (read with git show), the count in the working tree
and the difference; a module missing on one side counts 0 there.  This is
the count CHANGES.md and ROADMAP.md quote; it gates nothing.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
#: tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def tree_counts() -> dict[str, int]:
    """{path under src/: code lines} for the working tree."""
    counts = {}
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                counts[os.path.relpath(path, SRC)] = code_lines(fh.read())
    return counts


def revision_counts(rev: str) -> dict[str, int]:
    """{path under src/: code lines} at the git revision rev."""
    def git(*args):
        res = subprocess.run(["git", *args], cwd=SRC, capture_output=True, text=True)
        if res.returncode:
            raise SystemExit(f"git {' '.join(args)}: {res.stderr.strip()}")
        return res.stdout

    names = git("ls-tree", "-r", "--name-only", "--full-name", rev, "--", ".").split()
    return {os.path.relpath(name, "src"): code_lines(git("show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def main() -> None:
    ap = argparse.ArgumentParser(description="code lines per module under src/")
    ap.add_argument("--against", metavar="REV", help="also count src/ at this git revision")
    args = ap.parse_args()
    after = tree_counts()
    if args.against is None:
        for path, count in after.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(after.values()):6d}  total")
        return
    before = revision_counts(args.against)
    print(f"{'before':>6}  {'after':>6}  {'diff':>6}  module")
    for path in sorted(before.keys() | after.keys()):
        b, a = before.get(path, 0), after.get(path, 0)
        print(f"{b:6d}  {a:6d}  {a - b:+6d}  {path}")
    b, a = sum(before.values()), sum(after.values())
    print(f"{b:6d}  {a:6d}  {a - b:+6d}  total")


if __name__ == "__main__":
    main()
