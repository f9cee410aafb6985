"""A mutation gate over the acceptors, with the stdlib only.

Run it from the root of a checkout:

    python tests/mutation/probe.py

For each module in MODULES, the probe swaps one operator at a time: `<` and
`<=`, `>` and `>=`, `==` and `!=`, `in` and `not in`, `is` and `is not`,
`and` and `or`, and binary `+` and `-`.  Each such mutant is written into a
copy of the package, and the module's own test files run against it with
`-x`.  A mutant whose tests fail, or run past a time limit, is killed.

Every mutant no test kills must be named in survivors.txt, beside this file,
by its file, its function, the text of its line and its swap, with a reason
that says why the swap is equivalent or changes only a message.  Any other
survivor fails the run, and so does an entry that names no survivor, so the
list cannot outlive the mutant it excuses.  Before any mutant, the tests run
once against the unmutated module as the probe writes it, and must pass.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "hyperfactor"
SURVIVORS = Path(__file__).with_name("survivors.txt")

#: each probed module and the test files that must kill its mutants
MODULES = {
    "fileformat.py": ("tests/test_fileformat.py",),
    "exactlp.py": ("tests/test_exactlp.py",),
    "verifier.py": ("tests/test_verifier.py",),
    "linear_system.py": ("tests/test_linear_system.py",),
}

#: each operator and the one it is swapped for
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
}
SPELLING = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-",
}

#: a mutant's tests are stopped, and the mutant counted killed, after this
#: many times the unmutated run's seconds (plus a margin for start-up)
TIME_FACTOR = 3
#: address space of a test run, so that a mutant that loops while it
#: allocates stops with a MemoryError
MEMORY_LIMIT = 2 << 30
#: runs pytest on its arguments with the address space capped; the child
#: sets the cap itself, since a preexec_fn is unsafe beside the probe's threads
RUN_PYTEST = (
    "import resource, sys, pytest; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT})); "
    "sys.exit(pytest.main(sys.argv[1:]))"
)


def _slots(node: ast.AST) -> list[tuple[object, int | None]]:
    """The operators of node that the probe swaps, as (holder, index):
    index is None for a BoolOp's or a BinOp's one op, else the position in
    a Compare's ops."""
    if isinstance(node, ast.Compare):
        return [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
    if isinstance(node, (ast.BoolOp, ast.BinOp)) and type(node.op) in SWAPS:
        return [(node, None)]
    return []


def _op(holder, index):
    return holder.ops[index] if index is not None else holder.op


def sites(source: str, name: str) -> list[str]:
    """The key of each site of the module, in a fixed walk order:
    `file::function: op -> swap at: line text`, the swap followed by ` #2`,
    ` #3`, ... when an earlier site of the same line has the same swap."""
    tree = ast.parse(source)
    lines = source.splitlines()
    owner: dict[ast.AST, str] = {}

    def name_scopes(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            owner[child] = inner
            name_scopes(child, inner)

    name_scopes(tree, "<module>")
    keys: list[str] = []
    for node in ast.walk(tree):
        for holder, index in _slots(node):
            op = type(_op(holder, index))
            swap = f"{name}::{owner[node]}: {SPELLING[op]} -> {SPELLING[SWAPS[op]]}"
            line = lines[node.lineno - 1].strip()
            seen = sum(key.startswith(swap) and key.endswith(f" at: {line}") for key in keys)
            keys.append(f"{swap}{f' #{seen + 1}' if seen else ''} at: {line}")
    return keys


def mutant(source: str, site: int | None) -> str:
    """The module's source with the operator of the given site swapped, or,
    for None, unmutated; either way as ast.unparse writes it."""
    tree = ast.parse(source)
    if site is not None:
        holder, index = [slot for node in ast.walk(tree) for slot in _slots(node)][site]
        swapped = SWAPS[type(_op(holder, index))]()
        if index is None:
            holder.op = swapped
        else:
            holder.ops[index] = swapped
    return ast.unparse(tree) + "\n"


def run_tests(name: str, text: str, timeout: float | None) -> tuple[bool, float]:
    """Whether the module's test files pass with the module replaced by
    text, and the seconds they took; a run past timeout does not pass."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        package = Path(tmp) / "src" / "hyperfactor"
        shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        (package / name).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(package.parent), PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-c", RUN_PYTEST, "-q", "-x", "-p", "no:cacheprovider",
            *(str(ROOT / path) for path in MODULES[name]),
        ]
        start = time.perf_counter()
        try:
            # the working directory is the copy, so hypothesis keeps the
            # examples it finds against a mutant there
            done = subprocess.run(
                command, cwd=tmp, env=env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start
        return done.returncode == 0, time.perf_counter() - start


def read_survivors(path: Path = SURVIVORS) -> dict[str, str]:
    """The survivor list: keys, each followed by an indented reason that
    begins `equivalent:` or `message-only:`; `#` starts a comment line."""
    text = path.read_text(encoding="utf-8").splitlines()
    lines = [line for line in text if line.strip() and not line.lstrip().startswith("#")]
    keys, reasons = lines[0::2], [line.strip() for line in lines[1::2]]
    if (
        len(keys) != len(reasons)
        or len(set(keys)) != len(keys)
        or any(key[0].isspace() for key in keys)
        or not all(reason.startswith(("equivalent: ", "message-only: ")) for reason in reasons)
    ):
        raise ValueError(
            f"{path.name}: each entry is one line, once, followed by one indented reason "
            "that begins 'equivalent:' or 'message-only:'"
        )
    return dict(zip(keys, reasons))


def main() -> int:
    allowed = read_survivors()
    workers = max(1, min(4, os.cpu_count() or 1))
    survivors: list[str] = []
    for name in MODULES:
        source = (PACKAGE / name).read_text(encoding="utf-8")
        keys = sites(source, name)
        passed, seconds = run_tests(name, mutant(source, None), None)
        if not passed:
            print(f"{name}: its tests fail on the unmutated module", flush=True)
            return 1
        timeout = TIME_FACTOR * seconds + 30
        start = time.perf_counter()
        with ThreadPoolExecutor(workers) as pool:
            outcomes = list(pool.map(
                lambda site: run_tests(name, mutant(source, site), timeout)[0], range(len(keys))
            ))
        alive = [key for key, passed in zip(keys, outcomes) if passed]
        survivors += alive
        print(
            f"{name}: {len(keys)} sites, {len(keys) - len(alive)} killed, {len(alive)} survived "
            f"in {time.perf_counter() - start:.0f} s (unmutated tests {seconds:.1f} s)",
            flush=True,
        )
    unexcused = [key for key in survivors if key not in allowed]
    stale = [key for key in allowed if key not in survivors]
    for key in survivors:
        print(f"survived, {'listed' if key in allowed else 'NOT LISTED'}: {key}")
    for key in stale:
        print(f"listed, but no mutant survives: {key}")
    return 1 if unexcused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
