"""List the functions of ``src/qtelarray`` that no run of the package enters.

Usage, from the repository root::

    PYTHONPATH=src python3 tools/reach.py [--tests]

It runs every command line keyed in ``perfbench/golden.json`` through
``cli.main`` and every ``demos/*.py`` in-process, and with ``--tests`` also
pytest over ``tests/`` without ``tests/test_qcore_*``, recording function
entries with ``sys.setprofile`` and ``threading.setprofile`` from before the
package is imported, so decorators and other import-time calls count. It
prints each function never entered with its line count (a def nested in one
of them is not counted again), then the totals per module and overall.
"""

import ast
import collections
import contextlib
import importlib.util
import io
import json
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# located without importing it: the import runs under the profiler
SPEC = importlib.util.find_spec("qtelarray")
if SPEC is None:
    sys.exit("reach.py: cannot import qtelarray; run it with PYTHONPATH=src")
PACKAGE = Path(SPEC.submodule_search_locations[0]).resolve()
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions(node, path, prefix, out):
    """Fill (path, first line) -> (last line, qualified name) for every def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[path, first] = (child.end_lineno, prefix + child.name)
        named = isinstance(child, DEFS + (ast.ClassDef,))
        functions(child, path, prefix + child.name + "." if named else prefix, out)


def main(argv):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    from qtelarray import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for key in json.loads((ROOT / "perfbench" / "golden.json").read_text()):
            cli.main(key.split())
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        if "--tests" in argv:
            import pytest
            pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                         "--ignore-glob=*/test_qcore_*"])
    sys.setprofile(None)
    threading.setprofile(None)
    funcs = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        functions(ast.parse(path.read_text()), str(path), "", funcs)
    missed = [k for k in sorted(funcs) if k not in entered]
    missed = [(f, a) for f, a in missed if not any(
        f == g and c < a <= funcs[g, c][0] for g, c in missed)]
    per_module = collections.defaultdict(list)
    for f, a in missed:
        rel, lines = Path(f).relative_to(PACKAGE.parent), funcs[f, a][0] - a + 1
        print(f"{rel}:{a}  {funcs[f, a][1]}  {lines}")
        per_module[rel].append(lines)
    for rel, lines in per_module.items():
        print(f"never entered in {rel}: {len(lines)} functions, {sum(lines)} lines")
    print(f"never entered: {len(missed)} functions, "
          f"{sum(map(sum, per_module.values()))} lines")


if __name__ == "__main__":
    main(sys.argv[1:])
