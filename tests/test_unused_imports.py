"""Every name a module imports under src/, tests/ or scripts/ is used in that module.

No module under src/ names ``numpy.random``: every random draw comes from
``rng.RandomStream`` or a keyed digest.  No module under src/ reads a
stream's doubles or scales a word by 2^-53 either: every coin is a word
compared with ``rng.word_limit`` or, inside a structured instance's fiber
only, a digest compared with ``rng.byte_limit``, so only ``rng`` and
``boolfn`` name the digest coin.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def annotation_names(tree):
    """Names inside string annotations, such as ``-> "TruthTable"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations += [a.annotation for a in args if a.annotation] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from (n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(annotation_names(tree))
    for node in ast.walk(tree):
        # re-exports: the names listed in __all__
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(element.value for element in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = []
    for directory in ("src", "tests", "scripts"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                      for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_src_never_names_numpy_random():
    named = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\b(numpy|np)\.random\b", line)]
    assert not named, "numpy.random named under src/:\n" + "\n".join(named)


def test_src_reads_no_stream_doubles():
    doubles = re.compile(r"\.random\(|\brandom_at\(|2\.0\s*\*\*\s*-53")
    named = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if doubles.search(line)]
    assert not named, "stream doubles read under src/:\n" + "\n".join(named)


def test_only_fibers_read_digest_coins():
    fiber_modules = {"rng.py", "boolfn.py"}
    named = [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\bderive_bit\b", line)
             or path.name not in fiber_modules and re.search(r"\b(byte_limit|below_after)\b", line)]
    assert not named, "digest coins named outside the fibers:\n" + "\n".join(named)


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom math import comb, floor\n"
        "from typing import Optional\n"
        "__all__ = ['floor']\n"
        "def f(x: 'Optional[int]') -> int:\n    return np.size(comb(x, 2))\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [(2, "os")]
