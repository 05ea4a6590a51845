"""Every name a module imports under src/, tests/ or scripts/ is used in that module.

No module under src/ names ``numpy.random``: every random draw is a word
of ``rng``'s counter-mode generator.  No module under src/ reads a
stream's doubles or scales a word by 2^-53 either: every coin is a word
compared with ``rng.word_limit``, and only ``rng.coin`` makes that
comparison: no other code under src/ shifts a value right by 11.  Only
``rng`` names blake2b (for role words, trial seeds and ``derive_u64``),
and no module names the digest coins that structured-instance fibers once
read.  No numpy array under src/ has dtype ``object``: every word is a
fixed-width integer.
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


def src_lines_matching(pattern, skip=()):
    """``path:line: text`` of every line under src/ that matches, outside the files named in ``skip``."""
    return [f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
            for path in sorted((ROOT / "src").rglob("*.py")) if path.name not in skip
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


def test_only_rng_names_blake2b():
    named = src_lines_matching(r"\b(hashlib|blake2b)\b", skip={"rng.py"})
    assert not named, "blake2b named outside rng.py:\n" + "\n".join(named)


def test_src_names_no_digest_coin():
    named = src_lines_matching(r"\b(byte_limit|below_after|KeyedDigest|derive_bit)\b")
    assert not named, "digest coins named under src/:\n" + "\n".join(named)


def object_arrays(path):
    """``line: call`` of each numpy call in the module that passes dtype ``object`` or ``"O"``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        on_numpy = isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
        if not (on_numpy or node.func.attr in ("astype", "view")):
            continue
        dtypes = node.args + [keyword.value for keyword in node.keywords if keyword.arg == "dtype"]
        if any(isinstance(d, ast.Name) and d.id == "object"
               or isinstance(d, ast.Constant) and d.value in ("O", "object") for d in dtypes):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def shifts_by_11(path, allowed=()):
    """``line: code`` of each right shift by 11 (``>> 11`` or ``right_shift(..., 11``).

    Shifts inside the functions named in ``allowed`` do not count.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and function.name in allowed
              for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift):
            amount = node.right if isinstance(node, ast.BinOp) else node.value
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "right_shift"):
            amount = node.args[1]
        else:
            continue
        if isinstance(amount, ast.Constant) and amount.value == 11:
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_src_makes_no_object_array():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py")) for line in object_arrays(path)]
    assert not found, "object arrays under src/:\n" + "\n".join(found)


def test_only_the_rng_coin_shifts_a_word_by_11():
    found = [f"{path.relative_to(ROOT)}:{line}" for path in sorted((ROOT / "src").rglob("*.py"))
             for line in shifts_by_11(path, {"coin"} if path.name == "rng.py" else ())]
    assert not found, "a coin comparison outside rng.coin:\n" + "\n".join(found)
    coin = next(node for node in ast.walk(ast.parse((ROOT / "src/junta_lab/rng.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "coin")
    assert "right_shift(words, 11" in ast.unparse(coin)


def test_the_censuses_see_object_arrays_and_shifts(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n"
        "a = np.array([1 << 70], object)\nb = np.zeros(3, dtype='O')\nc = a.astype(object)\n"
        "d = isinstance(a, object) and np.zeros(3, dtype=np.uint64)\n"
        "def coin(words, limit):\n    return np.right_shift(words, 11, out=words) < limit\n"
        "def other(w):\n    w >>= 11\n    return (w >> 11, np.right_shift(w, 11), w >> 12)\n",
        encoding="utf-8",
    )
    assert [line.split(":")[0] for line in object_arrays(module)] == ["2", "3", "4"]
    assert sorted(int(line.split(":")[0]) for line in shifts_by_11(module, {"coin"})) == [9, 10, 10]
    assert sorted(int(line.split(":")[0]) for line in shifts_by_11(module)) == [7, 9, 10, 10]


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
