"""Every exported name has a user: the pipeline, the CLI or the
acceptance gate.  A name that only its own definition and unit tests
mention is dead API.  Every module-level function and class of the
package is referenced somewhere outside its own definition: in the
package, the tests or the console-script entry point.  No array in the
package is allocated complex by hand: an operator's dtype follows its
inputs.  And the pipeline runs without importing scipy."""
import ast
import io
import json
import keyword
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import mpotrace

ROOT = Path(__file__).resolve().parent.parent
USERS = [p for p in sorted((ROOT / "src" / "mpotrace").glob("*.py")) if p.name != "__init__.py"]
USERS.append(ROOT / "tests" / "test_acceptance.py")


def _uses(path: Path) -> dict:
    """Count of each identifier as code (not in strings or comments),
    leaving out the name a def or class statement defines."""
    counts: dict = {}
    prev = None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type == tokenize.NAME and not keyword.iskeyword(tok.string):
            if prev not in ("def", "class"):
                counts[tok.string] = counts.get(tok.string, 0) + 1
        if tok.type == tokenize.NAME:
            prev = tok.string
        elif tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = None
    return counts


def test_every_export_is_used():
    used: dict = {}
    for path in USERS:
        for name, n in _uses(path).items():
            used[name] = used.get(name, 0) + n
    unused = [name for name in mpotrace.__all__ if not used.get(name)]
    assert not unused, f"exported but used only by unit tests: {unused}"


def test_every_definition_is_referenced():
    package = sorted((ROOT / "src" / "mpotrace").glob("*.py"))
    used: dict = {}
    for path in package + sorted((ROOT / "tests").glob("*.py")):
        for name, n in _uses(path).items():
            used[name] = used.get(name, 0) + n
    # console scripts name their function as module:function
    for target in re.findall(r"=\s*\"mpotrace\.\w+:(\w+)\"",
                             (ROOT / "pyproject.toml").read_text(encoding="utf-8")):
        used[target] = used.get(target, 0) + 1
    dead = [f"{path.name}:{node.name}" for path in package
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not used.get(node.name)]
    assert not dead, f"defined but referenced nowhere: {dead}"


def _complex_dtype_args(path: Path) -> list:
    """Lines where a `dtype=` keyword argument names a complex type
    (`complex`, `np.complex128`, "complex64", ...), comments and other
    strings left out."""
    sig = [tok for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
           if tok.type in (tokenize.NAME, tokenize.OP, tokenize.STRING, tokenize.NUMBER)]
    hits = []
    for i in range(len(sig) - 2):
        if sig[i].string == "dtype" and sig[i + 1].string == "=":
            j = i + 2
            while j < len(sig) and sig[j].string not in (",", ")"):
                if "complex" in sig[j].string:
                    hits.append(f"{path.name}:{sig[i].start[0]}")
                    break
                j += 1
    return hits


def test_no_hand_allocated_complex_arrays():
    hits = [hit for path in sorted((ROOT / "src" / "mpotrace").glob("*.py"))
            for hit in _complex_dtype_args(path)]
    assert not hits, f"dtype=complex allocations: {hits}"


PIPELINE = """
import json, sys
from mpotrace import cli
state, result = sys.argv[1:]
assert cli.main(["build-thermal", "--L", "4", "--beta", "0.1", "--out", state]) == 0
assert cli.main(["estimate", "--input", state, "--function", "entropy", "--kmax", "6",
                 "--out", result]) == 0
assert cli.main(["exact", "--L", "4", "--beta", "0.1"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_pipeline_imports_no_scipy(tmp_path):
    # scipy costs each CLI process ~0.4 s and ~30 MB to import, and brings
    # a second OpenBLAS; only the rare gesvd fallback may load it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", PIPELINE, str(tmp_path / "state.json"), str(tmp_path / "S.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
