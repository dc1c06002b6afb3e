"""Every exported name has a user: the pipeline, the CLI or the
acceptance gate.  A name that only its own definition and unit tests
mention is dead API."""
import io
import keyword
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
