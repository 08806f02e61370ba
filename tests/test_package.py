import re
from pathlib import Path

import sparsegmm as sg

ROOT = Path(__file__).resolve().parent.parent


def test_readme_and_script_names_are_exported():
    """Every ``sg.<name>`` that README.md or a script in scripts/ uses is in
    ``__all__``, so that a cut of the public surface cannot silently break
    either; the README's quick start uses some."""
    readme = (ROOT / "README.md").read_text()
    start = readme.index("## Library quick start")
    quick_start = readme[readme.index("```python", start):readme.index("```\n", start + 1)]
    assert re.search(r"\bsg\.\w", quick_start)
    for path in [ROOT / "README.md", *sorted((ROOT / "scripts").glob("*.py"))]:
        used = set(re.findall(r"(?<![\w.])sg\.(\w+)", path.read_text()))
        assert used <= set(sg.__all__), (path.name, sorted(used - set(sg.__all__)))


def test_every_export_resolves():
    assert len(set(sg.__all__)) == len(sg.__all__)
    missing = [name for name in sg.__all__ if not hasattr(sg, name)]
    assert not missing, missing
