import re
from pathlib import Path

import sparsegmm as sg

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_names_are_exported():
    text = README.read_text()
    start = text.index("## Library quick start")
    block = text[text.index("```python", start):text.index("```\n", start + 1)]
    used = set(re.findall(r"\bsg\.(\w+)", block))
    assert used and used <= set(sg.__all__), sorted(used - set(sg.__all__))


def test_every_export_resolves():
    assert len(set(sg.__all__)) == len(sg.__all__)
    missing = [name for name in sg.__all__ if not hasattr(sg, name)]
    assert not missing, missing
