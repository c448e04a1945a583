"""The library examples in README.md and the package docstring run and work."""

import re
from pathlib import Path

import seedseg

README = Path(__file__).resolve().parent.parent / "README.md"


def close_to(found, planted, tol=3):
    return len(found) == len(planted) and all(abs(f - p) <= tol for f, p in zip(found, planted))


def test_readme_library_in_one_minute():
    section = README.read_text().split("## Library in one minute")[1].split("\n## ")[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2  # information criterion, then fixed threshold
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
        assert close_to(namespace["seg"].changepoints, (120, 240))
        assert len(namespace["seg"].means) == 3


def test_package_docstring_quick_start():
    code = seedseg.__doc__.split("Quick start::")[1]
    namespace: dict = {}
    exec(re.sub(r"(?m)^    ", "", code), namespace)
    assert close_to(namespace["seg"].changepoints, (100,))
