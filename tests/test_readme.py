"""The README's python blocks run as written: the library quickstart and the
quadrature call, in order, in one namespace, as a reader would paste them."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    assert namespace["est"].n_paths == 100_000
    assert namespace["u_ref"] > 0.0
