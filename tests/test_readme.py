"""The README's Python example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no fenced Python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
