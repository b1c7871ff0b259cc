"""The README's library example runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(example, "README.md", "exec"), {})
