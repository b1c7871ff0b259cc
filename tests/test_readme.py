"""The README's library example runs as written, its CLI lines parse, and
its module map cites only private names that exist."""
import importlib
import re
import shlex
from pathlib import Path

from ptgames import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    library = text[text.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    text = README.read_text()
    section = text[text.index("## CLI"):text.index("## Config format")]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ptgames ")]
    parser = cli._build_parser()
    for argv in lines:
        parser.parse_args(argv)  # an unknown or missing flag exits 2
    assert {argv[0] for argv in lines} == {"solve", "certify", "marginals", "build-smartgrid", "bound"}


def test_readme_distortion_kinds_match_the_config_schema():
    text = README.read_text()
    block = text[text.index("## Config format"):text.index("The `smartgrid` section")]
    listed = dict(re.findall(r'"(weighting|valuation)": \{[^\n]*\n\s*// kinds: ([^\n]*)', block))
    assert set(listed) == set(cli._DISTORTIONS)
    for section, line in listed.items():
        kinds = [entry.split()[0] for entry in line.split("|")]
        assert kinds == list(cli._DISTORTIONS[section]), section


def test_readme_module_map_private_names_resolve():
    # a row citing a private name that moved or was renamed goes stale
    text = README.read_text()
    rows = re.findall(r"^\| `(\w+)\.py` \| (.*) \|$", text, re.MULTILINE)
    assert rows
    cited = set()
    for module_name, contents in rows:
        module = importlib.import_module(f"ptgames.{module_name}")
        for name in re.findall(r"`(_\w+)`", contents):
            assert hasattr(module, name), f"{module_name}.py row cites {name}"
            cited.add((module_name, name))
    assert len(cited) >= 14
