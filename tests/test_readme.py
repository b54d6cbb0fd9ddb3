"""README's API bullets name only code that exists."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# A bullet "- `boxball.<mod>` — ..." runs to the next bullet or blank line;
# its name lists are parenthesised, comma-separated backticked identifiers.
BULLET = re.compile(r"^- `boxball\.(\w+)` — (.*?)(?=^- |^$)", re.MULTILINE | re.DOTALL)
NAME_LIST = re.compile(r"\((`\w+`(?:,\s+`\w+`)*)\)")


def api_lists():
    return {
        module: [name for group in NAME_LIST.findall(body) for name in re.findall(r"`(\w+)`", group)]
        for module, body in BULLET.findall(README.read_text(encoding="utf-8"))
    }


def test_readme_api_lists_name_real_code():
    lists = api_lists()
    assert set(lists) == {"tableau", "insertion", "crystal", "rmatrix", "bbs", "soliton", "cli"}
    for module, names in lists.items():
        if module != "cli":
            assert names, module
        mod = importlib.import_module(f"boxball.{module}")
        missing = [name for name in names if not hasattr(mod, name)]
        assert not missing, (module, missing)
