import ast
from pathlib import Path

import cyclocrit


def test_no_assert_in_src():
    """python -O strips assert statements, so no check in the package may be one."""
    found = []
    for path in sorted(Path(cyclocrit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/cyclocrit: {', '.join(found)}"
