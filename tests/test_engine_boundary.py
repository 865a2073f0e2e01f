"""Model code reaches the discrete-event engine through its public API.

Every module under ``repro`` outside ``repro.sim`` is parsed, and any
attribute access to the engine's private schedule, pool or event state
fails the test.  Reads of ``env._now`` are allowed: they are the
hot-path clock read and give the same value as ``env.now``, without
the property call.  Stores to ``_now`` are not: only the engine moves
the clock.
"""

import ast
from pathlib import Path

import repro

PRIVATE = {
    "_eid", "_queue", "_timeout_pool", "_waiter", "_stale", "_pooled",
    "_calendar", "_ok", "_value",
}


def test_model_code_uses_only_the_public_engine_api():
    root = Path(repro.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in PRIVATE or (
                node.attr == "_now" and isinstance(node.ctx, ast.Store)
            ):
                hits.append(f"{path.relative_to(root)}:{node.lineno}: "
                            f".{node.attr}")
    assert not hits, "\n".join(hits)
