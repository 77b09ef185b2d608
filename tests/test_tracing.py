"""The benchmark's tracing table names only what the program still has.

``perfbench/tracing.py`` wraps program names by ``(module, attribute)``
and skips a missing one with a warning on stderr, so its spans and
counters silently read 0.  This test turns that drift into a failure.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# entries the table still lists after the program dropped the name; each
# one's metric reads 0 until the table is brought up to date
KNOWN_STALE = {("cvforge.cli", "z_from_state")}


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for path, attribute, _ in tracing.SPANNED + tracing.COUNTED:
        if (path, attribute) in KNOWN_STALE:
            continue
        # the same lookup tracing.instrument makes before wrapping a name
        try:
            owner, name = tracing._owner(path, attribute)
            vars(owner)[name]
        except (AttributeError, KeyError):
            missing.append(f"{path}.{attribute}")
    assert missing == []
