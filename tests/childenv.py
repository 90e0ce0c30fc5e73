"""The environment of a child Python process that runs this checkout."""

import os

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


def child_env(*dirs) -> dict:
    """os.environ with src and then dirs ahead of the inherited PYTHONPATH,
    so the child imports this checkout and still finds what the parent found
    on its path (pytest and hypothesis among them)."""
    inherited = os.environ.get("PYTHONPATH")
    path = [SRC, *dirs] + ([inherited] if inherited else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))
