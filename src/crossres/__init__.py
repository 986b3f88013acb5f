"""Exact-arithmetic computation of identities among relations.

Given a finite group presentation, the package computes generators of
the module of identities among its relators, keeps each one that lies
outside the span of those kept before it (a later one can still make it
redundant, so the set is generating, not minimal), certifies the others,
and extends the result level by level to a free crossed resolution — all
over the integers, with every step replayable and verifiable.

The package root exports the run entry points and the state's storage
and replay; every other name is imported from the module that defines it.
"""

from .cli import RunConfig, build_state, main, run
from .inputs import InputError
from .logged_rewriter import FillError
from .syzygy_engine import export_json, import_json, render_tables, verify_state

__all__ = [
    "RunConfig", "build_state", "run", "main",
    "export_json", "import_json", "verify_state", "render_tables",
    "InputError", "FillError",
]

__version__ = "1.0.0"
