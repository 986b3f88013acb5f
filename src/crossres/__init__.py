"""Exact-arithmetic computation of identities among relations.

Given a finite group presentation, the package computes generators of
the module of identities among its relators, reduces them to a minimal
generating set with explicit membership certificates, and extends the
result level by level to a free crossed resolution — all over the
integers, with every step replayable and verifiable.
"""

from .words import (
    Letter,
    Word,
    EMPTY,
    word,
    parse_word,
    GroupRingElt,
    ZERO_ZG,
    zg_unit,
    fox_derivative,
)
from .group_core import (
    PresentationError,
    EnumerationOverflow,
    TableError,
    TreeError,
    Presentation,
    CayleyGraph,
    enumerate_presentation,
    load_table,
    MaximalTree,
    bfs_tree,
    tree_from_file,
    Contraction0,
    render_zg,
)
from .crossed import (
    Factor,
    CrossedElt,
    IDENTITY_CROSSED,
    crossed,
    mult,
    inv,
    act,
    boundary2,
    ModuleElt,
    ZERO_MODULE,
    unit,
    abelianise,
    apply_map,
    render_crossed,
    parse_crossed,
)
from .zg_lattice import (
    expand,
    unexpand,
    Lattice,
    OrbitLattice,
    member_solve,
    kernel_lattice,
)
from .logged_rewriter import (
    FillError,
    FillLimits,
    DEFAULT_LIMITS,
    fill_loop,
    H1Table,
    build_h1,
    h1_eval,
)
from .syzygy_engine import (
    Candidate,
    Level,
    ResolutionState,
    compute_delta3,
    level3_candidates,
    homotopy_eval,
    next_candidates,
    order_candidates,
    reduce_level,
    extend_resolution,
    fox_matrix_map,
    verify_state,
    export_json,
    import_json,
    render_tables,
)
from .oracles import (
    BarResolution,
    bar_homotopy,
    bar_check_boundaries,
    bar_check_homotopy,
    cyclic_ring,
    cyclic_resolution,
)
from .cli import (
    InputError,
    RunConfig,
    parse_presentation,
    parse_order_file,
    build_state,
    run,
    main,
)

__all__ = [
    "Letter", "Word", "EMPTY", "word", "parse_word",
    "GroupRingElt", "ZERO_ZG", "zg_unit", "fox_derivative",
    "PresentationError", "EnumerationOverflow", "TableError", "TreeError",
    "Presentation", "CayleyGraph", "enumerate_presentation", "load_table",
    "MaximalTree", "bfs_tree", "tree_from_file", "Contraction0", "render_zg",
    "Factor", "CrossedElt", "IDENTITY_CROSSED", "crossed", "mult", "inv",
    "act", "boundary2", "ModuleElt", "ZERO_MODULE", "unit", "abelianise",
    "apply_map", "render_crossed", "parse_crossed",
    "expand", "unexpand", "Lattice", "OrbitLattice",
    "member_solve", "kernel_lattice",
    "FillError", "FillLimits", "DEFAULT_LIMITS", "fill_loop",
    "H1Table", "build_h1", "h1_eval",
    "Candidate", "Level", "ResolutionState", "compute_delta3",
    "level3_candidates", "homotopy_eval", "next_candidates",
    "order_candidates", "reduce_level", "extend_resolution",
    "fox_matrix_map", "verify_state", "export_json", "import_json",
    "render_tables",
    "BarResolution", "bar_homotopy",
    "bar_check_boundaries", "bar_check_homotopy",
    "cyclic_ring", "cyclic_resolution",
    "InputError", "RunConfig", "parse_presentation", "parse_order_file",
    "build_state", "run", "main",
]

__version__ = "1.0.0"
