"""Directed topology on finite precubical sets.

Combinatorial models of directed spaces for concurrency analysis:
enumerate directed paths, classify them up to dihomotopy, verify
dicoverings through unique lifting, build universal dicoverings by
unfolding, and compile PV semaphore programs into cubical state spaces.
"""

from .errors import (
    AmbiguousFactorizationError,
    AmbiguousLiftError,
    DitopError,
    EndpointMismatchError,
    InputError,
    InvalidPathError,
    LiftError,
    NoLiftError,
    PvSemanticError,
    PvSyntaxError,
    ResourceLimitError,
)
from .precubical import (
    Cell,
    ChainColimit,
    Codiagonal,
    Coproduct,
    PcMorphism,
    PrecubicalSet,
    Pushout,
    Violation,
    chain_colimit,
    codiagonal,
    complex_from_data,
    complex_to_data,
    compose,
    coproduct,
    disjoint_union,
    edge,
    identity,
    load_complex,
    load_morphism,
    morphism_from_data,
    morphism_to_data,
    pushout,
    standard_cube,
    tensor,
    validate,
    validate_morphism,
    vertex,
)
from .builders import directed_circle, directed_cycle, directed_path, grid
from .dipath import (
    EdgePath,
    Preorder,
    check_path,
    concat,
    enumerate_paths,
    is_path,
    path_end,
    path_from_data,
    path_to_data,
    preorder_to_data,
    reachability_preorder,
)
from .dihomotopy import (
    BOTTOM_RIGHT,
    LEFT_TOP,
    DihomotopyClass,
    ElementaryMove,
    MoveWitness,
    apply_move,
    classes,
    classes_to_data,
    dihomotopic,
    elementary_moves,
    move_components,
    square_words,
)
from .dicovering import (
    CellLiftWitness,
    DicoveringVerdict,
    EdgeLiftWitness,
    LiftProblem,
    check_dicovering,
    cylinder_projection,
    fold_map,
    lift_path,
    replay_witness,
    universality_check,
    verdict_to_data,
)
from .unfolding import (
    InitialFactorization,
    SuiteReport,
    Unfolding,
    factor_initial,
    suite_to_data,
    unfold,
    unfolding_to_data,
    universal_property_suite,
)
from . import pv

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
