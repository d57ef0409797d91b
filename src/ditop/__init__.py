"""Directed topology on finite precubical sets.

Combinatorial models of directed spaces for concurrency analysis:
enumerate directed paths, classify them up to dihomotopy, verify
dicoverings through unique lifting, build universal dicoverings by
unfolding, and compile PV semaphore programs into cubical state spaces.

Submodules load on first use: reading a name from this package imports
the one module that defines it, so ``import ditop`` itself is cheap.
"""

# The public names of each submodule; every submodule is public as well.
_EXPORTS = {
    "errors": (
        "AmbiguousFactorizationError", "AmbiguousLiftError", "DitopError",
        "EndpointMismatchError", "InputError", "InvalidPathError", "LiftError",
        "NoLiftError", "PvSemanticError", "PvSyntaxError", "ResourceLimitError",
    ),
    "precubical": (
        "Cell", "PcMorphism", "PrecubicalSet", "Violation", "complex_from_data",
        "complex_to_data", "compose", "edge", "identity", "load_complex",
        "load_morphism", "morphism_from_data", "morphism_to_data", "validate",
        "validate_morphism", "vertex",
    ),
    "constructions": (
        "ChainColimit", "Codiagonal", "Coproduct", "Pushout", "chain_colimit",
        "codiagonal", "coproduct", "disjoint_union", "pushout", "standard_cube",
        "tensor",
    ),
    "builders": ("directed_circle", "directed_cycle", "directed_path", "grid"),
    "dipath": (
        "EdgePath", "Preorder", "check_path", "concat", "enumerate_paths",
        "is_path", "path_end", "path_from_data", "path_to_data",
        "preorder_to_data", "reachability_preorder",
    ),
    "dihomotopy": (
        "BOTTOM_RIGHT", "LEFT_TOP", "DihomotopyClass", "ElementaryMove",
        "MoveWitness", "apply_move", "classes", "classes_to_data", "dihomotopic",
        "elementary_moves", "move_components", "square_words",
    ),
    "dicovering": (
        "CellLiftWitness", "DicoveringVerdict", "EdgeLiftWitness", "LiftProblem",
        "check_dicovering", "cylinder_projection", "fold_map", "lift_path",
        "replay_witness", "universality_check", "verdict_to_data",
    ),
    "unfolding": (
        "InitialFactorization", "SuiteReport", "Unfolding", "factor_initial",
        "suite_to_data", "unfold", "unfolding_to_data", "universal_property_suite",
    ),
    "pv": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        module = name
    elif name in _HOME:
        module = _HOME[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    value = loaded if module == name else getattr(loaded, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
