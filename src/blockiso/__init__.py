"""Exact character theory for symmetric-group blocks and wreath products.

The package computes, over exact integers and rationals, the canonical
signed bijection between the irreducible characters of a block of a
symmetric group and those of the principal block of the matching wreath
product, and verifies its defining identities (value agreement, vanishing
ranges, heights, separation, and lattice equalities) at desk scale.

The names below are looked up in their home submodule on each access
(PEP 562), so `import blockiso` loads no submodule and a command loads only
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, grouped by the submodule that defines them.
_EXPORTS = {
    "abacus": (
        "block_weight",
        "circularly_nondecreasing",
        "contains_p",
        "p_core",
        "p_quotient",
        "p_sign",
        "runner_permutation",
    ),
    "isometry": ("build_isometry", "isometry_image", "isometry_row"),
    "partitions": (
        "Partition",
        "conjugate",
        "enumerate_partitions",
        "format_partition",
        "parse_partition",
    ),
    "symchar": ("SnClassFunction", "character_value", "degree", "irr_class_function", "mn_value"),
    "wreath": ("WreathClassFunction", "enumerate_irr_wreath", "enumerate_wreath_classes", "zeta_irr"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))
