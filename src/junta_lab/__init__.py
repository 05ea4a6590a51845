"""Desk-scale laboratory for junta-testing hard instances and oracle games."""

from .boolfn import (
    BitString,
    IndexSet,
    StructuredFn,
    TruthTable,
    flip,
    relevant_variables,
    to_table,
)
from .params import DESK_SCALE, STRICT, Params, derive_params
from .rng import RandomStream, Seed

__all__ = [
    "BitString",
    "IndexSet",
    "StructuredFn",
    "TruthTable",
    "flip",
    "relevant_variables",
    "to_table",
    "DESK_SCALE",
    "STRICT",
    "Params",
    "derive_params",
    "RandomStream",
    "Seed",
]
