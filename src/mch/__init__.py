"""Mixed structural choice networks for technology mapping."""

from .network import (AIG, MIG, XAG, XMG, LogicNetwork, NetworkError, Signal,
                      UnsupportedConversion)
from .tt import TruthTable, cut_truth, dsd_decompose, isop
from .npn import npn_canonize
from .cuts import enumerate_cuts, is_cut

__all__ = [
    "AIG", "XAG", "MIG", "XMG",
    "LogicNetwork", "Signal", "NetworkError", "UnsupportedConversion",
    "TruthTable", "cut_truth", "isop", "dsd_decompose", "npn_canonize",
    "enumerate_cuts", "is_cut",
]
