"""Boresight calibration between a LiDAR scanner and an INS.

Estimates the fixed mounting misalignment (three Euler angles) from two
overlapping scans: a fast adaptive grid search for heuristic solutions and a
spatial branch-and-bound solver that certifies global optimality via
per-pair distance bounds over angle boxes.
"""

from .cloud import Cloud, CropBox, georeference, load_fused, save_fused, synth_generate
from .gopt import SolveReport, nsbb_solve
from .rotation import AngleBox, EulerAngles, rotation_from_angles
from .search import AgsConfig, Evaluation, ags_run, evaluate_ub

__all__ = [
    "AngleBox",
    "AgsConfig",
    "Cloud",
    "CropBox",
    "Evaluation",
    "EulerAngles",
    "SolveReport",
    "ags_run",
    "evaluate_ub",
    "georeference",
    "load_fused",
    "nsbb_solve",
    "rotation_from_angles",
    "save_fused",
    "synth_generate",
]
__version__ = "0.1.0"
