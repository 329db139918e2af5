"""Proportional association analysis for categorical data.

The package measures how a categorical response depends on categorical
explanatory variables under proportional (conditional Monte-Carlo)
prediction: per-category association matrices and vectors, weighted
global association degrees (including Goodman-Kruskal tau), a hierarchy
of equivalence relations between explanatory variables, greedy feature
selection with and without a response variable, split-sample
proportional-prediction validation, and stratified bootstrap intervals.

Start with :func:`read_csv` or :meth:`Dataset.from_label_columns`, then
:func:`contingency` and :func:`to_joint` to get a plug-in joint
distribution, and feed that to the association functions.
"""

import os as _os
import sys as _sys

# When numpy loads, OpenBLAS starts a worker thread per extra CPU, and an
# idle worker busy-waits for OPENBLAS_THREAD_TIMEOUT (2**28 cycles by
# default) before it sleeps.  The package's only BLAS calls are products too
# small to wake it, so load numpy with OpenBLAS's shortest wait; the variable
# is only read when the library loads.  A value the user set, or a numpy
# already loaded, is left alone, and the environment is restored at once.
if "numpy" not in _sys.modules and "OPENBLAS_THREAD_TIMEOUT" not in _os.environ:
    _os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .association import (
    AssociationMatrix,
    AssociationVector,
    GiniStats,
    WeightVector,
    association_matrix,
    association_vector,
    gini,
    gk_tau_direct,
    make_weights,
    tau,
    tau_scheme,
)
from .basis import (
    BasisReport,
    EpValue,
    ep,
    minimal_basis,
    structural_basis,
    verify_basis,
)
from .dataset import (
    CompositeVariable,
    ContingencyTable,
    Dataset,
    JointDistribution,
    Variable,
    WeightedPopulation,
    composite,
    contingency,
    ingest_records,
    joint_from_counts,
    read_csv,
    to_joint,
)
from .equivalence import EquivalenceReport, e2prime, equivalence_levels
from .errors import CatassocError, DataError, NumericDomainError
from .predict import (
    ConfusionMatrix,
    ValidationResult,
    proportional_predict,
    split_validate,
)
from .resample import BootstrapResult, count_bootstrap, retention_ratio, stratified_bootstrap
from .selection import (
    ForwardStep,
    SelectionTrace,
    first_pick_tiebreak,
    select_basis,
    tau_joint,
    y_marginal,
)
from .simgen import (
    DEFAULT_FLU,
    FluSpec,
    add_independent_noise,
    gen_flu,
    population_joint_flu,
    sample_joint,
)

__version__ = "0.1.0"

__all__ = [
    "AssociationMatrix", "AssociationVector", "BasisReport", "BootstrapResult",
    "CatassocError", "CompositeVariable", "ConfusionMatrix", "ContingencyTable",
    "DataError", "Dataset", "DEFAULT_FLU", "EpValue", "EquivalenceReport",
    "FluSpec", "ForwardStep", "GiniStats", "JointDistribution",
    "NumericDomainError", "SelectionTrace", "ValidationResult", "Variable",
    "WeightVector", "WeightedPopulation", "add_independent_noise",
    "association_matrix", "association_vector", "composite", "contingency",
    "count_bootstrap", "e2prime", "ep", "equivalence_levels",
    "first_pick_tiebreak", "gen_flu", "gini", "gk_tau_direct",
    "ingest_records", "joint_from_counts", "make_weights", "minimal_basis",
    "population_joint_flu", "proportional_predict", "read_csv",
    "retention_ratio", "sample_joint", "select_basis", "split_validate",
    "stratified_bootstrap", "structural_basis", "tau", "tau_joint",
    "tau_scheme", "to_joint", "verify_basis", "y_marginal",
]
