"""Permutation-symmetry block diagonalization for qudit open systems.

The package decomposes the operator space of n identical qudits into
sectors adapted to site permutations, certifies strong or weak
permutation symmetry of Kraus channels and Lindblad generators, block
diagonalizes their superoperator matrices, and reports which sectors
carry decoherence-free subsystems.  Dense and whole-group reference
constructions live in :mod:`superschur.oracle`, which this package does not
import.
"""

from .blockdiag import (
    BlockDecomposition,
    BlockExponential,
    blockwise_exp,
    decompose,
    dfs_report,
    protection_check,
    to_schur_frame,
)
from .channels import (
    EXAMPLE_CHANNELS,
    KrausChannel,
    Lindbladian,
    SuperOperatorMatrix,
    SymmetryCertificate,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    example_channel,
    kraus_superop,
    lindblad_superop,
    orthogonalize_kraus,
)
from .combinatorics import (
    Partition,
    kostka_numbers,
    letter_strings_by_weight,
    partitions,
    standard_tableaux,
    syt_dimension,
    weyl_dimension,
)
from .errors import (
    BlockStructureError,
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    InternalConsistencyError,
    SizeGuardError,
    SuperSchurError,
)
from .liouville import (
    OperatorBasis,
    max_liouville_dim,
    operator_basis,
    single_site_letters,
    vectorize,
)
from .schur import ColumnLabel, SuperSchurBasis, super_schur_basis

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "BlockExponential",
    "BlockStructureError",
    "ChannelInvariantError",
    "ChannelSpecError",
    "ColumnLabel",
    "DimensionMismatchError",
    "EXAMPLE_CHANNELS",
    "InternalConsistencyError",
    "KrausChannel",
    "Lindbladian",
    "OperatorBasis",
    "Partition",
    "SizeGuardError",
    "SuperOperatorMatrix",
    "SuperSchurBasis",
    "SuperSchurError",
    "SymmetryCertificate",
    "blockwise_exp",
    "classify_kraus_symmetry",
    "classify_lindblad_symmetry",
    "decompose",
    "dfs_report",
    "example_channel",
    "kostka_numbers",
    "kraus_superop",
    "letter_strings_by_weight",
    "lindblad_superop",
    "max_liouville_dim",
    "operator_basis",
    "orthogonalize_kraus",
    "partitions",
    "protection_check",
    "single_site_letters",
    "standard_tableaux",
    "super_schur_basis",
    "syt_dimension",
    "to_schur_frame",
    "vectorize",
    "weyl_dimension",
]
