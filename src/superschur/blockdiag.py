"""Sector decomposition of superoperators in the permutation-adapted frame.

A permutation-symmetric superoperator, conjugated into the adapted basis,
splits into one block per (shape, tableau) pair, and the blocks for a
fixed shape are copies of each other.  A shape whose tableau count
exceeds one then carries a protected subsystem: the dynamics acts as
identity on the tableau index and touches only the multiplicity space.

The adapted basis is stored as one block per letter-content class (every
column lives on one class), so the conjugation into the frame runs one
class block at a time instead of as two dense products.

On such a sector exp(tG) is the identity on the tableau index times
exp(tB) on the multiplicity space, so the blockwise exponential computes
one exp(tB) per shape and shares it among the twins when the measured twin
deviation of that shape is below the decomposition tolerance.

The basis matrix is real, so every stage keeps the dtype of the
superoperator it is given.  For qubits that is float64 (the Pauli transfer
matrix; ``superschur.channels`` bounds the imaginary part it drops), and
the frame, the blocks, the exponentials and their direct sum are float64
too: half the memory of complex128, and real BLAS products.  Qutrits and
above stay complex128.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .channels import SuperOperatorMatrix, SymmetryCertificate
from .combinatorics import Partition
from .errors import BlockStructureError, DimensionMismatchError
from .schur import SuperSchurBasis

DEFAULT_BLOCK_TOL = 1e-8


@dataclass(frozen=True)
class SectorBlock:
    """One diagonal block: sector shape, tableau index, dense matrix."""

    shape: Partition
    tableau_index: int
    matrix: np.ndarray


@dataclass
class BlockDecomposition:
    """A superoperator matrix split along the adapted-basis sectors.

    ``leakage`` is the largest entry outside all diagonal blocks and
    ``twin_deviation`` the largest difference between two blocks of the
    same shape; both are small exactly when the underlying map is
    permutation symmetric.  ``frame`` is the whole conjugated matrix, or
    None when only the blocks are kept (an exponentiated generator, whose
    twin blocks may share one read-only array).
    """

    d: int
    n: int
    kind: str
    tol: float
    basis: SuperSchurBasis
    frame: np.ndarray | None
    blocks: list[SectorBlock]
    leakage: float
    twin_deviation: dict
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {(b.shape, b.tableau_index): b for b in self.blocks}

    def block(self, shape: Partition, tableau_index: int) -> SectorBlock:
        return self._index[(shape, tableau_index)]

    @property
    def schur_matrix(self) -> np.ndarray:
        """The frame matrix; without a stored frame, the direct sum of the
        blocks, built anew on every read."""
        return self.frame if self.frame is not None else self.reassembled()

    def reassembled(self) -> np.ndarray:
        """Dense matrix containing only the diagonal blocks, of their dtype."""
        dtype = np.result_type(*(b.matrix for b in self.blocks))
        out = np.zeros((self.basis.dim, self.basis.dim), dtype=dtype)
        for b in self.blocks:
            sl = self.basis.tableau_slice(b.shape, b.tableau_index)
            out[sl, sl] = b.matrix
        return out


def to_schur_frame(superop: SuperOperatorMatrix, basis: SuperSchurBasis) -> np.ndarray:
    """Conjugate a letter-basis superoperator matrix into the adapted frame.

    Computes U^T M U from the basis's real class blocks: one small product
    per class on each side, holding one frame-sized array besides M.  The
    row pass gathers the class rows of M with their columns already in
    class order, the column pass works on each class's contiguous columns
    in place, and a final column permutation restores the frame order.  A
    real M takes real products throughout and gives a real frame.
    """
    if (superop.d, superop.n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"superoperator (d={superop.d}, n={superop.n}) does not match "
            f"basis (d={basis.d}, n={basis.n})"
        )
    M = superop.matrix
    order = np.concatenate([rows for rows, _, _ in basis.classes])
    S = np.empty(M.shape, dtype=M.dtype)
    # a complex row is a row of (re, im) pairs, so on the real view the real
    # block multiplies real and imaginary parts in one real product (on a
    # real M the view is M itself)
    S_re = S.view(np.float64)
    for rows, cols, B in basis.classes:
        S_re[cols] = B.T @ M[np.ix_(rows, order)].view(np.float64)
    start = 0
    for rows, _, B in basis.classes:
        c = slice(start, start + len(rows))
        S[:, c] = S[:, c] @ B
        start = c.stop
    # class position i now holds frame column frame[i]
    frame = np.concatenate([cols for _, cols, _ in basis.classes])
    _take_columns_in_place(S, np.argsort(frame))
    return S


def _take_columns_in_place(A: np.ndarray, index: np.ndarray) -> None:
    """A[:, index] written back into A, 32 rows at a time, so the only
    temporary is a 32-row buffer."""
    buf = np.empty((32, A.shape[1]), dtype=A.dtype)
    for r0 in range(0, A.shape[0], len(buf)):
        chunk = A[r0 : r0 + len(buf)]
        out = buf[: len(chunk)]
        np.take(chunk, index, axis=1, out=out)
        chunk[...] = out


def _twin_deviations(basis: SuperSchurBasis, blocks: list[SectorBlock]) -> dict:
    by_shape: dict[Partition, list[np.ndarray]] = {}
    for b in blocks:
        by_shape.setdefault(b.shape, []).append(b.matrix)
    out = {}
    for shape, mats in by_shape.items():
        dev = 0.0
        for A, B in itertools.combinations(mats, 2):
            dev = max(dev, float(np.max(np.abs(A - B))))
        out[shape] = dev
    return out


def decompose(
    superop: SuperOperatorMatrix,
    basis: SuperSchurBasis,
    tol: float = DEFAULT_BLOCK_TOL,
) -> BlockDecomposition:
    """Split a superoperator into sector blocks and measure the residue.

    The full conjugated matrix is retained, so leakage and twin deviation
    report honestly even for maps with no symmetry at all.  Leakage is the
    largest entry outside the diagonal blocks, read row slab by row slab
    from the frame matrix itself.
    """
    S = to_schur_frame(superop, basis)
    blocks = []
    off_block = []
    for shape in basis.shapes:
        for y in range(basis.syt_count(shape)):
            sl = basis.tableau_slice(shape, y)
            blocks.append(SectorBlock(shape, y, S[sl, sl].copy()))
            # the tableau slices tile the frame, so the rows of sl left and
            # right of its diagonal block cover everything outside the blocks
            for side in (S[sl, : sl.start], S[sl, sl.stop :]):
                if side.size:
                    off_block.append(np.max(np.abs(side)))
    # np.max, unlike the builtin max, lets a NaN through
    leakage = float(np.max(off_block, initial=0.0))
    return BlockDecomposition(
        d=basis.d,
        n=basis.n,
        kind=superop.kind,
        tol=tol,
        basis=basis,
        frame=S,
        blocks=blocks,
        leakage=leakage,
        twin_deviation=_twin_deviations(basis, blocks),
    )


@dataclass(frozen=True)
class DfsSector:
    """Protection summary for one shape: the tableau index is the
    protected subsystem, the multiplicity space absorbs the noise."""

    shape: Partition
    protected_dim: int
    noisy_dim: int
    flagged: bool


@dataclass(frozen=True)
class DfsReport:
    classification: str
    sectors: list
    leakage: float
    twin_deviation: dict
    tol: float


def dfs_report(decomp: BlockDecomposition, certificate: SymmetryCertificate) -> DfsReport:
    """Flag the sectors that carry a decoherence-free subsystem.

    A shape is flagged when its protected dimension is at least two and
    the measured leakage and twin deviation sit below the decomposition
    tolerance; the certificate is reported alongside for context.
    """
    sectors = []
    for shape in decomp.basis.shapes:
        protected = decomp.basis.syt_count(shape)
        noisy = decomp.basis.multiplicity(shape)
        flagged = (
            protected >= 2
            and decomp.leakage < decomp.tol
            and decomp.twin_deviation[shape] < decomp.tol
        )
        sectors.append(DfsSector(shape, protected, noisy, flagged))
    return DfsReport(
        classification=certificate.classification,
        sectors=sectors,
        leakage=decomp.leakage,
        twin_deviation=dict(decomp.twin_deviation),
        tol=decomp.tol,
    )


def blockwise_exp(decomp: BlockDecomposition, t: float) -> BlockDecomposition:
    """Exponentiate a generator block by block: exp(t * block) per sector.

    Requires a generator whose leakage is below the decomposition
    tolerance; the result is a channel-kind decomposition that keeps only
    the exponentiated blocks (its ``schur_matrix`` is their direct sum,
    built when read).

    A shape whose twin deviation is below the tolerance is exponentiated
    once, from its tableau-0 block, and every twin of that shape gets the
    same read-only array; the same test flags a sector in
    :func:`dfs_report`.  Sharing replaces each twin by one that differs from
    it by less than the tolerance entrywise, an error of the size already
    accepted in the off-block entries this function drops.  A shape whose
    twins differ by more (or by NaN) is exponentiated twin by twin.
    """
    if decomp.kind != "generator":
        raise BlockStructureError(f"can only exponentiate a generator, got kind {decomp.kind!r}")
    if decomp.leakage > decomp.tol:
        raise BlockStructureError(
            f"leakage {decomp.leakage:.3e} exceeds tolerance {decomp.tol:.1e}; "
            "refusing blockwise exponential of a non-block-diagonal generator"
        )
    shared: dict[Partition, np.ndarray] = {}
    blocks = []
    for b in decomp.blocks:
        if not decomp.twin_deviation[b.shape] < decomp.tol:
            E = expm(t * b.matrix)
        elif b.shape in shared:
            E = shared[b.shape]
        else:
            E = expm(t * decomp.block(b.shape, 0).matrix)
            E.flags.writeable = False
            shared[b.shape] = E
        blocks.append(SectorBlock(b.shape, b.tableau_index, E))
    return BlockDecomposition(
        d=decomp.d,
        n=decomp.n,
        kind="channel",
        tol=decomp.tol,
        basis=decomp.basis,
        frame=None,
        blocks=blocks,
        leakage=0.0,
        twin_deviation=_twin_deviations(decomp.basis, blocks),
    )


def protection_check(decomp: BlockDecomposition, trials: int = 5, seed: int = 0) -> float:
    """Probe the protected subsystems with random sector states.

    For every shape with protected dimension >= 2, random coefficient
    matrices are pushed through the full conjugated superoperator and
    compared against the reference-tableau block acting on the
    multiplicity index alone.  Returns the largest deviation observed;
    for a genuinely symmetric map this is at the leakage/twin level,
    while any cross-talk into the protected index shows up directly.
    Only the sector's columns of the frame meet a probe, and a real frame
    takes its real and imaginary parts as the two columns of one real
    product instead of a complex copy of itself.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    basis = decomp.basis
    eligible = [s for s in basis.shapes if basis.syt_count(s) >= 2]
    if not eligible:
        raise BlockStructureError("no sector with protected dimension >= 2")
    rng = np.random.default_rng(seed)
    S = decomp.schur_matrix
    deviation = 0.0
    for _ in range(trials):
        for shape in eligible:
            protected = basis.syt_count(shape)
            noisy = basis.multiplicity(shape)
            C = rng.standard_normal((protected, noisy)) + 1j * rng.standard_normal(
                (protected, noisy)
            )
            sl = basis.sector_slice(shape)
            v = C.reshape(-1)
            if np.iscomplexobj(S):
                out = S[:, sl] @ v
            else:
                parts = S[:, sl] @ np.column_stack((v.real, v.imag))
                out = parts[:, 0] + 1j * parts[:, 1]
            B = decomp.block(shape, 0).matrix
            predicted = np.zeros(basis.dim, dtype=np.complex128)
            predicted[sl] = (C @ B.T).reshape(-1)
            deviation = max(deviation, float(np.max(np.abs(out - predicted))))
    return deviation
