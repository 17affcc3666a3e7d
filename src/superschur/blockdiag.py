"""Sector decomposition of superoperators in the permutation-adapted frame.

A permutation-symmetric superoperator, conjugated into the adapted basis,
is the direct sum over shapes lambda of B_lambda (x) I_syt(lambda): one
block per partition shape, repeated once per standard tableau.  A shape
whose tableau count exceeds one then carries a protected subsystem, the
identity factor: the dynamics touches only the multiplicity space.  The
basis alone fixes both dimensions of a sector (``syt_count`` protected,
``multiplicity`` noisy), so :func:`dfs_report` returns nothing but one
flag per shape: whether the measured residue lets that factor stand.  The
decomposition keeps the whole frame, which its measurements read, and the
blocks in that form: one array per shape, its tableau-0 block B.  The
exponential of a block-diagonal generator is nothing but its blocks: a
:class:`BlockExponential` holds one exp(tB) per shape, and builds no frame.

The adapted basis is stored as one block per letter-content class (every
column lives on one class), so the conjugation into the frame is one row
pass applied twice, U^T M U = U^T (U^T M^T)^T, one class block at a time
instead of two dense products, in the buffer of the superoperator itself:
the superoperator is consumed, and the only dense array the decomposition
holds is the frame it becomes.

The basis matrix is real, so every stage keeps the dtype of the
superoperator it is given.  For qubits that is float64 (the Pauli transfer
matrix; ``superschur.channels`` bounds the imaginary part it drops), and
the frame, the blocks, the exponentials and their direct sum are float64
too: half the memory of complex128, and real BLAS products.  Qutrits and
above stay complex128.

Each block exponential is a numpy scaling and squaring with a Padé
approximant (:func:`_expm`), so no stage of this module loads scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import SuperOperatorMatrix
from .combinatorics import Partition
from .errors import BlockStructureError, DimensionMismatchError
from .liouville import _read_only
from .schur import SuperSchurBasis

DEFAULT_BLOCK_TOL = 1e-8
# random probes per eligible shape in protection_check
PROTECTION_TRIALS = 5
# side of the square tiles _transpose_in_place swaps
_TILE = 64
# Higham (2005), Table 2.3: the largest 1-norm of A at which the [m/m] Padé
# approximant of exp(A) is accurate to double precision, per degree m
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


@dataclass
class BlockDecomposition:
    """A superoperator matrix split along the adapted-basis sectors.

    ``frame`` is the whole conjugated matrix U^T M U.  ``blocks`` maps each
    shape, in frame order, to a read-only copy of its tableau-0 block, the
    ``B`` of ``B (x) I``; the frame holds ``basis.syt_count(shape)`` copies
    of it.  ``leakage`` is the largest entry of the frame outside all
    diagonal blocks and ``twin_deviation`` the largest difference between
    two blocks of the same shape; both are small exactly when the
    underlying map is permutation symmetric.
    """

    kind: str
    tol: float
    basis: SuperSchurBasis
    frame: np.ndarray
    blocks: dict[Partition, np.ndarray]
    leakage: float
    twin_deviation: dict[Partition, float]


def to_schur_frame(superop: SuperOperatorMatrix, basis: SuperSchurBasis) -> np.ndarray:
    """Conjugate a letter-basis superoperator matrix into the adapted frame.

    Computes U^T M U as U^T (U^T M^T)^T: one row pass (:func:`_rows_to_frame`)
    on the C-order buffer of M^T (the matrix is held in F order), an
    in-place transpose, and the row pass again.  Every product is a real
    class block times a row slab of the real view, even for a complex M, so
    only a class-sized temporary lives.

    The conjugation runs in the buffer of ``superop.matrix``: the result is
    a C-order view of it, and ``superop.matrix`` then reads the frame
    transposed, so the superoperator is consumed.  A basis of another
    (d, n) raises DimensionMismatchError before anything is written.
    """
    if (superop.d, superop.n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"superoperator (d={superop.d}, n={superop.n}) does not match "
            f"basis (d={basis.d}, n={basis.n})"
        )
    S = superop.matrix.T
    _rows_to_frame(S, basis)
    _transpose_in_place(S)
    _rows_to_frame(S, basis)
    return S


def _rows_to_frame(S: np.ndarray, basis: SuperSchurBasis) -> None:
    """S <- U^T S for a C-order S with rows on letter strings: the rows go
    into the layout's class order, each class's row slab is replaced by B^T
    times it, and the rows go into frame order."""
    placed = basis.layout.classes.values()
    _take_rows_in_place(S, np.concatenate([rows for rows, _ in placed]))
    bounds = np.cumsum([0] + [len(B) for B in basis.blocks])
    # a complex row is a row of (re, im) pairs, so on the real view the real
    # block multiplies real and imaginary parts in one real product (on a
    # real S the view is S itself)
    S_re = S.view(np.float64)
    for B, start, stop in zip(basis.blocks, bounds, bounds[1:]):
        S_re[start:stop] = B.T @ S_re[start:stop]
    # position i now holds the frame row that the classes' concatenated
    # cols name at i
    _take_rows_in_place(S, np.argsort(np.concatenate([cols for _, cols in placed])))


def _take_rows_in_place(A: np.ndarray, index: np.ndarray) -> None:
    """A[index] written back into A, one cycle of the permutation at a
    time, so the only temporary is one row."""
    index = index.tolist()
    done = bytearray(len(index))
    row = np.empty_like(A[0])
    for start in range(len(index)):
        if done[start] or index[start] == start:
            continue
        row[...] = A[start]
        i = start
        while index[i] != start:
            A[i] = A[index[i]]
            done[i] = 1
            i = index[i]
        A[i] = row
        done[i] = 1


def _transpose_in_place(A: np.ndarray) -> None:
    """A <- A.T for a square A, swapping _TILE x _TILE tiles across the
    diagonal, so the only temporary is one tile."""
    N = A.shape[0]
    for i in range(0, N, _TILE):
        a = slice(i, i + _TILE)
        A[a, a] = A[a, a].T.copy()
        for j in range(i + _TILE, N, _TILE):
            b = slice(j, j + _TILE)
            upper = A[a, b].copy()
            A[a, b] = A[b, a].T
            A[b, a] = upper.T


def _off_block_maxima(S: np.ndarray, sl: slice) -> list:
    """The largest |entry| of the rows of ``sl`` left and right of its
    diagonal block.  The tableau slices tile the frame, so over all of them
    these cover everything outside the blocks, one row slab at a time."""
    return [np.max(np.abs(side)) for side in (S[sl, : sl.start], S[sl, sl.stop :]) if side.size]


def _twin_deviation(twins: list[np.ndarray]) -> float:
    """The largest entrywise difference between two twin blocks, 0.0 for a
    shape with one tableau.  np.max, unlike the builtin max, lets a NaN
    through."""
    pairs = itertools.combinations(twins, 2)
    return float(np.max([np.max(np.abs(A - B)) for A, B in pairs], initial=0.0))


def decompose(
    superop: SuperOperatorMatrix, basis: SuperSchurBasis, tol: float = DEFAULT_BLOCK_TOL
) -> BlockDecomposition:
    """Split a superoperator into sector blocks and measure the residue.

    The full conjugated matrix is retained, so leakage and twin deviation
    report honestly even for maps with no symmetry at all.  Both are read
    from views of the frame matrix itself, leakage row slab by row slab.
    Each shape keeps one copy of its tableau-0 block, whatever its twin
    deviation: :func:`blockwise_exp` refuses a shape whose twins differ by
    more than ``tol``, and :func:`dfs_report` flags none.

    The frame is :func:`to_schur_frame`'s view of the buffer of
    ``superop.matrix``, so the superoperator is consumed and no second
    array of its size is allocated.
    """
    S = to_schur_frame(superop, basis)
    blocks = {}
    off_block = []
    twin_deviation = {}
    for shape in basis.shapes:
        slices = [basis.tableau_slice(shape, y) for y in range(basis.syt_count(shape))]
        for sl in slices:
            off_block.extend(_off_block_maxima(S, sl))
        twins = [S[sl, sl] for sl in slices]
        twin_deviation[shape] = _twin_deviation(twins)
        blocks[shape] = twins[0].copy()
    _read_only(*blocks.values())
    # np.max, unlike the builtin max, lets a NaN through
    leakage = float(np.max(off_block, initial=0.0))
    return BlockDecomposition(
        kind=superop.kind,
        tol=tol,
        basis=basis,
        frame=S,
        blocks=blocks,
        leakage=leakage,
        twin_deviation=twin_deviation,
    )


def dfs_report(decomp: BlockDecomposition) -> dict[Partition, bool]:
    """One flag per shape, keyed in frame order: whether its sector
    carries a decoherence-free subsystem.

    A shape is flagged when its protected dimension
    ``basis.syt_count(shape)`` is at least two and the leakage and its twin
    deviation are at most the decomposition tolerance; a NaN passes
    neither test.  Its noisy dimension is ``basis.multiplicity(shape)``.
    """
    basis, tol = decomp.basis, decomp.tol
    return {
        shape: basis.syt_count(shape) >= 2
        and decomp.leakage <= tol
        and decomp.twin_deviation[shape] <= tol
        for shape in basis.shapes
    }


@dataclass(frozen=True)
class BlockExponential:
    """exp(tG) of a block-diagonal generator G, kept as its blocks.

    ``blocks`` has the keys of the generator's, each shape mapped to a
    read-only exp(t B), which acts alike on every tableau of the shape.
    """

    basis: SuperSchurBasis
    blocks: dict[Partition, np.ndarray]

    @property
    def schur_matrix(self) -> np.ndarray:
        """The direct sum of the blocks in the frame, each shape's in every
        tableau slice, of their dtype, built anew on every read."""
        dtype = np.result_type(*self.blocks.values())
        out = np.zeros((self.basis.dim, self.basis.dim), dtype=dtype)
        for shape, E in self.blocks.items():
            for y in range(self.basis.syt_count(shape)):
                sl = self.basis.tableau_slice(shape, y)
                out[sl, sl] = E
        return out


def blockwise_exp(decomp: BlockDecomposition, t: float) -> BlockExponential:
    """Exponentiate a generator block by block: exp(t * block) per sector.

    Requires a generator whose leakage, and every shape's twin deviation,
    is at most the decomposition tolerance: the generator is then B (x) I
    on each shape, up to the entries the tolerance accepts.  A NaN passes
    neither test.

    Each shape's block is exponentiated once, by the numpy scaling and
    squaring :func:`_expm`, into one read-only exponential.  An exponential
    that overflows float64 holds inf or NaN entries, without a
    floating-point warning; ``evolve`` refuses it by its finiteness check.
    """
    if decomp.kind != "generator":
        raise BlockStructureError(f"can only exponentiate a generator, got kind {decomp.kind!r}")
    measured = {"leakage": decomp.leakage}
    measured.update((f"{shape} twin deviation", v) for shape, v in decomp.twin_deviation.items())
    for what, value in measured.items():
        if not value <= decomp.tol:
            raise BlockStructureError(
                f"{what} {value:.3e} exceeds tolerance {decomp.tol:.1e}; refusing "
                "blockwise exponential of a generator that is not B (x) I on every shape"
            )
    blocks = {shape: _expm(B, t) for shape, B in decomp.blocks.items()}
    _read_only(*blocks.values())
    return BlockExponential(decomp.basis, blocks)


def _expm(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(tA) of a square matrix, of its dtype, by scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

    The [m/m] Padé approximant r_m = (V - U)^-1 (V + U) of the lowest degree
    m in 3, 5, 7, 9 whose theta bounds the 1-norm of tA, else of degree 13
    on tA / 2**s with s the least that brings the norm within theta_13,
    squared s times.  A product tA whose 1-norm is not finite gives NaN
    entries, and an overflow while squaring inf or NaN entries, with no
    floating-point warning: the caller refuses a result that is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        A = t * A
        norm = float(np.max(np.abs(A).sum(axis=0), initial=0.0))
        if not np.isfinite(norm):
            return np.full(A.shape, np.nan, dtype=A.dtype)
        m = next((m for m, theta in _PADE_THETA.items() if norm <= theta), 13)
        s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
        A = A / 2.0**s
        # the coefficients of the numerator p_m(x), with b_0 = 1
        f = math.factorial
        b = [f(2 * m - j) * f(m) / (f(2 * m) * f(j) * f(m - j)) for j in range(m + 1)]
        eye = np.eye(len(A), dtype=A.dtype)
        A2 = A @ A
        if m < 13:
            powers = [eye, A2]  # the even powers I, A^2, .., A^(m-1)
            while len(powers) < (m + 1) // 2:
                powers.append(powers[-1] @ A2)
            U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
            V = sum(b[2 * j] * P for j, P in enumerate(powers))
        else:
            A4 = A2 @ A2
            A6 = A4 @ A2
            U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                     + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
            V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
                 + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
        X = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            X = X @ X
    return X


def protection_check(decomp: BlockDecomposition, seed: int = 0) -> float:
    """Probe the protected subsystems with random sector states.

    For every shape with protected dimension >= 2, PROTECTION_TRIALS
    random coefficient matrices are pushed through the frame and compared
    against the reference-tableau block acting on the multiplicity index
    alone.  Returns the largest deviation observed; for a genuinely
    symmetric map this is at the leakage/twin level, while any cross-talk
    into the protected index shows up directly.
    Only the sector's columns of the frame meet a probe, and a real frame
    takes its real and imaginary parts as the two columns of one real
    product instead of a complex copy of itself.
    """
    basis = decomp.basis
    eligible = [s for s in basis.shapes if basis.syt_count(s) >= 2]
    if not eligible:
        raise BlockStructureError("no sector with protected dimension >= 2")
    rng = np.random.default_rng(seed)
    S = decomp.frame
    deviations = []
    for _ in range(PROTECTION_TRIALS):
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
            B = decomp.blocks[shape]
            predicted = np.zeros(basis.dim, dtype=np.complex128)
            predicted[sl] = (C @ B.T).reshape(-1)
            deviations.append(np.max(np.abs(out - predicted)))
    # np.max, unlike the builtin max, lets a NaN through
    return float(np.max(deviations))
