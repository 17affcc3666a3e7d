"""Kraus channels, Lindblad generators, and permutation-symmetry certificates.

A channel is *strongly* symmetric when every Kraus operator commutes with
every site permutation, and *weakly* symmetric when permuting the sites
merely mixes the Kraus operators by a unitary matrix.  Both notions are
decided on the adjacent transpositions, which generate the full group, each
applied to an operator matrix as an index gather, never as a dense
permutation matrix.
Lindblad generators additionally require a permutation-invariant
Hamiltonian for either classification.

Superoperator matrices in the letter basis come from one column kernel
shared by channels and generators.  Both write the map as
X -> sum_j L_j X R_j, over the pairs (F, F^dag) and, for a generator,
(A, I) and (I, A').  Every letter string is monomial, one nonzero per row
and column (Pauli and clock-shift letters alike), so the kernel forms the
images of a chunk of columns in one of two ways, chosen by the operators
alone.  When the map's Liouville matrix N = sum_j L_j (x) R_j^T is sparse
(sum_j nnz(L_j) nnz(R_j) at most _SPARSE_SHARE of its dim**2 entries), N^T
is built once as a sparse matrix and each chunk's images are one sparse
product with the chunk's letter strings.  Otherwise each chunk takes one
gathered stack and one dense matrix product for all the sandwich terms
F B F^dag together, the one-sided terms being gathers with phases.  The two
agree to roundoff.  Each scratch array is held to _CHUNK_BYTES (1 MB), so
the stage never holds more than the output matrix, N and a few such arrays.
Each image is vectorized by its own ``vectorize`` call, and the chunk's
vectors are stacked, so the copy into the output and the imaginary-part
bookkeeping below run once per chunk.  A letter basis that is not monomial
is refused.

With Hermitian letters (the Pauli strings, d = 2) every Kraus channel and
every Lindbladian with a Hermitian H maps Hermitian letter strings to
Hermitian operators, so its letter-basis matrix is real: the Pauli
transfer matrix.  The kernel then stores float64, keeping the real part of
every vectorized column, and measures the imaginary part it drops.  That
part may reach IMAGINARY_PART_TOL * max|M| (roundoff) plus, for a
generator, HERMITICITY_TOL: an anti-Hermitian part A of H with entries up
to HERMITICITY_TOL / 2 has Pauli coefficients no larger, and -i[A, P_b]
sends each of them to one coefficient at most twice as large, so dropping
that part is the same as using the Hermitian part of H.  Anything larger
is an InternalConsistencyError.  Weyl letters (d >= 3) are not Hermitian
and keep complex128.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import (
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    InternalConsistencyError,
)
from .liouville import OperatorBasis, QuditOperator, vectorize
from .permutations import adjacent_transpositions, string_index_map

CLOSURE_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACELESS_TOL = 1e-10
STRONG_TOL = 1e-10
WEAK_TOL = 1e-8
_NEGLIGIBLE_NORM_SQ = 1e-14
# largest imaginary part the real (Hermitian-letter) kernel may drop, as a
# share of max|M|; measured roundoff stays below 2e-16
IMAGINARY_PART_TOL = 1e-12
# byte budget of each scratch array in the superoperator kernel; freed
# scratch stays resident in the heap, so it adds to the later stages' peak
_CHUNK_BYTES = 1 << 20
# a map takes the sparse Liouville product when sum_j nnz(L_j) nnz(R_j) over
# its pairs is at most this share of dim**2, else the dense sandwich product.
# Measured at d = 2, n = 5 and 6 on random operators: the sparse product
# wins below ~0.02 for one operator and ~0.06 for three; the builder
# families other than correlated_damping (0.79-0.89) stay below 0.04.  The
# share also caps the triplets built for N at 0.05 * dim**2.
_SPARSE_SHARE = 0.05


def _as_operators(d: int, n: int, matrices) -> tuple[QuditOperator, ...]:
    ops = []
    for m in matrices:
        op = m if isinstance(m, QuditOperator) else QuditOperator(d, n, m)
        if (op.d, op.n) != (d, n):
            raise DimensionMismatchError(
                f"operator (d={op.d}, n={op.n}) does not match channel (d={d}, n={n})"
            )
        ops.append(op)
    return tuple(ops)


def _gram(ops: tuple[QuditOperator, ...]) -> np.ndarray:
    stack = np.stack([op.matrix.reshape(-1) for op in ops])
    return np.conj(stack) @ stack.T / ops[0].d ** ops[0].n


def _orthogonality_bound(G: np.ndarray) -> float:
    """ORTHOGONALITY_TOL scaled by the largest squared operator norm on the
    Gram diagonal (never below the absolute tolerance), so that scaling
    every operator by c scales overlap and bound alike by c**2."""
    return ORTHOGONALITY_TOL * max(1.0, float(np.max(G.diagonal().real)))


def _check_operator_set(G: np.ndarray, noun: str, hint: str = "") -> None:
    """Refuse a zero operator, or two operators that overlap, among the
    operators with Gram matrix ``G``."""
    if np.any(G.diagonal().real < _NEGLIGIBLE_NORM_SQ):
        raise ChannelInvariantError(f"zero {noun}")
    off = float(np.max(np.abs(G - np.diag(G.diagonal()))))
    if off > _orthogonality_bound(G):
        raise ChannelInvariantError(f"{noun}s not mutually orthogonal: max overlap {off:.3e}{hint}")


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map in canonical Kraus form.

    The operators must close to the identity and be mutually orthogonal
    under the normalized trace pairing (every orthogonal Kraus set
    diagonalizes the process matrix, so this is a choice of canonical
    representative, not a restriction -- see orthogonalize_kraus).
    ``closure_deviation``, max |sum F^dag F - I|, is measured once, on
    construction.
    """

    d: int
    n: int
    kraus_ops: tuple[QuditOperator, ...]
    closure_deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = _as_operators(self.d, self.n, self.kraus_ops)
        if not ops:
            raise ChannelInvariantError("channel needs at least one Kraus operator")
        object.__setattr__(self, "kraus_ops", ops)
        dim = self.d**self.n
        closure = sum(op.matrix.conj().T @ op.matrix for op in ops)
        dev = float(np.max(np.abs(closure - np.eye(dim))))
        if dev > CLOSURE_TOL:
            raise ChannelInvariantError(
                f"Kraus closure violated: max deviation {dev:.3e} > {CLOSURE_TOL}"
            )
        object.__setattr__(self, "closure_deviation", dev)
        _check_operator_set(_gram(ops), "Kraus operator", "; run orthogonalize_kraus first")


@dataclass(frozen=True)
class Lindbladian:
    """A Markovian generator: Hermitian Hamiltonian plus jump operators.

    Jump operators are kept traceless and mutually orthogonal, the
    standard gauge in which the generator's decomposition is unique.
    """

    d: int
    n: int
    hamiltonian: QuditOperator
    jump_ops: tuple[QuditOperator, ...]

    def __post_init__(self) -> None:
        ham = self.hamiltonian
        if not isinstance(ham, QuditOperator):
            ham = QuditOperator(self.d, self.n, ham)
            object.__setattr__(self, "hamiltonian", ham)
        if (ham.d, ham.n) != (self.d, self.n):
            raise DimensionMismatchError("Hamiltonian does not match (d, n)")
        # the same overflow test the jumps get through their Gram matrix
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.vdot(ham.matrix, ham.matrix).real
        if not np.isfinite(size):
            raise ChannelSpecError(
                "Hamiltonian too large: sum |H_ij|^2 is not finite in float64"
            )
        herm = float(np.max(np.abs(ham.matrix - ham.matrix.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ChannelInvariantError(f"Hamiltonian not Hermitian: {herm:.3e}")
        ops = _as_operators(self.d, self.n, self.jump_ops)
        object.__setattr__(self, "jump_ops", ops)
        for k, op in enumerate(ops):
            tr = abs(np.trace(op.matrix)) / self.d**self.n
            if tr > TRACELESS_TOL:
                raise ChannelInvariantError(f"jump operator {k} not traceless: {tr:.3e}")
        if ops:
            # operators whose products overflow float64 are refused as input
            # here instead of reaching the superoperator kernel
            with np.errstate(over="ignore", invalid="ignore"):
                G = _gram(ops)
                K = sum(op.matrix.conj().T @ op.matrix for op in ops)
            if not (np.all(np.isfinite(G)) and np.all(np.isfinite(K))):
                raise ChannelSpecError(
                    "jump operators too large: their Gram matrix or sum L^dag L "
                    "is not finite in float64"
                )
            _check_operator_set(G, "jump operator")


def orthogonalize_kraus(d: int, n: int, matrices) -> list[np.ndarray]:
    """Rotate a Kraus list into canonical mutually orthogonal form.

    Diagonalizing the Gram matrix of the operators recombines them by a
    unitary, which never changes the channel; the output operators are
    eigenvectors of the process matrix, ordered by decreasing weight.
    Near-zero operators are dropped.  Lists that are already orthogonal
    are returned unchanged (up to dropping zeros).
    """
    ops = [np.asarray(m, dtype=np.complex128) for m in matrices]
    if not ops:
        return []
    stack = np.stack([m.reshape(-1) for m in ops])
    G = np.conj(stack) @ stack.T / d**n
    diag = np.diag(G).real
    off = np.max(np.abs(G - np.diag(diag))) if len(ops) > 1 else 0.0
    if off <= 1e-12 * max(1.0, diag.max(initial=0.0)):
        return [m for m, w in zip(ops, diag) if w > _NEGLIGIBLE_NORM_SQ]
    w, W = np.linalg.eigh(G)
    out = []
    for a in reversed(range(len(ops))):  # largest weight first
        if w[a] <= _NEGLIGIBLE_NORM_SQ:
            continue
        out.append(np.tensordot(W[:, a], np.stack(ops), axes=(0, 0)))
    return out


def psd_sqrt(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues below -tol raise; small negative roundoff is clamped.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > 1e-10:
        raise ChannelInvariantError(f"matrix not Hermitian: deviation {herm:.3e}")
    w, V = np.linalg.eigh(m)
    if w.min(initial=0.0) < -tol:
        raise ChannelInvariantError(f"matrix not positive semidefinite: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def symmetrize_local_kraus(
    single_ops: dict, pattern, d: int | None = None
) -> list[QuditOperator]:
    """Tensor products of labelled single-site operators over every
    distinct ordering of ``pattern``, in lexicographic label order."""
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must name at least one site")
    mats = {}
    for label in set(pattern):
        if label not in single_ops:
            raise ValueError(f"pattern label {label!r} missing from single_ops")
        m = np.asarray(single_ops[label], dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"operator {label!r} is not square")
        mats[label] = m
    sizes = {m.shape[0] for m in mats.values()}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"inconsistent single-site dimensions: {sorted(sizes)}")
    dd = sizes.pop()
    if d is not None and d != dd:
        raise DimensionMismatchError(f"expected local dimension {d}, operators are {dd}x{dd}")
    n = len(pattern)
    out = []
    for ordering in sorted(set(itertools.permutations(pattern))):
        out.append(QuditOperator(dd, n, reduce(np.kron, (mats[x] for x in ordering))))
    return out


@dataclass(frozen=True)
class SymmetryCertificate:
    """Outcome of the permutation-symmetry test on the group generators.

    ``generator_unitaries`` maps each adjacent transposition to the mixing
    matrix solved from operator overlaps; for a strongly symmetric channel
    these are close to the identity.  ``residuals`` records the measured
    deviations behind the classification.
    """

    classification: str
    generator_unitaries: dict
    residuals: dict

    def __post_init__(self) -> None:
        if self.classification not in ("strong", "weak", "none"):
            raise ValueError(f"unknown classification {self.classification!r}")


def mixing_unitary(
    ops: tuple[QuditOperator, ...], pi: tuple[int, ...], d: int, n: int
) -> tuple[np.ndarray, float, float]:
    """Solve pi F_nu pi^dag = sum_mu F_mu U[mu, nu] by overlaps.

    Returns (U, expansion residual, unitarity deviation).  The residual is
    the largest entry of the unexplained remainder; it vanishes exactly
    when the permuted operators stay inside the original span.
    """
    # with P the shuffle e_i -> e_t[i], P F P^T is the gather F[s][:, s], s = t^-1
    s = np.argsort(string_index_map(pi, d, n))
    S = np.stack([op.matrix for op in ops])
    k = len(S)
    # one row per operator: overlaps and reconstructions are two products
    T = S[:, s[:, None], s].reshape(k, -1)
    S = S.reshape(k, -1)
    norms2 = np.einsum("ij,ij->i", S.conj(), S).real
    U = (S.conj() @ T.T) / norms2[:, None]
    residual = float(np.max(np.abs(T - U.T @ S)))
    unit_dev = float(np.max(np.abs(U.conj().T @ U - np.eye(k))))
    return U, residual, unit_dev


def _generator_symmetry(
    ops: tuple[QuditOperator, ...], d: int, n: int
) -> tuple[dict, float, float, float]:
    gens = adjacent_transpositions(n)
    commutator = 0.0
    expansion = 0.0
    unitarity = 0.0
    unitaries = {}
    for g in gens:
        # P F = F[s]; a transposition is its own inverse, so F P = F[:, s]
        s = np.argsort(string_index_map(g, d, n))
        for op in ops:
            F = op.matrix
            commutator = max(commutator, float(np.max(np.abs(F[:, s] - F[s, :]))))
        if ops:
            U, res, udev = mixing_unitary(ops, g, d, n)
        else:
            U, res, udev = np.eye(0, dtype=np.complex128), 0.0, 0.0
        unitaries[g] = U
        expansion = max(expansion, res)
        unitarity = max(unitarity, udev)
    return unitaries, commutator, expansion, unitarity


def _operator_certificate(
    ops: tuple[QuditOperator, ...], d: int, n: int, residuals: dict
) -> SymmetryCertificate:
    """Strong when every operator commutes with the generators, weak when
    they only mix by unitaries, else none; ``residuals`` gains the three
    measured values behind that rule."""
    unitaries, comm, expansion, unitarity = _generator_symmetry(ops, d, n)
    residuals.update(
        strong_commutator=comm, expansion_residual=expansion, unitarity=unitarity
    )
    if comm < STRONG_TOL:
        classification = "strong"
    elif expansion < WEAK_TOL and unitarity < WEAK_TOL:
        classification = "weak"
    else:
        classification = "none"
    return SymmetryCertificate(classification, unitaries, residuals)


def classify_kraus_symmetry(channel: KrausChannel) -> SymmetryCertificate:
    """Strong/weak/none certificate for a Kraus channel."""
    return _operator_certificate(channel.kraus_ops, channel.d, channel.n, {})


def classify_lindblad_symmetry(lind: Lindbladian) -> SymmetryCertificate:
    """Strong/weak/none certificate for a Lindblad generator.

    Either classification requires the Hamiltonian itself to be
    permutation invariant; the jump operators then decide strong vs weak
    exactly as Kraus operators do.
    """
    ham_dev = 0.0
    H = lind.hamiltonian.matrix
    for g in adjacent_transpositions(lind.n):
        s = np.argsort(string_index_map(g, lind.d, lind.n))
        ham_dev = max(ham_dev, float(np.max(np.abs(H[np.ix_(s, s)] - H))))
    cert = _operator_certificate(
        lind.jump_ops, lind.d, lind.n, {"hamiltonian_invariance": ham_dev}
    )
    if ham_dev >= STRONG_TOL:
        return SymmetryCertificate("none", cert.generator_unitaries, cert.residuals)
    return cert


@dataclass(frozen=True)
class SuperOperatorMatrix:
    """A superoperator as a dense matrix on letter-string coordinates.

    A real matrix is kept as float64 (the Pauli transfer matrix of a qubit
    map), anything else as complex128; a complex matrix is never cast to
    real, whatever its imaginary part.
    """

    d: int
    n: int
    kind: str  # "channel" or "generator"
    matrix: np.ndarray
    basis: OperatorBasis

    def __post_init__(self) -> None:
        if self.kind not in ("channel", "generator"):
            raise ValueError(f"kind must be 'channel' or 'generator', got {self.kind!r}")
        dim = (self.d * self.d) ** self.n
        m = np.asarray(self.matrix)
        m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
        if m.shape != (dim, dim):
            raise DimensionMismatchError(f"matrix shape {m.shape} != ({dim}, {dim})")
        object.__setattr__(self, "matrix", m)


def _check_channel_basis(obj, basis: OperatorBasis) -> None:
    if (obj.d, obj.n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"channel (d={obj.d}, n={obj.n}) does not match basis (d={basis.d}, n={basis.n})"
        )


def _letter_superop(
    basis: OperatorBasis, sandwiched: list[np.ndarray], one_sided=None
) -> np.ndarray:
    """Letter-basis matrix of X -> A X + X A' + sum_F F X F^dag.

    ``one_sided`` is the pair (A, A') or None.  The map is sum_j L_j X R_j
    over the pairs (F, F^dag), plus (A, I) and (I, A') for a generator.
    When its Liouville matrix is sparse -- sum_j nnz(L_j) nnz(R_j) at most
    _SPARSE_SHARE of dim**2 -- the images of a chunk of columns are one
    sparse product with that matrix (:class:`_SparseImages`); otherwise they
    come from the dense sandwich product (:class:`_DenseImages`).  Either
    way each image is then vectorized on its own, into one stack per chunk.
    A scratch array holds at most _CHUNK_BYTES, unless a single column needs
    more (over 16 sandwiches at n = 6 on the dense path).

    With Hermitian letters the result is float64: each chunk keeps the real
    part of its stack, and the largest imaginary part dropped must stay within
    IMAGINARY_PART_TOL * max|M|, plus HERMITICITY_TOL when ``one_sided``
    carries a Hamiltonian (see the module docstring).
    """
    dim = basis.dim
    pairs = _liouville_pairs(sandwiched, one_sided, basis.d**basis.n)
    sizes = [np.count_nonzero(L) * np.count_nonzero(R) for L, R in pairs]
    if sum(sizes) <= _SPARSE_SHARE * dim * dim:
        images_of = _SparseImages(basis, pairs, sizes)
    else:
        images_of = _DenseImages(basis, sandwiched, one_sided)
    real = all(np.array_equal(letter, letter.conj().T) for letter in basis.letters)
    dropped = []  # per chunk: the largest imaginary part dropped
    out = np.empty((dim, dim), dtype=np.float64 if real else np.complex128)
    for b0 in range(0, dim, images_of.step):
        # one contiguous image per column, so vectorize gathers without a copy
        images = images_of(slice(b0, b0 + images_of.step))
        c = len(images)
        # out holds the transpose until the end, so each column is one
        # contiguous row; a real out takes the chunk's stack in one copy
        V = np.empty((c, dim), dtype=np.complex128) if real else out[b0 : b0 + c]
        for j in range(c):
            V[j] = vectorize(images[j], basis)
        if real:
            dropped.append(np.abs(V.imag).max())
            out[b0 : b0 + c] = V.real
    _transpose_in_place(out)
    if real:
        # a generator may also drop the anti-Hermitian part of an accepted H
        allowance = HERMITICITY_TOL if one_sided is not None else 0.0
        # max and -min instead of abs: no temporary the size of out
        bound = IMAGINARY_PART_TOL * max(out.max(), -out.min()) + allowance
        worst = np.max(dropped)  # a NaN comes through and fails the test
        if not worst <= bound:
            raise InternalConsistencyError(
                f"letter-basis matrix has imaginary part {worst:.3e} above the bound "
                f"{bound:.3e} ({IMAGINARY_PART_TOL:.0e} x max|M| + {allowance:.0e} for the "
                "Hamiltonian); a Hermiticity-preserving map is real on Hermitian letters"
            )
    return out


def _liouville_pairs(sandwiched, one_sided, D: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pairs (L_j, R_j) of the map X -> sum_j L_j X R_j."""
    pairs = [(F, F.conj().T) for F in sandwiched]
    if one_sided is not None:
        eye = np.eye(D, dtype=np.complex128)
        pairs += [(one_sided[0], eye), (eye, one_sided[1])]
    return pairs


class _SparseImages:
    """Images of a chunk of letter strings as one sparse product.

    With X flattened row by row, vec(L X R) = (L (x) R^T) vec(X), so the
    flattened images are the rows of Bt @ N^T with N^T = sum_j L_j^T (x) R_j,
    built once per map as a complex CSR matrix; row b of Bt holds the D
    nonzeros of B_b, phi_b(R) at R * D + sigma_b(R).  Both carry int32
    indices and complex data, so no chunk converts N^T.  The images land in
    one reused buffer of at most _CHUNK_BYTES, which ``toarray`` clears
    before it writes.
    """

    def __init__(self, basis: OperatorBasis, pairs, sizes: list[int]) -> None:
        # imported on first use: a run that builds no sparse matrix
        # (decompose, schur-basis, dense maps) skips its ~20 ms import
        from scipy.sparse import coo_array

        D = basis.d**basis.n
        rows = np.empty(sum(sizes), dtype=np.int32)
        cols = np.empty_like(rows)
        vals = np.empty(len(rows), dtype=np.complex128)
        start = 0
        for (L, R), size in zip(pairs, sizes):
            # (L^T (x) R)[a D + c, b D + e] = L[b, a] R[c, e]
            lr, lc = (i.astype(np.int32) for i in np.nonzero(L))
            rr, rc = (i.astype(np.int32) for i in np.nonzero(R))
            part = slice(start, start + size)
            rows[part] = (lc[:, None] * D + rr).ravel()
            cols[part] = (lr[:, None] * D + rc).ravel()
            vals[part] = np.multiply.outer(L[lr, lc], R[rr, rc]).ravel()
            start += size
        # the conversion sums the duplicate entries of different pairs
        self.transfer = coo_array((vals, (rows, cols)), shape=(D * D, D * D)).tocsr()
        self.tables = basis.string_tables
        self.step = max(1, _CHUNK_BYTES // (16 * D * D))
        self.buffer = np.empty((min(self.step, basis.dim), D * D), dtype=np.complex128)
        self.slots = np.arange(D, dtype=np.int32) * D

    def __call__(self, chunk: slice) -> np.ndarray:
        from scipy.sparse import csr_array

        sigma, phi = self.tables.rows(chunk)
        c, D = sigma.shape
        Bt = csr_array(
            (
                phi.ravel(),
                (self.slots + sigma.astype(np.int32)).ravel(),
                np.arange(0, c * D + 1, D, dtype=np.int32),
            ),
            shape=(c, D * D),
        )
        images = (Bt @ self.transfer).toarray(out=self.buffer[:c])
        return images.reshape(c, D, D)


class _DenseImages:
    """Images of a chunk of letter strings from the dense sandwich product.

    Every letter string B_b is monomial, so B_b F^dag and B_b A' are row
    gathers with phases and A B_b is a column gather; each chunk combines
    their indices and phases from the basis's half-string tables in one
    broadcast.  The sandwiches of a chunk take one product,
    [F_1 ... F_K] @ [B_b F_1^dag; ...; B_b F_K^dag], which runs in real
    arithmetic when every F is real.
    """

    def __init__(self, basis: OperatorBasis, sandwiched, one_sided) -> None:
        D = basis.d**basis.n
        self.K = K = len(sandwiched)
        if K:
            F_row = np.hstack(sandwiched)
            if not np.any(F_row.imag):
                # contiguous, or the product skips BLAS for the strided view
                F_row = np.ascontiguousarray(F_row.real)
            self.F_row = F_row
            self.daggers = np.stack([F.conj().T for F in sandwiched])
        self.one_sided = one_sided
        self.tables = basis.string_tables
        self.step = max(1, _CHUNK_BYTES // (16 * D * D * max(K, 1)))

    def __call__(self, chunk: slice) -> np.ndarray:
        # (B_b X)[R, j] = phi[b, R] * X[sigma[b, R], j], stored [R, b, j]
        sigma, phi = self.tables.rows(chunk)
        c, D = sigma.shape
        K = self.K
        row_phase = phi.T[:, :, None]
        if K:
            Y = self.daggers[:, sigma.T]
            Y *= row_phase
            Y = Y.reshape(K * D, c * D)
            if self.F_row.dtype == np.float64:
                # a complex row is a row of (re, im) pairs, so the real F
                # multiplies real and imaginary parts in one real product
                images = (self.F_row @ Y.view(np.float64)).view(np.complex128)
            else:
                images = self.F_row @ Y
            images = images.reshape(D, c, D)
        else:
            images = np.zeros((D, c, D), dtype=np.complex128)
        if self.one_sided is not None:
            A, A_right = self.one_sided
            G = A_right[sigma.T]
            G *= row_phase
            images += G
            # (A B_b)[i, C] = A[i, tau[b, C]] * psi[b, C]
            tau, psi = self.tables.columns(chunk)
            G = A[:, tau]
            G *= psi
            images += G
        return np.ascontiguousarray(images.transpose(1, 0, 2))


def _transpose_in_place(A: np.ndarray, tile: int = 64) -> None:
    """A <- A.T for a square A, swapping tiles across the diagonal, so the
    only temporary is one tile."""
    N = A.shape[0]
    for i in range(0, N, tile):
        a = slice(i, i + tile)
        A[a, a] = A[a, a].T.copy()
        for j in range(i + tile, N, tile):
            b = slice(j, j + tile)
            upper = A[a, b].copy()
            A[a, b] = A[b, a].T
            A[b, a] = upper.T


def kraus_superop(channel: KrausChannel, basis: OperatorBasis) -> SuperOperatorMatrix:
    """Matrix of rho -> sum_mu F_mu rho F_mu^dag in the letter basis."""
    _check_channel_basis(channel, basis)
    out = _letter_superop(basis, [op.matrix for op in channel.kraus_ops])
    return SuperOperatorMatrix(d=basis.d, n=basis.n, kind="channel", matrix=out, basis=basis)


def lindblad_superop(lind: Lindbladian, basis: OperatorBasis) -> SuperOperatorMatrix:
    """Matrix of the generator rho -> -i[H, rho] + sum_k D[L_k](rho).

    Written as rho -> A rho + rho A' + sum_k L_k rho L_k^dag with
    A = -iH - K/2, A' = iH - K/2 and K = sum_k L_k^dag L_k.
    """
    _check_channel_basis(lind, basis)
    H = lind.hamiltonian.matrix
    jumps = [op.matrix for op in lind.jump_ops]
    K = sum((L.conj().T @ L for L in jumps), np.zeros_like(H))
    out = _letter_superop(basis, jumps, (-1j * H - 0.5 * K, 1j * H - 0.5 * K))
    return SuperOperatorMatrix(d=basis.d, n=basis.n, kind="generator", matrix=out, basis=basis)


# --------------------------------------------------------------------------
# Example families


def _damping_pair(p: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"decay probability must lie in [0, 1], got {p}")
    f0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128)
    f1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
    return f0, f1


_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def _on_sites(op: np.ndarray, sites, n: int) -> np.ndarray:
    """``op`` on each of ``sites`` and the identity on the other qubits."""
    eye = np.eye(2, dtype=np.complex128)
    return reduce(np.kron, (op if k in sites else eye for k in range(n)))


def _completion_op(ops: list[np.ndarray], dim: int) -> np.ndarray | None:
    """Kraus operator completing a contractive set to a channel, if needed."""
    R = np.eye(dim, dtype=np.complex128) - sum(F.conj().T @ F for F in ops)
    if np.max(np.abs(R)) < 1e-14:
        return None
    return psd_sqrt(R)


def _ising_hamiltonian(n: int, h_x: float, J: float) -> np.ndarray:
    """Transverse field plus uniform all-to-all longitudinal coupling
    (for three sites the all-to-all and nearest-neighbour rings agree)."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    dim = 2**n
    H = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(n):
        H += h_x * _on_sites(X, {k}, n)
    for i in range(n):
        for j in range(i + 1, n):
            H += J * _on_sites(Z, {i, j}, n)
    return H


def _build_collective_damping(n: int, p: float = 0.5) -> KrausChannel:
    f0, f1 = _damping_pair(p)
    ops = [reduce(np.kron, [f0] * n), reduce(np.kron, [f1] * n)]
    tail = _completion_op(ops, 2**n)
    if tail is not None:
        ops.append(tail)
    return KrausChannel(2, n, tuple(orthogonalize_kraus(2, n, ops)))


def _build_correlated_damping(n: int, p: float = 0.5) -> KrausChannel:
    # Coherent sums over the permutation orbit of one (resp. two) damped
    # sites.  Each sum is scaled by 1/sqrt(orbit size): the raw sums
    # exceed contractivity for p > 2 - sqrt(3), while the scaled set is a
    # sub-sum of the full product closure and completes for every p.
    f0, f1 = _damping_pair(p)
    singles = symmetrize_local_kraus({"f0": f0, "f1": f1}, ["f1"] + ["f0"] * (n - 1))
    doubles = symmetrize_local_kraus({"f0": f0, "f1": f1}, ["f1", "f1"] + ["f0"] * (n - 2))
    ops = [
        sum(op.matrix for op in singles) / math.sqrt(len(singles)),
        sum(op.matrix for op in doubles) / math.sqrt(len(doubles)),
    ]
    tail = _completion_op(ops, 2**n)
    if tail is not None:
        ops.append(tail)
    return KrausChannel(2, n, tuple(orthogonalize_kraus(2, n, ops)))


def _build_single_site_damping(n: int, p: float = 0.5) -> KrausChannel:
    # One site damps at a time; the 1/sqrt(n) weight restores closure.
    f0, f1 = _damping_pair(p)
    eye = np.eye(2, dtype=np.complex128)
    ops = []
    for label in ("f0", "f1"):
        orbit = symmetrize_local_kraus(
            {"f0": f0, "f1": f1, "I": eye}, [label] + ["I"] * (n - 1)
        )
        ops.extend(op.matrix / math.sqrt(n) for op in orbit)
    return KrausChannel(2, n, tuple(orthogonalize_kraus(2, n, ops)))


def _build_independent_damping(n: int, p: float = 0.5) -> KrausChannel:
    # Every site damps independently: all 2**n products, the union of the
    # permutation orbits of the patterns f1^k f0^(n-k).
    f0, f1 = _damping_pair(p)
    ops = []
    for k in range(n + 1):
        orbit = symmetrize_local_kraus(
            {"f0": f0, "f1": f1}, ["f1"] * k + ["f0"] * (n - k)
        )
        ops.extend(op.matrix for op in orbit)
    return KrausChannel(2, n, tuple(orthogonalize_kraus(2, n, ops)))


def _build_single_jump(n: int, gamma1: float = 1.0, h_x: float = 1.0, J: float = 1.0) -> Lindbladian:
    _check_rate("gamma1", gamma1)
    jumps = [math.sqrt(gamma1) * _on_sites(_LOWER, {k}, n) for k in range(n)]
    return Lindbladian(2, n, QuditOperator(2, n, _ising_hamiltonian(n, h_x, J)), tuple(jumps))


def _build_double_jump(n: int, gamma2: float = 1.0, h_x: float = 1.0, J: float = 1.0) -> Lindbladian:
    _check_rate("gamma2", gamma2)
    jumps = [
        math.sqrt(gamma2) * _on_sites(_LOWER, {i, j}, n)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return Lindbladian(2, n, QuditOperator(2, n, _ising_hamiltonian(n, h_x, J)), tuple(jumps))


def _build_collective_jump(
    n: int,
    gamma3: float = 1.0,
    gamma4: float = 1.0,
    gamma5: float = 1.0,
    h_x: float = 1.0,
    J: float = 1.0,
) -> Lindbladian:
    for name, rate in (("gamma3", gamma3), ("gamma4", gamma4), ("gamma5", gamma5)):
        _check_rate(name, rate)
    jumps = []
    if gamma3 > 0.0:
        jumps.append(math.sqrt(gamma3) * sum(_on_sites(_LOWER, {k}, n) for k in range(n)))
    if gamma4 > 0.0:
        jumps.append(
            math.sqrt(gamma4)
            * sum(_on_sites(_LOWER, {i, j}, n) for i in range(n) for j in range(i + 1, n))
        )
    if gamma5 > 0.0:
        jumps.append(math.sqrt(gamma5) * reduce(np.kron, [_LOWER] * n))
    # at n = 2 the pair sum and the all-sites product coincide; the Gram
    # rotation merges parallel jumps without changing the dissipator
    jumps = orthogonalize_kraus(2, n, jumps)
    return Lindbladian(2, n, QuditOperator(2, n, _ising_hamiltonian(n, h_x, J)), tuple(jumps))


def _build_transverse_ising(n: int, h_x: float = 1.0, J: float = 1.0) -> Lindbladian:
    return Lindbladian(2, n, QuditOperator(2, n, _ising_hamiltonian(n, h_x, J)), ())


def _check_rate(name: str, rate: float) -> None:
    if rate < 0.0:
        raise ValueError(f"{name} must be non-negative, got {rate}")


EXAMPLE_CHANNELS = {
    "collective_damping": _build_collective_damping,
    "correlated_damping": _build_correlated_damping,
    "single_site_damping": _build_single_site_damping,
    "independent_damping": _build_independent_damping,
    "single_jump": _build_single_jump,
    "double_jump": _build_double_jump,
    "collective_jump": _build_collective_jump,
    "transverse_ising": _build_transverse_ising,
}


def example_channel(name: str, n: int = 3, **params):
    """Build one of the named qubit families (KrausChannel or Lindbladian).

    Damping families take ``p``; jump families take decay rates
    (``gamma1`` .. ``gamma5``) and Hamiltonian couplings ``h_x``, ``J``.
    """
    if name not in EXAMPLE_CHANNELS:
        known = ", ".join(sorted(EXAMPLE_CHANNELS))
        raise ValueError(f"unknown example channel {name!r}; known: {known}")
    if n < 2:
        raise ValueError(f"example channels need n >= 2, got {n}")
    try:
        return EXAMPLE_CHANNELS[name](n, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for {name!r}: {exc}") from None


# --------------------------------------------------------------------------
# Channel description files


_TOP_KEYS = {"d", "n", "kind", "operators", "hamiltonian", "builder", "orthogonalize"}


def _require_int(doc: dict, key: str, minimum: int) -> int:
    if key not in doc:
        raise ChannelSpecError(f"{key}: required field missing")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ChannelSpecError(f"{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise ChannelSpecError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _bulk_pairs(obj: list, dim: int) -> np.ndarray | None:
    """The 2 * dim * dim numbers of a well-formed matrix as one float64
    array, or None.  The types and lengths are collected with ``map``, so
    no Python loop runs per entry."""
    if not all(isinstance(row, list) and len(row) == dim for row in obj):
        return None
    entries = list(itertools.chain.from_iterable(obj))
    if not all(issubclass(t, list) for t in set(map(type, entries))):
        return None
    if set(map(len, entries)) != {2}:
        return None
    numbers = list(itertools.chain.from_iterable(entries))
    if not all(map(_is_number_type, set(map(type, numbers)))):
        return None
    try:
        pairs = np.array(numbers, dtype=np.float64)
    except OverflowError:  # an integer beyond float64
        return None
    return pairs if np.all(np.isfinite(pairs)) else None


def _parse_matrix(obj, where: str, dim: int) -> np.ndarray:
    """The dim x dim complex matrix written as rows of [re, im] pairs.

    A well-formed matrix is checked and converted in bulk
    (:func:`_bulk_pairs`); anything else goes through
    :func:`_parse_entrywise`, which names the first offending row or entry.
    """
    if not isinstance(obj, list):
        raise ChannelSpecError(f"{where}: expected a list of {dim} rows")
    if len(obj) != dim:
        raise ChannelSpecError(f"{where}: expected {dim} rows, got {len(obj)}")
    pairs = _bulk_pairs(obj, dim)
    if pairs is None:
        return _parse_entrywise(obj, where, dim)
    return pairs.view(np.complex128).reshape(dim, dim)


def _parse_entrywise(obj: list, where: str, dim: int) -> np.ndarray:
    """:func:`_parse_matrix` one entry at a time, raising ChannelSpecError
    at the first row or entry, in reading order, that is not a row of
    ``dim`` finite [re, im] number pairs."""
    out = np.empty((dim, dim), dtype=np.complex128)
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ChannelSpecError(f"{where}[{r}]: expected a row of {dim} entries")
        for c, entry in enumerate(row):
            ok = (
                isinstance(entry, list)
                and len(entry) == 2
                and all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
                )
            )
            if not ok:
                raise ChannelSpecError(f"{where}[{r}][{c}]: expected a [re, im] pair of numbers")
            if not all(math.isfinite(x) for x in entry):
                raise ChannelSpecError(f"{where}[{r}][{c}]: entries must be finite")
            out[r, c] = complex(entry[0], entry[1])
    return out


def channel_from_dict(doc):
    """Build a KrausChannel or Lindbladian from a parsed description.

    Accepted fields: ``d``, ``n``, ``kind`` ("kraus" | "lindblad"), and
    exactly one of ``operators`` (list of matrices, entries as [re, im]
    pairs) or ``builder`` ({"name", "params"} invoking example_channel).
    A Lindbladian may add ``hamiltonian``; ``orthogonalize: true`` runs
    the operator list through orthogonalize_kraus first.
    """
    if not isinstance(doc, dict):
        raise ChannelSpecError("top level: expected an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ChannelSpecError(f"{key}: unknown field")
    d = _require_int(doc, "d", minimum=2)
    n = _require_int(doc, "n", minimum=1)
    kind = doc.get("kind")
    if kind not in ("kraus", "lindblad"):
        raise ChannelSpecError(f"kind: expected 'kraus' or 'lindblad', got {kind!r}")
    if ("operators" in doc) == ("builder" in doc):
        raise ChannelSpecError("exactly one of 'operators' or 'builder' is required")

    if "builder" in doc:
        for key in ("hamiltonian", "orthogonalize"):
            if key in doc:
                raise ChannelSpecError(f"{key}: not allowed together with builder")
        b = doc["builder"]
        if not isinstance(b, dict):
            raise ChannelSpecError("builder: expected an object")
        for key in b:
            if key not in ("name", "params"):
                raise ChannelSpecError(f"builder.{key}: unknown field")
        name = b.get("name")
        if not isinstance(name, str):
            raise ChannelSpecError(f"builder.name: expected a string, got {name!r}")
        params = b.get("params", {})
        if not isinstance(params, dict):
            raise ChannelSpecError("builder.params: expected an object")
        if d != 2:
            raise ChannelSpecError("builder: example families are qubit models; requires d = 2")
        try:
            built = example_channel(name, n=n, **params)
        except ValueError as exc:
            raise ChannelSpecError(f"builder: {exc}") from None
        built_kind = "kraus" if isinstance(built, KrausChannel) else "lindblad"
        if built_kind != kind:
            raise ChannelSpecError(
                f"kind: builder {name!r} produces a {built_kind} channel, not {kind}"
            )
        return built

    ortho = doc.get("orthogonalize", False)
    if not isinstance(ortho, bool):
        raise ChannelSpecError(f"orthogonalize: expected true or false, got {ortho!r}")
    dim = d**n
    raw = doc["operators"]
    if not isinstance(raw, list):
        raise ChannelSpecError("operators: expected a list of matrices")
    mats = [_parse_matrix(m, f"operators[{i}]", dim) for i, m in enumerate(raw)]
    if ortho:
        mats = orthogonalize_kraus(d, n, mats)
    if kind == "kraus":
        if "hamiltonian" in doc:
            raise ChannelSpecError("hamiltonian: only valid for kind 'lindblad'")
        return KrausChannel(d, n, tuple(QuditOperator(d, n, m) for m in mats))
    if "hamiltonian" in doc:
        H = _parse_matrix(doc["hamiltonian"], "hamiltonian", dim)
    else:
        H = np.zeros((dim, dim), dtype=np.complex128)
    return Lindbladian(
        d, n, QuditOperator(d, n, H), tuple(QuditOperator(d, n, m) for m in mats)
    )
