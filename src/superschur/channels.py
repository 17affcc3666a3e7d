"""Kraus channels, Lindblad generators, and permutation-symmetry certificates.

A map holds its operators as one read-only complex128 (K, D, D) array,
D = d**n, copied once on construction and put in canonical, Gram-diagonal
form there (:func:`orthogonalize_kraus`); the closure check, the
certificate and the superoperator kernel all read that array.

A channel is *strongly* symmetric when every Kraus operator commutes with
every site permutation, and *weakly* symmetric when permuting the sites
merely mixes the Kraus operators by a unitary matrix.  Both notions are
decided on the adjacent transpositions, which generate the full group, in
one pass: each transposition permutes the stack of operators by one index
gather, never by a dense permutation matrix, and the commutator and the
mixing matrix are both read from that gather.
Lindblad generators additionally require a permutation-invariant
Hamiltonian for either classification, measured in the same pass.

Superoperator matrices in the letter basis come from one column kernel
shared by channels and generators.  Both write the map as
X -> sum_j L_j X R_j, over the pairs (F, F^dag) and, for a generator,
(A, I) and (I, A').  Every letter string is monomial, one nonzero per row
and column (Pauli and clock-shift letters alike), and the D = d**n strings
of one shift group share one column permutation, their phases being the
rows of W^{(x)n} (see ``superschur.liouville``).  So the kernel forms the
images of a whole group from one D x D x D array, filled by one batched
product for all the sandwiches and two scatter-adds for the one-sided
terms, and one product with W^{(x)n}.  Its scratch is two such arrays, 4 MB
each at n = 6.  Each image is vectorized by its own ``vectorize`` call.

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

The built-in qubit families (EXAMPLE_CHANNELS) are sums and lists over
site patterns: one local operator on k of the n qubits and another on the
rest, for every 0/1 pattern with k ones, each pattern built once.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass, field
from functools import reduce
from typing import NoReturn

import numpy as np

from .errors import (
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    InternalConsistencyError,
)
from .liouville import OperatorBasis, _check_sizes, check_liouville_dim, vectorize
from .permutations import adjacent_transpositions, string_index_map

CLOSURE_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12
TRACELESS_TOL = 1e-10
STRONG_TOL = 1e-10
WEAK_TOL = 1e-8
# the tolerance that judges each certificate residual; a residual passes
# when it is <= its tolerance, so a NaN fails
RESIDUAL_TOLS = {
    "strong_commutator": STRONG_TOL,
    "expansion_residual": WEAK_TOL,
    "unitarity": WEAK_TOL,
    "hamiltonian_invariance": STRONG_TOL,
}
_NEGLIGIBLE_NORM_SQ = 1e-14
# largest imaginary part the real (Hermitian-letter) kernel may drop, as a
# share of max|M|; measured roundoff stays below 2e-16
IMAGINARY_PART_TOL = 1e-12


def _operator_stack(d: int, n: int, matrices, label: str) -> np.ndarray:
    """A read-only complex128 copy of ``matrices`` as one (K, D, D) array,
    D = d**n, K >= 0.  A matrix of another shape is a DimensionMismatchError,
    one with a non-finite entry a ValueError, each named ``label.format(k)``."""
    _check_sizes(d, n)
    D = d**n
    mats = [np.asarray(m, dtype=np.complex128) for m in matrices]
    for k, m in enumerate(mats):
        if m.shape != (D, D):
            raise DimensionMismatchError(
                f"{label.format(k)}: shape {m.shape} does not match d**n = {D} for d={d}, n={n}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError(f"{label.format(k)}: matrix entries must be finite")
    stack = np.array(mats, dtype=np.complex128).reshape(len(mats), D, D)
    stack.flags.writeable = False
    return stack


def _gram(S: np.ndarray) -> np.ndarray:
    """The Gram matrix of the (K, D, D) stack S under the normalized trace
    pairing Tr[A^dag B] / D."""
    rows = S.reshape(len(S), S.shape[1] * S.shape[2])
    return np.conj(rows) @ rows.T / S.shape[1]


def _orthogonality_bound(G: np.ndarray) -> float:
    """ORTHOGONALITY_TOL scaled by the largest squared operator norm on the
    Gram diagonal (never below the absolute tolerance), so that scaling
    every operator by c scales overlap and bound alike by c**2."""
    return ORTHOGONALITY_TOL * max(1.0, float(np.max(G.diagonal().real, initial=0.0)))


def _canonical(S: np.ndarray, noun: str, symbol: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`orthogonalize_kraus` of the (K, D, D) stack S, and the sum of
    F^dag F over the result, both read-only (an empty set gives sum 0),
    from one Gram matrix.  A set whose Gram matrix or sum overflows float64
    is refused as input (ChannelSpecError) instead of reaching the
    superoperator kernel."""
    too_large = ChannelSpecError(f"{noun}s too large: their Gram matrix or sum "
                                 f"{symbol}^dag {symbol} is not finite in float64")
    with np.errstate(over="ignore", invalid="ignore"):
        G = _gram(S)
        if not np.all(np.isfinite(G)):
            raise too_large
        off = float(np.max(np.abs(G - np.diag(G.diagonal())), initial=0.0))
        if off <= _orthogonality_bound(G):
            keep = G.diagonal().real > _NEGLIGIBLE_NORM_SQ
            C = S if keep.all() else S[keep]
        else:
            w, W = np.linalg.eigh(G)
            kept = [a for a in reversed(range(len(S))) if w[a] > _NEGLIGIBLE_NORM_SQ]
            C = np.array([np.tensordot(W[:, a], S, axes=(0, 0)) for a in kept])
        total = sum((F.conj().T @ F for F in C), np.zeros(S.shape[1:], dtype=np.complex128))
    if not np.all(np.isfinite(total)):
        raise too_large
    C.flags.writeable = total.flags.writeable = False
    return C, total


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map in canonical Kraus form.

    The operators must close to the identity and need not be mutually
    orthogonal: ``kraus_ops`` holds their canonical form
    (:func:`orthogonalize_kraus`), which diagonalizes the process matrix
    without changing the map, as one read-only complex128 (K, D, D) array,
    D = d**n; K counts the canonical operators.  ``closure_deviation``,
    max |sum F^dag F - I|, is measured once, on construction.
    """

    d: int
    n: int
    kraus_ops: np.ndarray
    closure_deviation: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = _operator_stack(self.d, self.n, self.kraus_ops, "Kraus operator {}")
        if not len(ops):
            raise ChannelInvariantError("channel needs at least one Kraus operator")
        ops, closure = _canonical(ops, "Kraus operator", "F")
        object.__setattr__(self, "kraus_ops", ops)
        dev = float(np.max(np.abs(closure - np.eye(self.d**self.n))))
        if not dev <= CLOSURE_TOL:
            raise ChannelInvariantError(
                f"Kraus closure violated: max deviation {dev:.3e} > {CLOSURE_TOL}"
            )
        object.__setattr__(self, "closure_deviation", dev)


@dataclass(frozen=True)
class Lindbladian:
    """A Markovian generator: Hermitian Hamiltonian plus jump operators.

    Jump operators must be traceless; they need not be mutually
    orthogonal.  ``jump_ops`` holds them in the canonical form KrausChannel
    gives its operators, the standard gauge in which the generator's
    decomposition is unique, as a read-only (K, D, D) array, K >= 0;
    ``hamiltonian`` is a read-only (D, D) array.

    Construction also refuses a generator too large for float64: with
    D = d**n, tau = Tr K for K = sum_k L_k^dag L_k and eta = ||H||_F, it
    requires 2 D**2 (tau + eta) to be finite.  Every entry of the kernel's
    per-group array is at most tau (the sandwiches) plus 2 (eta + tau/2)
    (the one-sided terms A and A'), and the phase sums of the kernel and of
    ``vectorize`` add D terms each, with unit-modulus weights; the frame
    U^T M U and its partial sums stay within ||M||_2 <= 2 (eta + tau), the
    letter strings being orthonormal.  Both norms are read from the
    checks' own sums, with no pass over a superoperator-sized array.  A
    Kraus map needs no such bound: closure gives ||F||_op <= 1.
    """

    d: int
    n: int
    hamiltonian: np.ndarray
    jump_ops: np.ndarray
    _sink: np.ndarray = field(init=False, repr=False, compare=False)  # K, for lindblad_superop

    def __post_init__(self) -> None:
        H = _operator_stack(self.d, self.n, [self.hamiltonian], "Hamiltonian")[0]
        object.__setattr__(self, "hamiltonian", H)
        # the same overflow test the jumps get through their Gram matrix
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.vdot(H, H).real
        if not np.isfinite(size):
            raise ChannelSpecError(
                "Hamiltonian too large: sum |H_ij|^2 is not finite in float64"
            )
        herm = float(np.max(np.abs(H - H.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ChannelInvariantError(f"Hamiltonian not Hermitian: {herm:.3e}")
        ops = _operator_stack(self.d, self.n, self.jump_ops, "jump operator {}")
        for k, L in enumerate(ops):
            tr = abs(np.trace(L)) / self.d**self.n
            if tr > TRACELESS_TOL:
                raise ChannelInvariantError(f"jump operator {k} not traceless: {tr:.3e}")
        ops, sink = _canonical(ops, "jump operator", "L")
        object.__setattr__(self, "jump_ops", ops)
        object.__setattr__(self, "_sink", sink)
        with np.errstate(over="ignore"):
            tau = float(np.trace(self._sink).real)
        if not math.isfinite(2.0 * self.d ** (2 * self.n) * (tau + math.sqrt(size))):
            raise ChannelSpecError(
                "generator too large: 2 D^2 (Tr sum L^dag L + ||H||_F) is not finite in float64"
            )


def orthogonalize_kraus(d: int, n: int, matrices) -> list[np.ndarray]:
    """The canonical form KrausChannel and Lindbladian give their operators,
    as read-only matrices: Gram-diagonal, with no negligible operator.

    A list whose overlaps are within :func:`_orthogonality_bound` is kept
    as given, less its negligible operators; any other is recombined by
    the unitary that diagonalizes its Gram matrix, which never changes the
    map, into eigenvectors of the process matrix, largest weight first.
    The matrices are read as KrausChannel reads them, and a list whose
    Gram matrix or sum F^dag F overflows float64 is a ChannelSpecError.
    """
    S = _operator_stack(d, n, matrices, "operator {}")
    return list(_canonical(S, "operator", "F")[0])


def _psd_sqrt(matrix: np.ndarray, tol: float = 1e-12) -> np.ndarray:
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


def mixing_unitary(ops, pi: tuple[int, ...], d: int, n: int) -> tuple[np.ndarray, float, float]:
    """Solve pi F_nu pi^dag = sum_mu F_mu U[mu, nu] by overlaps, for the
    d**n x d**n matrices ``ops`` (a sequence or a (K, D, D) array).

    Returns (U, expansion residual, unitarity deviation).  The residual is
    the largest entry of the unexplained remainder; it vanishes exactly
    when the permuted operators stay inside the original span.  An
    operator whose normalized squared norm is negligible, the rule by which
    the constructors drop one, has no overlap to divide by: ValueError.
    """
    # with P the shuffle e_i -> e_t[i], P F P^T is the gather F[s][:, s], s = t^-1
    s = np.argsort(string_index_map(pi, d, n))
    S = _operator_stack(d, n, ops, "operator {}")
    for k, norm2 in enumerate(_gram(S).diagonal().real):
        if not norm2 > _NEGLIGIBLE_NORM_SQ:
            raise ValueError(f"operator {k}: normalized squared norm {norm2:.3e} is negligible")
    return _mixing(S, S[:, s[:, None], s])


def _mixing(S: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, float, float]:
    """:func:`mixing_unitary` of the (k, D, D) stacks S of the operators
    and T of the permuted operators; k may be 0."""
    k, D = S.shape[:2]
    # one row per operator: overlaps and reconstructions are two products
    S, T = S.reshape(k, D * D), T.reshape(k, D * D)
    norms2 = np.einsum("ij,ij->i", S.conj(), S).real
    U = (S.conj() @ T.T) / norms2[:, None]
    residual = float(np.max(np.abs(T - U.T @ S), initial=0.0))
    unit_dev = float(np.max(np.abs(U.conj().T @ U - np.eye(k)), initial=0.0))
    return U, residual, unit_dev


def _within(residuals: dict, *names: str) -> bool:
    return all(residuals[name] <= RESIDUAL_TOLS[name] for name in names)


def _certificate(S: np.ndarray, d: int, n: int, H: np.ndarray | None = None) -> SymmetryCertificate:
    """Strong when every operator of the (K, D, D) stack S (and H, if
    given) commutes with the generators, weak when the operators only mix
    by unitaries and H commutes, else none.

    One pass over the adjacent transpositions: each gathers the operator
    stack once, P F P^T = F[s][:, s], its index map s being its own
    inverse.  The commutator and the mixing matrix both read that gather:
    T - F = (P F - F P) P^T holds the entries of the commutator, negated
    and permuted, so max|T - F| is max|F P - P F| exactly.
    """
    unitaries, comm, expansion, unitarity, ham = {}, 0.0, 0.0, 0.0, 0.0
    for g in adjacent_transpositions(n):
        s = string_index_map(g, d, n)
        T = S[:, s[:, None], s]
        comm = max(comm, float(np.max(np.abs(T - S), initial=0.0)))
        unitaries[g], res, udev = _mixing(S, T)
        expansion, unitarity = max(expansion, res), max(unitarity, udev)
        if H is not None:
            ham = max(ham, float(np.max(np.abs(H[s[:, None], s] - H))))
    residuals = {} if H is None else {"hamiltonian_invariance": ham}
    residuals.update(strong_commutator=comm, expansion_residual=expansion, unitarity=unitarity)
    invariant = H is None or _within(residuals, "hamiltonian_invariance")
    if invariant and _within(residuals, "strong_commutator"):
        classification = "strong"
    elif invariant and _within(residuals, "expansion_residual", "unitarity"):
        classification = "weak"
    else:
        classification = "none"
    return SymmetryCertificate(classification, unitaries, residuals)


def classify_kraus_symmetry(channel: KrausChannel) -> SymmetryCertificate:
    """Strong/weak/none certificate for a Kraus channel."""
    return _certificate(channel.kraus_ops, channel.d, channel.n)


def classify_lindblad_symmetry(lind: Lindbladian) -> SymmetryCertificate:
    """Strong/weak/none certificate for a Lindblad generator.

    Either classification requires the Hamiltonian itself to be
    permutation invariant, measured by the commutator the operators get;
    the jump operators then decide strong vs weak exactly as Kraus
    operators do.
    """
    return _certificate(lind.jump_ops, lind.d, lind.n, lind.hamiltonian)


@dataclass(frozen=True)
class SuperOperatorMatrix:
    """A superoperator as a dense matrix on letter-string coordinates.

    A real matrix is kept as float64 (the Pauli transfer matrix of a qubit
    map), anything else as complex128; a complex matrix is never cast to
    real, whatever its imaginary part.  The matrix is held in F order, the
    order the kernel writes; one given in that order and dtype is held as
    is, and any other is copied once.  ``blockdiag.decompose`` conjugates
    in this buffer, so it consumes the matrix.
    """

    d: int
    n: int
    kind: str  # "channel" or "generator"
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("channel", "generator"):
            raise ValueError(f"kind must be 'channel' or 'generator', got {self.kind!r}")
        dim = (self.d * self.d) ** self.n
        m = np.asarray(self.matrix)
        # F order, so that the transpose blockdiag.to_schur_frame conjugates
        # in place is C order, every row contiguous
        m = np.asfortranarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
        if m.shape != (dim, dim):
            raise DimensionMismatchError(f"matrix shape {m.shape} != ({dim}, {dim})")
        object.__setattr__(self, "matrix", m)


def _check_channel_basis(obj, basis: OperatorBasis) -> None:
    if (obj.d, obj.n) != (basis.d, basis.n):
        raise DimensionMismatchError(
            f"channel (d={obj.d}, n={obj.n}) does not match basis (d={basis.d}, n={basis.n})"
        )


def _letter_superop(basis: OperatorBasis, S: np.ndarray, one_sided=None) -> np.ndarray:
    """Letter-basis matrix of X -> A X + X A' + sum_F F X F^dag, over the
    (K, D, D) stack S of the F (K may be 0).

    ``one_sided`` is the pair (A, A') or None.  The map is sum_j L_j X R_j
    over the pairs (F, F^dag), plus (A, I) and (I, A') for a generator.
    The columns are formed one shift group at a time: the D = d**n strings
    with table position k*D + s for one s, B_b = lam_b diag(w[k_b]) P_s with
    w = W^{(x)n} and P_s the permutation R -> col_s(R), whose images are

        lam_b sum_R w[k_b, R] T_s[R],  T_s[R, i, m] = sum_j L_j[i, R] R_j[col_s(R), m].

    The sandwiches fill T_s with one batched product over R, each
    (D x K) @ (K x D), in real arithmetic on the complex view when every
    F is real; (A, I) and (I, A') add A[:, R] at T_s[R, :, col_s(R)] and
    A'[col_s(R), :] at T_s[R, R, :].  w is applied through its Kronecker
    halves, as :func:`vectorize` applies conj(w).  Two D**3 arrays (4 MB
    each at n = 6; float64 when every term is real) are all the scratch,
    besides the group's gather of the F^dag rows (K D**2 entries).  Each image is vectorized by its own
    ``vectorize`` call into one row of M^T: the matrix comes out in F order.

    With Hermitian letters (the basis's ``real``, d = 2) the result is
    float64: each row keeps the real part of its vector, and the largest
    imaginary part dropped must stay within IMAGINARY_PART_TOL * max|M|,
    plus HERMITICITY_TOL when ``one_sided`` carries a Hamiltonian (see the
    module docstring).
    """
    D = basis.d**basis.n
    real = basis.real
    # the basis holds the halves of conj(w); at d = 2 they are real
    w_outer, w_inner = np.conj(basis.w_outer), np.conj(basis.w_inner)
    D1, D2 = len(w_outer), len(w_inner)
    if not np.any(S.imag):
        S = S.real
    # T is real when every term is: real F, no one-sided terms, real letters
    real_T = real and one_sided is None and S.dtype == np.float64
    T = np.empty((D, D, D), dtype=np.float64 if real_T else np.complex128)
    Y = np.empty_like(T)
    # left[R] = [F_1[:, R] ... F_K[:, R]], right[c] = the rows c of the F_j^dag
    left = np.ascontiguousarray(S.transpose(2, 1, 0))
    right = np.ascontiguousarray(S.conj().transpose(2, 0, 1), dtype=T.dtype)
    R = np.arange(D)
    # labels[k, s]: the string at table position k*D + s
    labels = np.argsort(basis.order).reshape(D, D)
    out = np.empty((basis.dim, basis.dim), dtype=np.float64 if real else np.complex128)
    imag = np.empty((D, basis.dim)) if real else None
    dropped = []  # per group: the largest imaginary part dropped
    for s in range(D):
        col = basis.col_s[s]
        if left.dtype == T.dtype:
            np.matmul(left, right[col], out=T)
        else:
            # a complex row is a row of (re, im) pairs, so the real F
            # multiplies real and imaginary parts in one real product
            np.matmul(left, right[col].view(np.float64), out=T.view(np.float64))
        if one_sided is not None:
            A, A_right = one_sided
            T[R, :, col] += A.T
            T[R, R, :] += A_right[col]
        # w @ T over the first index, as the Kronecker halves of w, back into T
        Tv, Yv = (T.view(np.float64), Y.view(np.float64)) if real else (T, Y)
        np.matmul(w_inner, Tv.reshape(D1, D2, -1), out=Yv.reshape(D1, D2, -1))
        np.matmul(w_outer, Yv.reshape(D1, -1), out=Tv.reshape(D1, -1))
        for k, b in enumerate(labels[:, s]):
            v = vectorize(T[k], basis)
            v *= basis.lam[b]
            if real:
                out[b] = v.real
                imag[k] = v.imag
            else:
                out[b] = v
        if real:
            # max and -min instead of abs: no temporary, and a NaN comes through
            dropped.append(max(imag.max(), -imag.min()))
    if real:
        # a generator may also drop the anti-Hermitian part of an accepted H
        allowance = HERMITICITY_TOL if one_sided is not None else 0.0
        worst = np.max(dropped)  # a NaN comes through and fails the test
        # the bound is never below the allowance, so max|M| is read only
        # when the dropped part exceeds it
        if not worst <= allowance:
            # max and -min instead of abs: no temporary the size of out
            bound = IMAGINARY_PART_TOL * max(out.max(), -out.min()) + allowance
            if not worst <= bound:
                raise InternalConsistencyError(
                    f"letter-basis matrix has imaginary part {worst:.3e} above the bound "
                    f"{bound:.3e} ({IMAGINARY_PART_TOL:.0e} x max|M| + {allowance:.0e} for the "
                    "Hamiltonian); a Hermiticity-preserving map is real on Hermitian letters"
                )
    return out.T


def kraus_superop(channel: KrausChannel, basis: OperatorBasis) -> SuperOperatorMatrix:
    """Matrix of rho -> sum_mu F_mu rho F_mu^dag in the letter basis."""
    _check_channel_basis(channel, basis)
    out = _letter_superop(basis, channel.kraus_ops)
    return SuperOperatorMatrix(d=basis.d, n=basis.n, kind="channel", matrix=out)


def lindblad_superop(lind: Lindbladian, basis: OperatorBasis) -> SuperOperatorMatrix:
    """Matrix of the generator rho -> -i[H, rho] + sum_k D[L_k](rho).

    Written as rho -> A rho + rho A' + sum_k L_k rho L_k^dag with
    A = -iH - K/2, A' = iH - K/2 and K = sum_k L_k^dag L_k, the sum the
    generator checked on construction.
    """
    _check_channel_basis(lind, basis)
    H, K = lind.hamiltonian, lind._sink
    out = _letter_superop(basis, lind.jump_ops, (-1j * H - 0.5 * K, 1j * H - 0.5 * K))
    return SuperOperatorMatrix(d=basis.d, n=basis.n, kind="generator", matrix=out)


# --------------------------------------------------------------------------
# Example families


def _damping_pair(p: float) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"decay probability must lie in [0, 1], got {p}")
    f0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128)
    f1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
    return f0, f1


_I = np.eye(2, dtype=np.complex128)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _orbit(n: int, k: int, one: np.ndarray, rest: np.ndarray = _I) -> list[np.ndarray]:
    """``one`` on k of the n qubits and ``rest`` on the others, one product
    per 0/1 site pattern with k ones, in lexicographic pattern order: the
    reverse of the ``itertools.combinations`` order of the sites of ``one``."""
    patterns = reversed(list(itertools.combinations(range(n), k)))
    return [reduce(np.kron, [one if s in sites else rest for s in range(n)]) for sites in patterns]


def _channel(n: int, ops: list[np.ndarray]) -> KrausChannel:
    """The channel of a contractive set ``ops``, completed by the Kraus
    operator sqrt(I - sum F^dag F) unless that remainder is negligible."""
    R = np.eye(2**n, dtype=np.complex128) - sum(F.conj().T @ F for F in ops)
    if not np.max(np.abs(R)) < 1e-14:
        ops = ops + [_psd_sqrt(R)]
    return KrausChannel(2, n, ops)


def _lindbladian(n: int, jumps: list[np.ndarray], h_x: float, J: float) -> Lindbladian:
    """The generator of ``jumps`` and the transverse-field Ising Hamiltonian:
    field h_x on every site plus uniform all-to-all coupling J on every pair
    (for three sites the all-to-all and nearest-neighbour rings agree), its
    terms summed in ``itertools.combinations`` order.  A sum whose
    sum |H_ij|^2 overflows float64, the rule Lindbladian applies, is a
    ValueError naming h_x and J."""
    terms = [h_x * T for T in _orbit(n, 1, _X)[::-1]] + [J * T for T in _orbit(n, 2, _Z)[::-1]]
    with np.errstate(over="ignore", invalid="ignore"):
        H = sum(terms, np.zeros((2**n, 2**n), dtype=np.complex128))
        size = np.vdot(H, H).real
    if not np.isfinite(size):
        raise ValueError(f"Hamiltonian: the h_x = {h_x:g} and J = {J:g} terms sum past float64")
    return Lindbladian(2, n, H, jumps)


def _build_collective_damping(n: int, p: float = 0.5) -> KrausChannel:
    f0, f1 = _damping_pair(p)
    return _channel(n, _orbit(n, 0, f1, f0) + _orbit(n, n, f1, f0))


def _build_correlated_damping(n: int, p: float = 0.5) -> KrausChannel:
    # Coherent sums over the permutation orbit of one (resp. two) damped
    # sites.  Each sum is scaled by 1/sqrt(orbit size): the raw sums
    # exceed contractivity for p > 2 - sqrt(3), while the scaled set is a
    # sub-sum of the full product closure and completes for every p.
    f0, f1 = _damping_pair(p)
    orbits = [_orbit(n, k, f1, f0) for k in (1, 2)]
    return _channel(n, [sum(orbit) / math.sqrt(len(orbit)) for orbit in orbits])


def _build_single_site_damping(n: int, p: float = 0.5) -> KrausChannel:
    # One site damps at a time; the 1/sqrt(n) weight restores closure.
    ops = [F / math.sqrt(n) for f in _damping_pair(p) for F in _orbit(n, 1, f)]
    return KrausChannel(2, n, ops)


def _build_independent_damping(n: int, p: float = 0.5) -> KrausChannel:
    # Every site damps independently: all 2**n products, the union of the
    # permutation orbits of the patterns f1^k f0^(n-k).
    f0, f1 = _damping_pair(p)
    ops = [F for k in range(n + 1) for F in _orbit(n, k, f1, f0)]
    return KrausChannel(2, n, ops)


def _build_single_jump(n: int, gamma1: float = 1.0, h_x: float = 1.0, J: float = 1.0) -> Lindbladian:
    _check_rate("gamma1", gamma1)
    return _lindbladian(n, [math.sqrt(gamma1) * L for L in _orbit(n, 1, _LOWER)[::-1]], h_x, J)


def _build_double_jump(n: int, gamma2: float = 1.0, h_x: float = 1.0, J: float = 1.0) -> Lindbladian:
    _check_rate("gamma2", gamma2)
    return _lindbladian(n, [math.sqrt(gamma2) * L for L in _orbit(n, 2, _LOWER)[::-1]], h_x, J)


def _build_collective_jump(
    n: int,
    gamma3: float = 1.0,
    gamma4: float = 1.0,
    gamma5: float = 1.0,
    h_x: float = 1.0,
    J: float = 1.0,
) -> Lindbladian:
    # the single-site sum, the pair sum and the all-sites product
    jumps = []
    for name, k, rate in (("gamma3", 1, gamma3), ("gamma4", 2, gamma4), ("gamma5", n, gamma5)):
        _check_rate(name, rate)
        if rate > 0.0:
            jumps.append(math.sqrt(rate) * sum(_orbit(n, k, _LOWER)))
    # at n = 2 the pair sum and the all-sites product coincide; the
    # Lindbladian's Gram rotation merges them without changing the dissipator
    return _lindbladian(n, jumps, h_x, J)


def _build_transverse_ising(n: int, h_x: float = 1.0, J: float = 1.0) -> Lindbladian:
    return _lindbladian(n, [], h_x, J)


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


def _builder_params(name: str) -> tuple[str, ...]:
    """The keyword parameters of the builder ``name``, in signature order."""
    return tuple(inspect.signature(EXAMPLE_CHANNELS[name]).parameters)[1:]


def example_channel(name: str, n: int = 3, **params):
    """Build one of the named qubit families (KrausChannel or Lindbladian).

    Damping families take ``p``; jump families take decay rates
    (``gamma1`` .. ``gamma5``) and Hamiltonian couplings ``h_x``, ``J``.
    A parameter the family does not take is a ValueError that names the
    ones it does, and so is a value that is not a real number finite in
    float64 (a bool is not a number), naming the parameter.  The map holds
    the family's operators in canonical form.
    """
    if name not in EXAMPLE_CHANNELS:
        known = ", ".join(sorted(EXAMPLE_CHANNELS))
        raise ValueError(f"unknown example channel {name!r}; known: {known}")
    if n < 2:
        raise ValueError(f"example channels need n >= 2, got {n}")
    accepted = _builder_params(name)
    for key in params:
        if key not in accepted:
            raise ValueError(
                f"bad parameters for {name!r}: unknown parameter {key!r} "
                f"(accepted: {', '.join(accepted)})"
            )
    for key, value in params.items():
        problem = _param_problem(value)
        if problem:
            raise ValueError(f"bad parameters for {name!r}: {key}: {problem}")
    return EXAMPLE_CHANNELS[name](n, **params)


def _param_problem(value) -> str | None:
    """Why ``value`` cannot be a builder parameter, or None: it must be a
    real number, not a bool, finite in float64 (:func:`_finite_in_float64`)."""
    if not _is_number_type(type(value)):
        return f"expected a number, got {value!r}"
    if not _finite_in_float64(value):
        return "not finite in float64"
    return None


# --------------------------------------------------------------------------
# Channel description files


_TOP_KEYS = {"d", "n", "kind", "operators", "hamiltonian", "builder"}


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


def _finite_in_float64(x: int | float) -> bool:
    """The one rule for numbers read from input: ``x`` converts to a finite
    float64, with no OverflowError (so an integer below 2**1024 - 2**970
    passes, rounded).  Numpy's bulk conversion draws the same line."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _bulk_pairs(obj: list, dim: int) -> np.ndarray | None:
    """The 2 * dim * dim numbers of a well-formed matrix as one float64
    array, or None.  Types and lengths are collected with ``map``, so no
    Python loop runs per entry; the numbers pass :func:`_finite_in_float64`."""
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
    (:func:`_bulk_pairs`); any other is refused by
    :func:`_refuse_entrywise`, which names the first offending row or entry.
    """
    if not isinstance(obj, list):
        raise ChannelSpecError(f"{where}: expected a list of {dim} rows")
    if len(obj) != dim:
        raise ChannelSpecError(f"{where}: expected {dim} rows, got {len(obj)}")
    pairs = _bulk_pairs(obj, dim)
    if pairs is None:
        _refuse_entrywise(obj, where, dim)
    return pairs.view(np.complex128).reshape(dim, dim)


def _refuse_entrywise(obj: list, where: str, dim: int) -> NoReturn:
    """Raise ChannelSpecError at the first row or entry, in reading order,
    that is not a row of ``dim`` finite [re, im] number pairs: the reason
    :func:`_bulk_pairs` refused ``obj``."""
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ChannelSpecError(f"{where}[{r}]: expected a row of {dim} entries")
        for c, entry in enumerate(row):
            ok = isinstance(entry, list) and len(entry) == 2
            if not (ok and all(_is_number_type(type(x)) for x in entry)):
                raise ChannelSpecError(f"{where}[{r}][{c}]: expected a [re, im] pair of numbers")
            if not all(map(_finite_in_float64, entry)):
                raise ChannelSpecError(f"{where}[{r}][{c}]: entries must be finite")
    raise InternalConsistencyError(f"{where}: refused in bulk, but no row or entry is ill-formed")


def channel_from_dict(doc):
    """Build a KrausChannel or Lindbladian from a parsed description.

    Accepted fields: ``d``, ``n``, ``kind`` ("kraus" | "lindblad"), and
    exactly one of ``operators`` (list of matrices, entries as [re, im]
    pairs) or ``builder`` ({"name", "params"} invoking example_channel).
    A Lindbladian may add ``hamiltonian``.  The operators need not be
    orthogonal.  A ``d``, ``n`` over the size guard raises SizeGuardError
    before anything is built, and a builder's refusal becomes a
    ChannelSpecError prefixed ``builder: ``.
    """
    if not isinstance(doc, dict):
        raise ChannelSpecError("top level: expected an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise ChannelSpecError(f"{key}: unknown field")
    d = _require_int(doc, "d", minimum=2)
    n = _require_int(doc, "n", minimum=1)
    # before any operator is parsed or built
    check_liouville_dim(d, n)
    kind = doc.get("kind")
    if kind not in ("kraus", "lindblad"):
        raise ChannelSpecError(f"kind: expected 'kraus' or 'lindblad', got {kind!r}")
    if ("operators" in doc) == ("builder" in doc):
        raise ChannelSpecError("exactly one of 'operators' or 'builder' is required")

    if "builder" in doc:
        if "hamiltonian" in doc:
            raise ChannelSpecError("hamiltonian: not allowed together with builder")
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
        for key, value in params.items():
            if key == "n":  # example_channel's own argument
                raise ChannelSpecError("builder.params.n: the site count is the top-level n")
            problem = _param_problem(value)
            if problem:
                raise ChannelSpecError(f"builder.params.{key}: {problem}")
        if d != 2:
            raise ChannelSpecError("builder: example families are qubit models; requires d = 2")
        try:
            built = example_channel(name, n=n, **params)
        except (ValueError, ChannelSpecError) as exc:
            raise ChannelSpecError(f"builder: {exc}") from None
        built_kind = "kraus" if isinstance(built, KrausChannel) else "lindblad"
        if built_kind != kind:
            raise ChannelSpecError(
                f"kind: builder {name!r} produces a {built_kind} channel, not {kind}"
            )
        return built

    dim = d**n
    raw = doc["operators"]
    if not isinstance(raw, list):
        raise ChannelSpecError("operators: expected a list of matrices")
    mats = [_parse_matrix(m, f"operators[{i}]", dim) for i, m in enumerate(raw)]
    if kind == "kraus":
        if "hamiltonian" in doc:
            raise ChannelSpecError("hamiltonian: only valid for kind 'lindblad'")
        return KrausChannel(d, n, mats)
    if "hamiltonian" not in doc:
        return Lindbladian(d, n, np.zeros((dim, dim)), mats)
    return Lindbladian(d, n, _parse_matrix(doc["hamiltonian"], "hamiltonian", dim), mats)
