"""Command-line front end.

Subcommands: ``decompose`` (sector dimension table), ``schur-basis``
(labelled basis export), ``analyze`` (full pipeline on a channel
description file), ``evolve`` (blockwise Lindblad exponentials), and
``verify`` (self-check suites).  Human-readable text goes to stdout;
``--out`` writes a machine-readable JSON document whose bytes depend only
on the input and the seed (timings are printed, never serialized).  A
payload holds plain Python values only, with no serialization hook, so a
stray numpy integer or bool fails the write instead of being converted.
``analyze`` reads each sector's dimensions from the basis, beside the one
flag per shape that ``dfs_report`` decides.

Exit codes: 0 success, 1 usage, 2 unreadable/ill-formed input, 3 input
violating a structural invariant, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from collections import Counter

import numpy as np

from .blockdiag import (
    DEFAULT_BLOCK_TOL,
    PROTECTION_TRIALS,
    blockwise_exp,
    decompose,
    dfs_report,
    protection_check,
)
from .channels import (
    CLOSURE_TOL,
    RESIDUAL_TOLS,
    KrausChannel,
    Lindbladian,
    channel_from_dict,
    classify_kraus_symmetry,
    classify_lindblad_symmetry,
    kraus_superop,
    lindblad_superop,
)
from .errors import (
    BlockStructureError,
    ChannelInvariantError,
    ChannelSpecError,
    DimensionMismatchError,
    InternalConsistencyError,
    SizeGuardError,
)
from .liouville import operator_basis
from .schur import ColumnLabel, SuperSchurBasis, _sector_table, super_schur_basis

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3
EXIT_INTERNAL = 4

# the deviation evolve --verify-dense accepts from the dense exponential
_DENSE_CHECK_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _measured(value: float, tol: float) -> dict:
    return {"value": float(value), "tol": float(tol)}


def _int_at_least(minimum: int, message: str):
    """The argparse type of an integer of at least ``minimum``, refusing a
    smaller one with ``message``; with ``minimum`` of 1 or more, a value
    below 1 is refused as not positive."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < minimum:
            words = "expected a positive integer" if value < 1 <= minimum else message
            raise argparse.ArgumentTypeError(f"{words}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    # nan passes no comparison, and an infinite tolerance flags every block
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _time_list(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            t = float(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad time value {piece!r}")
        # exp(t G) of a Lindblad generator is a channel only for t >= 0
        if not (np.isfinite(t) and t >= 0.0):
            raise argparse.ArgumentTypeError(
                f"time values must be finite and non-negative, got {piece!r}"
            )
        out.append(t)
    if not out:
        raise argparse.ArgumentTypeError("need at least one time value")
    return out


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    t0 = time.perf_counter()
    n, d = args.n, args.d
    rows = [(shape, syt, weyl) for shape, (_, syt, weyl) in _sector_table(d, n).items()]
    total = sum(syt * weyl for _, syt, weyl in rows)
    liouville = (d * d) ** n
    # the table holds every shape of at most min(n, d*d) rows
    by_rows = Counter(shape.rows for shape, _, _ in rows)
    counts = [by_rows[k] for k in range(1, min(n, d * d) + 1)]
    elapsed = time.perf_counter() - t0

    print(f"sector decomposition for n={n} qudits of dimension d={d}")
    width = max(12, max(len(str(shape)) for shape, _, _ in rows) + 1)
    print(f"{'partition':<{width}} {'protected':>9} {'noisy':>9} {'product':>11}")
    for shape, syt, weyl in rows:
        print(f"{str(shape):<{width}} {syt:>9} {weyl:>9} {syt * weyl:>11}")
    print(f"total {total} = (d^2)^n = {liouville}")
    counts_text = " ".join(f"p_{k}({n})={c}" for k, c in enumerate(counts, start=1))
    print(f"sectors: {len(rows)}; partitions of {n} by row count: {counts_text}")
    print(f"[time] decomposition table: {elapsed:.3f} s")
    if total != liouville:
        raise InternalConsistencyError(f"dimension sum {total} != {liouville}")

    if args.out:
        _write_json(
            args.out,
            {
                "command": "decompose",
                "d": d,
                "n": n,
                "sectors": [
                    {
                        "partition": list(shape.parts),
                        "protected_dim": syt,
                        "noisy_dim": weyl,
                        "product": syt * weyl,
                    }
                    for shape, syt, weyl in rows
                ],
                "sector_count": len(rows),
                "partition_counts_by_rows": counts,
                "total": total,
                "liouville_dim": liouville,
            },
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# schur-basis


def _string_labels(base: int, n: int) -> list[str]:
    """The label of every letter string, in index order: its base-``base``
    digits, most significant first, comma-separated from base 11 on."""
    sep = "" if base <= 10 else ","
    digits = [str(x) for x in range(base)]
    return [sep.join(p) for p in itertools.product(digits, repeat=n)]


AMPLITUDE_CUTOFF = 1e-14


def _label_line(lab: ColumnLabel) -> str:
    """The label record of one column, as the basis file holds it."""
    lam = ",".join(str(p) for p in lab.shape.parts)
    wt = ",".join(str(c) for c in lab.weight)
    return f"lambda={lam} Y={lab.tableau_index} weight={wt} w_index={lab.weight_index}"


def write_basis_file(basis: SuperSchurBasis, path: str) -> None:
    """Serialize the basis: a header, then per column a label record
    followed by its nonzero amplitudes (one letter string per line), read
    from its class block, placed by the layout: no dim x dim array is built."""
    q, n = basis.d * basis.d, basis.n
    names = _string_labels(q, n)
    amplitudes = {}  # column -> (rows, values) above the cutoff
    for (rows, cols), B in zip(basis.layout.classes.values(), basis.blocks):
        keep = np.abs(B) >= AMPLITUDE_CUTOFF
        for a, j in enumerate(cols.tolist()):
            amplitudes[j] = (rows[keep[:, a]], B[keep[:, a], a])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={basis.d} n={n} columns={len(basis.labels)}\n")
        for j, lab in enumerate(basis.labels):
            fh.write(_label_line(lab) + "\n")
            rows, values = amplitudes[j]
            for row, amp in zip(rows.tolist(), values.tolist()):
                fh.write(f"{names[row]} {amp!r} 0.0\n")


def cmd_schur_basis(args) -> int:
    t0 = time.perf_counter()
    basis = super_schur_basis(args.d, args.n)
    built = time.perf_counter() - t0
    write_basis_file(basis, args.out)
    print(f"wrote {len(basis.labels)} columns for d={args.d}, n={args.n} to {args.out}")
    print(f"unitarity deviation: {basis.unitarity_deviation():.3e}")
    print(f"[time] basis construction: {built:.3f} s")
    return EXIT_OK


# --------------------------------------------------------------------------
# analyze / evolve shared plumbing


def _load_channel(path: str):
    """Parse a channel description file, keeping the builder stanza for
    the report echo."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChannelSpecError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, and an int literal past
        # Python's int-from-text limit
        raise ChannelSpecError(f"{path}: not valid JSON: {exc}") from None
    # channel_from_dict refuses a document that is not an object
    return channel_from_dict(doc), doc.get("builder")


def _input_echo(args, channel, builder) -> dict:
    kraus = isinstance(channel, KrausChannel)
    return {
        "path": args.channel_file,
        "d": channel.d,
        "n": channel.n,
        "kind": "kraus" if kraus else "lindblad",
        "builder": builder,
        "operator_count": len(channel.kraus_ops if kraus else channel.jump_ops),
    }


def _pipeline(channel, tol: float):
    """Certificate, basis and block decomposition for a channel.

    ``decompose`` conjugates the letter-basis superoperator in place: its
    buffer becomes the frame matrix, and the whole pipeline holds one dense
    array of the Liouville dimension squared.
    """
    ob = operator_basis(channel.d, channel.n)
    t0 = time.perf_counter()
    if isinstance(channel, KrausChannel):
        superop = kraus_superop(channel, ob)
        cert = classify_kraus_symmetry(channel)
    else:
        superop = lindblad_superop(channel, ob)
        cert = classify_lindblad_symmetry(channel)
    t1 = time.perf_counter()
    basis = super_schur_basis(channel.d, channel.n)
    t2 = time.perf_counter()
    decomp = decompose(superop, basis, tol=tol)
    t3 = time.perf_counter()
    times = {"superoperator": t1 - t0, "basis": t2 - t1, "decompose": t3 - t2}
    return cert, basis, decomp, times


def _certificate_payload(cert) -> dict:
    return {
        "classification": cert.classification,
        "residuals": {
            name: _measured(value, RESIDUAL_TOLS[name]) for name, value in cert.residuals.items()
        },
    }


def cmd_analyze(args) -> int:
    channel, builder = _load_channel(args.channel_file)
    cert, basis, decomp, times = _pipeline(channel, args.tol)
    flags = dfs_report(decomp)
    protection = None
    if any(basis.syt_count(s) >= 2 for s in basis.shapes):
        protection = protection_check(decomp, seed=args.seed)

    echo = _input_echo(args, channel, builder)
    source = f"builder {builder['name']}" if builder else "explicit operators"
    print(f"input: {echo['kind']} channel, d={echo['d']}, n={echo['n']}, "
          f"{echo['operator_count']} operators, {source} ({args.channel_file})")
    print(f"classification: {cert.classification}")
    for name in sorted(cert.residuals):
        print(f"  {name:<24} {cert.residuals[name]:.3e}  (tol {RESIDUAL_TOLS[name]:.1e})")
    if isinstance(channel, KrausChannel):
        print(f"closure deviation: {channel.closure_deviation:.3e} (tol {CLOSURE_TOL:.1e})")
    print(f"leakage outside blocks: {decomp.leakage:.3e} (tol {args.tol:.1e})")
    print(f"{'partition':<12} {'protected':>9} {'noisy':>6} {'twin dev':>10}  dfs")
    for shape, flagged in flags.items():
        twin = decomp.twin_deviation[shape]
        print(f"{str(shape):<12} {basis.syt_count(shape):>9} "
              f"{basis.multiplicity(shape):>6} {twin:>10.3e}  {'DFS' if flagged else '-'}")
    if protection is not None:
        print(f"protection probe: {protection:.3e} "
              f"(trials {PROTECTION_TRIALS}, seed {args.seed}, tol {args.tol:.1e})")
    for stage, dt in times.items():
        print(f"[time] {stage}: {dt:.3f} s")

    if args.out:
        payload = {
            "command": "analyze",
            "input": echo,
            "seed": args.seed,
            "tol": args.tol,
            "classification": cert.classification,
            "certificate": _certificate_payload(cert),
            "leakage": _measured(decomp.leakage, args.tol),
            "sectors": [
                {
                    "partition": list(shape.parts),
                    "protected_dim": basis.syt_count(shape),
                    "noisy_dim": basis.multiplicity(shape),
                    "flagged": flagged,
                    "twin_deviation": _measured(decomp.twin_deviation[shape], args.tol),
                }
                for shape, flagged in flags.items()
            ],
            "liouville_dim": (channel.d**2) ** channel.n,
        }
        if isinstance(channel, KrausChannel):
            payload["closure_deviation"] = _measured(channel.closure_deviation, CLOSURE_TOL)
        if protection is not None:
            payload["protection"] = {
                **_measured(protection, args.tol),
                "trials": PROTECTION_TRIALS,
                "seed": args.seed,
            }
        _write_json(args.out, payload)
    return EXIT_OK


def _check_finite(value: float, t: float, what: str) -> None:
    # an exponential that overflowed float64 would put NaN into the report
    if not np.isfinite(value):
        raise ValueError(f"t={t}: {what} is not finite in float64; choose a smaller --times value")


def cmd_evolve(args) -> int:
    channel, builder = _load_channel(args.channel_file)
    if not isinstance(channel, Lindbladian):
        raise ChannelSpecError("evolve needs a Lindblad description (kind 'lindblad')")
    cert, basis, decomp, times = _pipeline(channel, args.tol)
    echo = _input_echo(args, channel, builder)
    print(f"input: lindblad generator, d={echo['d']}, n={echo['n']}, "
          f"{echo['operator_count']} jump operators ({args.channel_file})")
    print(f"classification: {cert.classification}; leakage {decomp.leakage:.3e} "
          f"(tol {args.tol:.1e})")
    results = []
    for t in args.times:
        t0 = time.perf_counter()
        evolved = blockwise_exp(decomp, t)
        dt = time.perf_counter() - t0
        blocks = []
        for shape, E in evolved.blocks.items():
            max_abs = float(np.max(np.abs(E)))
            _check_finite(max_abs, t, f"the exponential of {shape} block {E.shape}")
            blocks += [
                {"partition": list(shape.parts), "tableau_index": y, "max_abs": max_abs}
                for y in range(basis.syt_count(shape))
            ]
        entry = {"t": t, "blocks": blocks}
        line = f"t={t}: {len(blocks)} blocks from {len(evolved.blocks)} exponentials"
        if args.verify_dense:
            from scipy.linalg import expm

            dense = expm(t * decomp.frame)
            # np.max, unlike the builtin max, lets a NaN through
            deviation = float(np.max(np.abs(evolved.schur_matrix - dense)))
            _check_finite(deviation, t, f"the dense cross-check {dense.shape}")
            del dense
            entry["dense_deviation"] = _measured(deviation, _DENSE_CHECK_TOL)
            line += f"; dense cross-check deviation {deviation:.3e} (tol {_DENSE_CHECK_TOL:.1e})"
        results.append(entry)
        print(line)
        print(f"[time] blockwise exponential at t={t}: {dt:.3f} s")
    for stage, dt in times.items():
        print(f"[time] {stage}: {dt:.3f} s")

    if args.out:
        _write_json(
            args.out,
            {
                "command": "evolve",
                "input": echo,
                "tol": args.tol,
                "classification": cert.classification,
                "leakage": _measured(decomp.leakage, args.tol),
                "times": args.times,
                "results": results,
            },
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    # the self-checks and their dense oracles load only for this command
    from .verify import run_suites

    suites = run_suites(args.level)
    failed = 0
    for result in suites:
        print(result.line())
        failed += 0 if result.passed else 1
    print(f"{len(suites) - failed}/{len(suites)} suites passed ({args.level})")
    if args.out:
        _write_json(
            args.out,
            {
                "command": "verify",
                "level": args.level,
                "suites": [
                    {
                        "name": r.name,
                        # strict JSON has no Infinity or NaN: "inf", "-inf", "nan"
                        "measured": r.measured if np.isfinite(r.measured) else str(r.measured),
                        "tol": r.tol,
                        "passed": r.passed,
                    }
                    for r in suites
                ],
                "passed": failed == 0,
            },
        )
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="superschur",
        description="Permutation-symmetry block diagonalization of qudit channels",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="command")

    sites = _int_at_least(1, "expected a positive integer")
    local_dim = _int_at_least(2, "local dimension must be >= 2")
    seed = _int_at_least(0, "expected a non-negative integer")

    p = sub.add_parser("decompose", help="print the sector dimension table")
    p.add_argument("--n", type=sites, required=True, help="number of qudits")
    p.add_argument("--d", type=local_dim, required=True, help="local dimension")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("schur-basis", help="build and export the adapted basis")
    p.add_argument("--n", type=sites, required=True)
    p.add_argument("--d", type=local_dim, required=True)
    p.add_argument("--out", required=True, help="basis file destination")
    p.set_defaults(func=cmd_schur_basis)

    p = sub.add_parser("analyze", help="classify a channel and report its block structure")
    p.add_argument("channel_file", help="channel description file (JSON)")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_BLOCK_TOL,
                   help="block-structure tolerance (default 1e-8)")
    p.add_argument("--seed", type=seed, default=0, help="seed for the protection probe")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="blockwise exponentials of a Lindblad generator")
    p.add_argument("channel_file", help="channel description file (JSON, kind lindblad)")
    p.add_argument("--times", type=_time_list, default=[1.0],
                   help="comma-separated evolution times (default 1.0)")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_BLOCK_TOL)
    p.add_argument("--verify-dense", action="store_true",
                   help="cross-check each result against the dense exponential")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--out", help="write a JSON report to this path")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ChannelSpecError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ChannelInvariantError, BlockStructureError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
