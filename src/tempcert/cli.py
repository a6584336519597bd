"""Command-line front end for temporal-compatibility certification.

Commands
--------
certify   decide temporal compatibility of a bipartite state (exit 0 when
          compatible in both directions, 2 otherwise, 1 on input and
          usage errors, 3 when the two internal verdict paths disagree)
channel   reconstruct the temporal channel of a state in one direction
pdm       build the pseudo-density matrix of a Pauli correlation table
expect    tabulate Pauli-pair two-time expectation values of a process
bloch     export Bloch-sphere point clouds of a two-qubit state's stages
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import documents
from .channels import is_cptp
from .ensembles import assemble_state
from .operators import DEFAULT_TOLS, _check_tol, partial_trace
from .sot import PAULIS, correlations_from_process, pdm_from_correlations
from .temporal import VerdictMismatchError, certify, dephasing_channel, temporal_channel

__all__ = ["main"]


def _load_state(path: str) -> tuple[np.ndarray, tuple[int, int]]:
    """Load a bipartite state from a state document or by assembling an ensemble."""
    doc = documents.load_document(path)
    if doc["kind"] == "ensemble":
        ensemble = documents.parse_ensemble_document(doc)
        return assemble_state(ensemble), ensemble.dims
    return documents.parse_state_document(doc)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _side_line(label: str, payload: dict) -> str:
    verdict = "compatible" if payload["compatible"] else "incompatible"
    note = "  [boundary]" if payload["boundary"] else ""
    return (
        f"side {label}: {verdict}{note}\n"
        f"  test min eigenvalue      {payload['test_min_eigenvalue']: .6e}\n"
        f"  choi min eigenvalue      {payload['choi_min_eigenvalue']: .6e}\n"
        f"  reconstruction residual  {payload['reconstruction_residual']: .6e}\n"
        f"  faithful marginal        {payload['faithful_marginal']}\n"
    )


def _cmd_certify(args: argparse.Namespace) -> int:
    tau, dims = _load_state(args.input)
    result = certify(tau, dims, tol=args.tol)
    doc = documents.report_document(result)
    if args.json:
        _write_text(documents.dump_document(doc) + "\n", args.out)
    else:
        lines = [
            _side_line("A", doc["sides"]["a"]),
            _side_line("B", doc["sides"]["b"]),
            f"PPT: {'yes' if result.ppt else 'no'} (partial transpose min eigenvalue "
            f"{result.ppt_min_eigenvalue: .6e})\n",
            "verdict: temporally compatible in both directions\n"
            if result.compatible_both
            else "verdict: temporally incompatible in at least one direction\n",
        ]
        _write_text("".join(lines), args.out)
    return 0 if result.compatible_both else 2


def _cmd_channel(args: argparse.Namespace) -> int:
    tau, dims = _load_state(args.input)
    channel = temporal_channel(tau, dims, args.side.lower())
    doc = documents.channel_document(channel, is_cptp(channel, args.tol))
    _write_text(documents.dump_document(doc) + "\n", args.out)
    return 0


def _cmd_pdm(args: argparse.Namespace) -> int:
    corr = documents.parse_correlations_document(documents.load_document(args.input))
    r = pdm_from_correlations(corr)
    d = 2**corr.qubits
    doc = documents.state_document(r, (d, d))
    _write_text(documents.dump_document(doc) + "\n", args.out)
    return 0


def _cmd_expect(args: argparse.Namespace) -> int:
    process = documents.parse_process_document(documents.load_document(args.input))
    # read off dim_in when not given; a dim that is not a power of 2 is refused by correlations_from_process
    qubits = int(process.channel.dim_in).bit_length() - 1 if args.m is None else args.m
    corr = correlations_from_process(process, qubits)
    doc = documents.correlations_document(corr)
    _write_text(documents.dump_document(doc) + "\n", args.out)
    return 0


def _bloch_points(tau: np.ndarray, dims: tuple[int, int], stage: str, samples: int, seed: int) -> np.ndarray:
    if dims != (2, 2):
        raise ValueError(f"bloch export needs two qubit factors, got dims {dims}")
    if stage == "input":
        push = None
    elif stage == "dephased":
        push = dephasing_channel(partial_trace(tau, dims, "b"))
    else:  # "output"; the parser restricts --stage to the three names
        push = temporal_channel(tau, dims, "a")
    v = np.random.default_rng(seed).standard_normal((samples, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sigmas = np.stack(PAULIS[1:])
    rho = (np.eye(2) + (v @ sigmas.reshape(3, 4)).reshape(-1, 2, 2)) / 2
    out = rho if push is None else push(rho)
    return (out.reshape(-1, 4) @ sigmas.transpose(0, 2, 1).reshape(3, 4).T).real


def _cmd_bloch(args: argparse.Namespace) -> int:
    tau, dims = _load_state(args.input)
    points = _bloch_points(tau, dims, args.stage, args.samples, args.seed)
    if args.samples == 0:
        text = ""
    elif args.json:
        text = json.dumps(points.tolist()) + "\n"
    else:
        text = "".join(f"{float(x)!r},{float(y)!r},{float(z)!r}\n" for x, y, z in points)
    _write_text(text, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one line and exit 1, as for bad input; exit 2 is certify's verdict
        self.exit(1, f"error: {message}\n")


def _count(text: str) -> int:
    if not text.isdecimal():  # argparse names the flag before this message
        raise argparse.ArgumentTypeError(f"expected an int >= 0, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tempcert",
        description="Certify whether bipartite quantum statistics admit a direct-cause explanation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    with_tol = argparse.ArgumentParser(add_help=False, parents=[common])
    with_tol.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOLS.psd,
        help=f"certification tolerance, finite and >= 0 (default {DEFAULT_TOLS.psd:g})",
    )

    p_certify = sub.add_parser("certify", parents=[with_tol], help="certify temporal compatibility")
    p_certify.add_argument("input", help="state or ensemble document")
    fmt = p_certify.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the report as a JSON document")
    fmt.add_argument("--text", dest="json", action="store_false", help="emit a plain-text report (default)")
    p_certify.set_defaults(func=_cmd_certify, json=False)

    p_channel = sub.add_parser("channel", parents=[with_tol], help="reconstruct the temporal channel")
    p_channel.add_argument("input", help="state or ensemble document")
    p_channel.add_argument("--side", choices=["A", "B", "a", "b"], default="A", help="causal direction")
    p_channel.set_defaults(func=_cmd_channel)

    p_pdm = sub.add_parser("pdm", parents=[common], help="pseudo-density matrix from correlations")
    p_pdm.add_argument("input", help="correlations document")
    p_pdm.set_defaults(func=_cmd_pdm)

    p_expect = sub.add_parser("expect", parents=[common], help="Pauli correlation table of a process")
    p_expect.add_argument("input", help="process document")
    p_expect.add_argument("--m", type=int, help="number of qubits per side (default: read off the process)")
    p_expect.set_defaults(func=_cmd_expect)

    p_bloch = sub.add_parser("bloch", parents=[common], help="Bloch point clouds of a two-qubit state")
    p_bloch.add_argument("input", help="state or ensemble document")
    p_bloch.add_argument("--stage", choices=["input", "dephased", "output"], default="output")
    p_bloch.add_argument("--samples", type=_count, default=500)
    p_bloch.add_argument("--seed", type=_count, default=0)
    p_bloch.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_bloch.set_defaults(func=_cmd_bloch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if "tol" in args:  # checked before any file is read
            _check_tol(args.tol)
        return args.func(args)
    except (ValueError, OSError, VerdictMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, VerdictMismatchError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
