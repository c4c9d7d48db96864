"""Command-line verification runner.

``orbitsym verify <suite>`` runs seeded suites for a chamber element
given as a comma-separated list (decimals or simple fractions) and
prints one summary line per suite; ``--json`` additionally writes the
full report list.  ``orbitsym info`` prints the block structure and the
derived dimensions.  A process builds each distinct ``--n``/``--H`` pair's
chamber once and shares it, with the stencil exponentials it keeps,
across later ``main`` calls.  Exit codes: 0 all suites pass, 1 any failure,
2 usage or configuration errors, including a ``--json`` path that
cannot be opened or written.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .model import NotInChamber, SpecialLinearModel
from .suites import (
    DEFAULT_FD_STEP,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    SUITE_NAMES,
    VerificationReport,
    run_suite,
)

SUITE_CHOICES = SUITE_NAMES + ("all",)


def parse_entries(text: str) -> list:
    """Parse a comma-separated chamber element.

    Tokens parse as exact rationals when possible ("1", "0.25", "1/3"),
    so equal entries stay equal; otherwise they fall back to floats and
    block detection compares bit for bit.
    """
    tokens = [t.strip() for t in text.split(",")]
    if any(not t for t in tokens):
        raise ValueError("empty entry in H")
    values: list = []
    all_rational = True
    for tok in tokens:
        try:
            values.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            values.append(float(tok))
            all_rational = False
    if all_rational:
        return values
    return [float(v) for v in values]


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``parser_class`` each of its subparsers, whose
    usage errors are one line and exit code 2, as the program's own are."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process; each ``parse_args`` call returns a
    fresh namespace, so no state carries over between calls."""
    parser = _Parser(
        prog="orbitsym",
        description="Verification suites for hyperbolic adjoint orbits of SL(n,R).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("suite_pos", nargs="?", choices=SUITE_CHOICES, metavar="SUITE",
                        help=f"one of {', '.join(SUITE_CHOICES)}")
    verify.add_argument("--suite", choices=SUITE_CHOICES, help="alternative to the positional suite")
    verify.add_argument("--n", type=int, help="matrix size (2..8); inferred from --H when omitted")
    verify.add_argument("--H", required=True, help='chamber element, e.g. "1,0,-1" or "1/2,0,-1/2"')
    verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--fd-step", type=float, default=DEFAULT_FD_STEP)
    verify.add_argument("--tol-exact", type=float, default=None,
                        help="override every exact-formula tolerance")
    verify.add_argument("--tol-fd", type=float, default=None,
                        help="override every finite-difference tolerance")
    verify.add_argument("--json", dest="json_path", default=None, metavar="PATH",
                        help="write the full report list as a JSON array")
    verify.add_argument("--quiet", action="store_true", help="suppress per-suite lines")

    info = sub.add_parser("info", help="print chamber block structure and dimensions")
    info.add_argument("--n", type=int, help="matrix size; inferred from --H when omitted")
    info.add_argument("--H", required=True)
    return parser


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# Chambers kept across ``main`` calls, a fixed number so that the memo's
# memory stays bounded.
_CHAMBERS_KEPT = 16


@functools.lru_cache(maxsize=_CHAMBERS_KEPT)
def _resolve_chamber(n_arg, h_text: str):
    """The chamber of ``--n`` and ``--H``, built once per process for each
    distinct pair (the last ``_CHAMBERS_KEPT`` of them); a pair that
    raises is not kept, so it raises again on every call."""
    entries = parse_entries(h_text)
    n = n_arg if n_arg is not None else len(entries)
    if not 2 <= n <= 8:
        raise ValueError(f"matrix size must be between 2 and 8, got {n}")
    if len(entries) != n:
        raise ValueError(f"expected {n} entries in H, got {len(entries)}")
    return SpecialLinearModel(n).chamber_element(entries)


def suite_line(name: str, samples: int, reports: list[VerificationReport]) -> str:
    """Summary line for one suite run: the binding report (largest
    max_error/tolerance) and PASS only when every report passed."""
    def ratio(r: VerificationReport) -> float:
        return r.max_error / r.tolerance if r.tolerance > 0 else float("inf")

    binding = max(reports, key=ratio)
    status = "PASS" if all(r.passed for r in reports) else "FAIL"
    line = (
        f"{name:<22} samples={samples:<4d} max_error={binding.max_error:10.3e} "
        f"tol={binding.tolerance:8.1e} {status}"
    )
    raised = min((e for r in reports for e in r.exceptions), default=None)
    return line if raised is None else f"{line} ({raised[1]} at sample {raised[0]})"


def _json_scalar(value) -> str:
    """``value`` as ``json.dump(..., allow_nan=False)`` writes it, by type."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return int.__repr__(value)  # any type that as_dict never gives raises TypeError


# ``json.dump(reports, indent=2)`` lays a report out with its fields at depth
# two, in the order of ``VerificationReport.as_dict``, the items of its lists
# at depth three and the fields of a detail row at depth four.
_REPORT = ('  {{\n    "suite": {suite},\n    "n": {n},\n    "H": {H},\n'
           '    "samples": {samples},\n    "seed": {seed},\n    "fd_step": {fd_step},\n'
           '    "max_error": {max_error},\n    "tolerance": {tolerance},\n    "pass": {pass},\n'
           '    "samples_detail": {samples_detail}\n  }}')
_DETAIL = '      {{\n        "index": {},\n        "error": {}{}\n      }}'


def _json_report(fields: dict) -> str:
    values = {k: _json_scalar(v) for k, v in fields.items() if not isinstance(v, list)}
    h = ["      " + _json_scalar(entry) for entry in fields["H"]]
    detail = [_DETAIL.format(_json_scalar(row["index"]), _json_scalar(row["error"]),
                             f',\n        "exception": {_json_scalar(row["exception"])}'
                             if "exception" in row else "") for row in fields["samples_detail"]]
    for key, items in (("H", h), ("samples_detail", detail)):
        values[key] = "[\n" + ",\n".join(items) + "\n    ]" if items else "[]"
    return _REPORT.format_map(values)


def open_json(path: str):
    """``path`` opened for writing text at its start, created if missing but
    not truncated, so the caller truncates after writing.  On ext4 a file
    truncated to zero and rewritten costs tens of milliseconds more than
    one overwritten and cut at its new end.  The file keeps its inode,
    symlinks and permissions."""
    return os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")


def write_reports(fh, reports: list[VerificationReport]) -> None:
    """Write the bytes of ``json.dump(..., indent=2, allow_nan=False)`` and a newline."""
    body = ",\n".join(_json_report(r.as_dict()) for r in reports)
    fh.write(f"[\n{body}\n]\n" if reports else "[]\n")


def save_json(out, path: str, reports: list[VerificationReport]) -> int:
    """Write ``reports`` to ``out``, opened by ``open_json(path)``, and close
    it: 0, or 2 after one error line when that fails, as on a full disk."""
    try:
        with out:
            write_reports(out, reports)
            out.truncate()
    except OSError as exc:
        return _usage_error(f"cannot write --json {path}: {exc.strerror}")
    return 0


def _run_verify(args) -> int:
    suite = args.suite_pos or args.suite
    if suite is None:
        return _usage_error("no suite given (positional SUITE or --suite)")
    if args.suite_pos and args.suite and args.suite_pos != args.suite:
        return _usage_error("positional suite and --suite disagree")
    if args.samples < 1:
        return _usage_error("--samples must be positive")
    for flag, value in (("--fd-step", args.fd_step), ("--tol-exact", args.tol_exact),
                        ("--tol-fd", args.tol_fd)):
        if value is not None and not (math.isfinite(value) and value > 0):
            return _usage_error(f"{flag} must be finite and positive")
    try:
        chamber = _resolve_chamber(args.n, args.H)
    except (ValueError, NotInChamber) as exc:
        return _usage_error(str(exc))
    try:  # opened before the first suite, so that an unwritable path costs no run
        out = open_json(args.json_path) if args.json_path else None
    except OSError as exc:
        return _usage_error(f"cannot write --json {args.json_path}: {exc.strerror}")

    names = SUITE_NAMES if suite == "all" else (suite,)
    all_reports: list[VerificationReport] = []
    ok = True
    for name in names:
        reports = run_suite(chamber, name, samples=args.samples, seed=args.seed,
                            fd_step=args.fd_step, tol_exact=args.tol_exact, tol_fd=args.tol_fd)
        all_reports.extend(reports)
        ok = ok and all(r.passed for r in reports)
        if not args.quiet:
            print(suite_line(name, args.samples, reports))

    if out and save_json(out, args.json_path, all_reports):
        return 2
    return 0 if ok else 1


def _run_info(args) -> int:
    try:
        chamber = _resolve_chamber(args.n, args.H)
    except (ValueError, NotInChamber) as exc:
        return _usage_error(str(exc))
    blocks = ", ".join(f"{value:g} (x{mult})" for value, mult in chamber.blocks)
    print(f"n: {chamber.model.n}")
    print(f"H: {', '.join(f'{e:g}' for e in chamber.entries)}")
    print(f"blocks: {blocks}")
    print(f"dim n(H): {chamber.dim_n}")
    print(f"dim z(H): {chamber.dim_z}")
    print(f"dim z_K(H): {chamber.dim_zk}")
    print(f"dim m(H): {chamber.dim_m}")
    print(f"orbit dimension: {chamber.orbit_dim}")
    print(f"flag dimension: {chamber.flag_dim}")
    return 0


# The options of ``verify`` and ``info`` that take a value.
_VALUE_FLAGS = {"--suite", "--n", "--H", "--samples", "--seed", "--fd-step", "--tol-exact",
                "--tol-fd", "--json"}


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join each value flag with the token after it, ``--H -1,1`` into
    ``--H=-1,1``, so that values with a leading minus sign ("-1e-3",
    "-inf") survive argparse's option scanning."""
    merged = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _VALUE_FLAGS else None
        merged.append(tok if value is None else f"{tok}={value}")
    return merged


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_merge_value_flags(raw))
    if args.command == "verify":
        return _run_verify(args)
    return _run_info(args)


if __name__ == "__main__":
    raise SystemExit(main())
