"""Command-line interface over the probability representation.

Thin adapter: parse JSON, call the library, serialize results. All numeric
logic lives in the library modules. Exit codes: 0 success, 2 parse error,
3 domain or precondition error, 4 input/output error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from . import (
    evolution,
    figures,
    matrix_oracle,
    observable_map,
    qubit_core,
    suprematism_geometry,
    tomography_channels,
)
from .errors import DomainError, FormulaMismatchWarning
from .observable_map import ObservableProbRep
from .qubit_core import ProbTriple

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# Largest evolve grid: sample_trajectory peaks near 87 B per sample (tracemalloc),
# so the trajectory itself stays under 0.1 GB.
MAX_STEPS = 1_000_000

_MATRIX_KEYS = ("m11", "m12", "m21", "m22")
_MATRIX_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))
_TRIPLE_KEYS = ("p1", "p2", "p3")
# Float-valued command-line flags, by argparse dest.
_FLOAT_FLAGS = ("a", "b", "x", "t_end", "theta", "phi", "psi")


class ParseError(ValueError):
    """Input does not match the expected JSON schema."""


def _as_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = np.inf
    if not np.isfinite(number):
        raise DomainError(f"{key} is not finite, got {number!r}")
    return number


def _check_float_flags(args) -> None:
    """Reject NaN and infinite flag values, naming the flag, before any work."""
    for dest in _FLOAT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            _as_number(value, "--" + dest.replace("_", "-"))


def _as_complex(pair, key: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"{key} must be a [re, im] pair")
    return complex(_as_number(pair[0], key), _as_number(pair[1], key))


def parse_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    missing = [key for key in _MATRIX_KEYS if key not in obj]
    if missing:
        raise ParseError(f"matrix document lacks keys: {', '.join(missing)}")
    m = np.zeros((2, 2), dtype=complex)
    for key, slot in zip(_MATRIX_KEYS, _MATRIX_SLOTS):
        m[slot] = _as_complex(obj[key], key)
    return m


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        key: [float(m[slot].real), float(m[slot].imag)]
        for key, slot in zip(_MATRIX_KEYS, _MATRIX_SLOTS)
    }


def parse_triple(obj) -> ProbTriple:
    if not isinstance(obj, dict):
        raise ParseError("probability triple must be a JSON object")
    missing = [key for key in _TRIPLE_KEYS if key not in obj]
    if missing:
        raise ParseError(f"triple document lacks keys: {', '.join(missing)}")
    return ProbTriple(*(_as_number(obj[key], key) for key in _TRIPLE_KEYS))


def triple_to_json(p: ProbTriple) -> dict:
    return {"p1": p.p1, "p2": p.p2, "p3": p.p3}


def parse_rep(obj) -> ObservableProbRep:
    if not isinstance(obj, dict):
        raise ParseError("encoding document must be a JSON object")
    for key in ("a", "b", "P_a", "P_b"):
        if key not in obj:
            raise ParseError(f"encoding document lacks key {key}")
    return ObservableProbRep(
        _as_number(obj["a"], "a"),
        _as_number(obj["b"], "b"),
        parse_triple(obj["P_a"]),
        parse_triple(obj["P_b"]),
    )


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _tolerance() -> float:
    raw = os.environ.get("QPROB_TOL")
    if raw is None:
        return qubit_core.DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ParseError(f"QPROB_TOL must be a number, got {raw!r}") from exc
    if not 0.0 <= tol < np.inf:
        raise ParseError(f"QPROB_TOL must be finite and nonnegative, got {raw!r}")
    return tol


def _is_triple_doc(doc) -> bool:
    return isinstance(doc, dict) and all(key in doc for key in _TRIPLE_KEYS)


def cmd_encode(args) -> int:
    h = parse_matrix(_load_json(args.infile))
    if (args.a is None) != (args.b is None):
        raise ParseError("--a and --b must be given together")
    tol = _tolerance()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = observable_map.encode_observable(h, args.a, args.b, tol=tol)
    notes = [str(w.message) for w in caught if issubclass(w.category, FormulaMismatchWarning)]
    warns = [str(w.message) for w in caught if not issubclass(w.category, FormulaMismatchWarning)]
    if observable_map._carries_no_trace(rep):
        warns.append(
            "matrix is a multiple of the identity: the encoding does not determine "
            "its trace, and decoding returns the zero-trace representative"
        )
    out = {
        "a": rep.a,
        "b": rep.b,
        "P_a": triple_to_json(rep.p_a),
        "P_b": triple_to_json(rep.p_b),
        "admissible_bound": observable_map.admissible_shift_bound(h),
        "errata_notes": notes,
        "warnings": warns,
    }
    _write_text(args.outfile, _dump_json(out))
    return EXIT_OK


def cmd_decode(args) -> int:
    rep = parse_rep(_load_json(args.infile))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = observable_map.decode_observable(rep, tol=_tolerance())
    out = matrix_to_json(h)
    messages = [str(w.message) for w in caught]
    if messages:
        out["warnings"] = messages
    _write_text(args.outfile, _dump_json(out))
    return EXIT_OK


def cmd_tomogram(args) -> int:
    doc = _load_json(args.infile)
    direction = tomography_channels.Direction(args.theta, args.phi, args.psi)
    tol = _tolerance()
    if _is_triple_doc(doc):
        w_plus, w_minus = tomography_channels.state_tomogram(parse_triple(doc), direction, tol)
    else:
        if args.x is None:
            raise ParseError("an observable tomogram needs --x")
        w_plus, w_minus = observable_map.observable_tomogram(parse_matrix(doc), direction, args.x, tol)
    _write_text(args.outfile, _dump_json({"w_plus": w_plus, "w_minus": w_minus}))
    return EXIT_OK


def cmd_evolve(args) -> int:
    if args.steps > MAX_STEPS:
        raise ParseError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")
    doc = _load_json(args.infile)
    if not isinstance(doc, dict) or "H" not in doc:
        raise ParseError('evolve input needs an "H" matrix')
    h = parse_matrix(doc["H"])
    tol = _tolerance()
    if "p0" in doc:
        p0 = parse_triple(doc["p0"])
        x = 0.0 if args.x is None else args.x
    elif "A0" in doc:
        if args.x is None:
            raise ParseError('evolve with "A0" needs --x')
        a0 = parse_matrix(doc["A0"])
        x = args.x
        p0 = qubit_core.probs_from_density(observable_map.rho_of_x(a0, x), tol)
    else:
        raise ParseError('evolve input needs "p0" or "A0"')
    system = evolution.build_kinetic(h, x)
    trajectory = evolution.sample_trajectory(system, p0, args.t_end, args.steps, tol)
    if args.format == "json":
        out = {
            "x": trajectory.x,
            "times": [float(t) for t in trajectory.times],
            "probs": [[float(v) for v in row] for row in trajectory.probs],
        }
        _write_text(args.outfile, _dump_json(out))
    else:
        lines = ["t,p1,p2,p3"]
        for t, row in zip(trajectory.times, trajectory.probs):
            lines.append(",".join(f"{value:.17g}" for value in (t, row[0], row[1], row[2])))
        _write_text(args.outfile, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_figures(args) -> int:
    doc = _load_json(args.infile)
    if args.outfile == "-":
        raise ParseError("figures needs --out DIRECTORY")
    tol = _tolerance()
    if isinstance(doc, dict) and "P_a" in doc:
        rep = parse_rep(doc)
        if not args.allow_unphysical:
            qubit_core.require_physical(rep.p_a, tol)
            qubit_core.require_physical(rep.p_b, tol)
        pic_a = suprematism_geometry.triangle_picture(rep.p_a)
        pic_b = suprematism_geometry.triangle_picture(rep.p_b)
        files = {
            "fig1.svg": figures.render_svg([pic_a]),
            "fig2.svg": figures.render_svg([pic_b]),
            "fig3.svg": figures.render_svg([pic_a], with_squares=True),
            "fig4.svg": figures.render_svg([pic_b], with_squares=True),
            "fig5.svg": figures.render_svg([pic_a, pic_b]),
        }
    elif _is_triple_doc(doc):
        p = parse_triple(doc)
        if not args.allow_unphysical:
            qubit_core.require_physical(p, tol)
        pic = suprematism_geometry.triangle_picture(p)
        files = {
            "triangle.svg": figures.render_svg([pic]),
            "squares.svg": figures.render_svg([pic], with_squares=True),
        }
    else:
        raise ParseError("figures input must be an encoding or a probability triple")
    os.makedirs(args.outfile, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(args.outfile, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        written.append(path)
    sys.stdout.write(_dump_json({"written": written}))
    return EXIT_OK


def _triple_report(p: ProbTriple, tol: float, allow_unphysical: bool) -> dict:
    residual = qubit_core.check_ball(p)
    physical = qubit_core.is_physical(p, tol)
    if not physical and not allow_unphysical:
        qubit_core.require_physical(p, tol)  # raises with the precise reason
    report = {
        "p1": p.p1,
        "p2": p.p2,
        "p3": p.p3,
        "ball_residual": residual,
        "physical": physical,
    }
    if physical:
        rho = qubit_core.density_from_probs(p, tol)
        lam_min, lam_max = matrix_oracle.eigenvalues_hermitian(rho)
        report["density_eigenvalues"] = [lam_min, lam_max]
    in_cube = bool(np.all(p.as_array() >= -1e-12) and np.all(p.as_array() <= 1.0 + 1e-12))
    if in_cube:
        report["area_sum"] = suprematism_geometry.area_sum(p)
        report["chord_lengths"] = list(suprematism_geometry.triangle_picture(p).side_lengths)
    return report


def cmd_check(args) -> int:
    doc = _load_json(args.infile)
    tol = _tolerance()
    if isinstance(doc, dict) and "P_a" in doc:
        rep = parse_rep(doc)
        report = {
            "a": rep.a,
            "b": rep.b,
            "P_a": _triple_report(rep.p_a, tol, args.allow_unphysical),
            "P_b": _triple_report(rep.p_b, tol, args.allow_unphysical),
        }
    elif _is_triple_doc(doc):
        report = _triple_report(parse_triple(doc), tol, args.allow_unphysical)
    else:
        raise ParseError("check input must be an encoding or a probability triple")
    _write_text(args.outfile, _dump_json(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprob",
        description="Probability representation of qubit states and observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, out_help: str = "output file (default stdout)"):
        p.add_argument("--in", dest="infile", default="-", metavar="FILE",
                       help="input file (default stdin)")
        p.add_argument("--out", dest="outfile", default="-", metavar="FILE", help=out_help)

    encode = sub.add_parser("encode", help="Hermitian matrix to probability-triple encoding")
    add_io(encode)
    encode.add_argument("--a", type=float, default=None,
                        help="first shift (default |lambda_min| + ||H||)")
    encode.add_argument("--b", type=float, default=None,
                        help="second shift (default |lambda_min| + 2 ||H||)")

    decode = sub.add_parser("decode", help="probability-triple encoding back to the matrix")
    add_io(decode)

    tomogram = sub.add_parser("tomogram", help="spin tomogram of a state or an observable")
    add_io(tomogram)
    tomogram.add_argument("--theta", type=float, required=True, help="polar angle in [0, pi]")
    tomogram.add_argument("--phi", type=float, required=True, help="azimuth in [0, 2*pi)")
    tomogram.add_argument("--psi", type=float, default=0.0, help="frame angle in [0, 2*pi)")
    tomogram.add_argument("--x", type=float, default=None, help="shift (observable input only)")

    evolve = sub.add_parser("evolve", help="kinetic-equation trajectory on a uniform grid")
    add_io(evolve)
    evolve.add_argument("--x", type=float, default=None, help="shift (required with A0 input)")
    evolve.add_argument("--t-end", dest="t_end", type=float, required=True, help="final time")
    evolve.add_argument("--steps", type=int, required=True, help="number of grid intervals")
    evolve.add_argument("--format", choices=("csv", "json"), default="csv")

    figs = sub.add_parser("figures", help="SVG triangle and square figures")
    figs.add_argument("--in", dest="infile", default="-", metavar="FILE",
                      help="input file (default stdin)")
    figs.add_argument("--out", dest="outfile", default="-", metavar="DIR", help="output directory")
    figs.add_argument("--allow-unphysical", action="store_true",
                      help="draw triples outside the physical ball")

    check = sub.add_parser("check", help="physicality and geometry report")
    add_io(check)
    check.add_argument("--allow-unphysical", action="store_true",
                       help="report on unphysical triples instead of failing")

    return parser


_HANDLERS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "tomogram": cmd_tomogram,
    "evolve": cmd_evolve,
    "figures": cmd_figures,
    "check": cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_float_flags(args)
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print(f"qprob: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"qprob: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"qprob: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
