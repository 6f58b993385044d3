"""Command-line interface over the probability representation.

Thin adapter: main reads the JSON document and QPROB_TOL, a handler parses
the document and calls the library, and main writes the text it returns. All
numeric logic lives in the library modules. A matrix is parsed into nested
lists of Python numbers, which the library reads without numpy, so no
command imports numpy. tomogram, evolve's kinetic system and figures call
the public functions. encode, decode, check and evolve's A0 triple call the
kernels behind them, which need the accepted entries or would validate a
matrix twice. evolve's grid and rows come on Python floats from
evolution._trajectory_rows.
Exit codes, mapped in main alone: 0 success, 2 parse error, 3 domain or
precondition error (a report value that is not finite included), 4
input/output error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from . import (
    evolution,
    figures,
    observable_map,
    qubit_core,
    suprematism_geometry,
    tomography_channels,
)
from .errors import DomainError
from .observable_map import ObservableProbRep
from .qubit_core import ProbTriple, _as_float

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

# Largest evolve grid. At this many steps a whole qprob evolve process peaks at
# 333 MiB resident for csv and 304 MiB for json (ru_maxrss; x86-64 Linux,
# Python 3.11), the grid held as Python floats and each row as its text.
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
    number = _as_float(value)  # a JSON integer beyond the float range is infinite
    if not math.isfinite(number):
        raise DomainError(f"{key} is not finite, got {number!r}")
    return number


def _check_flags(args) -> None:
    """Reject non-finite float flags, naming the flag, and --steps over MAX_STEPS, before any read."""
    for dest in _FLOAT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            _as_number(value, "--" + dest.replace("_", "-"))
    if getattr(args, "steps", 0) > MAX_STEPS:
        raise ParseError(f"--steps must be at most {MAX_STEPS}, got {args.steps}")


def _as_complex(pair, key: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ParseError(f"{key} must be a [re, im] pair")
    return complex(_as_number(pair[0], key), _as_number(pair[1], key))


def parse_matrix(obj) -> list[list[complex]]:
    """[[m11, m12], [m21, m22]] as Python complex numbers."""
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    missing = [key for key in _MATRIX_KEYS if key not in obj]
    if missing:
        raise ParseError(f"matrix document lacks keys: {', '.join(missing)}")
    m11, m12, m21, m22 = (_as_complex(obj[key], key) for key in _MATRIX_KEYS)
    return [[m11, m12], [m21, m22]]


def matrix_to_json(matrix) -> dict:
    return {
        key: [float(matrix[i][j].real), float(matrix[i][j].imag)]
        for key, (i, j) in zip(_MATRIX_KEYS, _MATRIX_SLOTS)
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


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _non_finite(doc, path: str = "") -> tuple[str, float] | None:
    """The path and value of the first number in doc that JSON cannot carry (NaN or an infinity)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
        if isinstance(value, float) and not math.isfinite(value):
            return where, value
        found = _non_finite(value, where)
        if found is not None:
            return found
    return None


def _dump_json(doc) -> str:
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        where, value = _non_finite(doc)
        raise DomainError(f"{where} = {value!r} is not finite, and JSON has no such number") from None


def _dump_trajectory(x: float, times: list, rows) -> str:
    """_dump_json({"x": x, "times": times, "probs": rows}) for Python floats, written row by row.

    json writes a finite float as its repr, so joining the reprs in the
    indent=2 layout gives the same bytes without the pure-Python encoder's
    copies of the document. No value can be NaN or infinite: x is a
    KineticSystem's finite shift; the times are the grid _grid_inputs
    accepted, a finite t_end and every k * step below it; and each row is a
    rotation of the accepted p0 about the ball center, whose ball test at any
    finite QPROB_TOL bounds |p0 - c| by about 1.34e154, the square root of
    the largest float.
    """
    # the row texts are freed when the join returns, before the last copy, which sets the peak
    rows_text = ",\n    ".join([f"[\n      {p1!r},\n      {p2!r},\n      {p3!r}\n    ]" for p1, p2, p3 in rows])
    return "".join(('{\n  "x": ', repr(x), ',\n  "times": [\n    ', ",\n    ".join(map(repr, times)),
                    '\n  ],\n  "probs": [\n    ', rows_text, "\n  ]\n}\n"))


def _tolerance() -> float:
    raw = os.environ.get("QPROB_TOL")
    if raw is None:
        return qubit_core.DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ParseError(f"QPROB_TOL must be a number, got {raw!r}") from exc
    if not 0.0 <= tol < math.inf:
        raise ParseError(f"QPROB_TOL must be finite and nonnegative, got {raw!r}")
    return tol


def _is_triple_doc(doc) -> bool:
    return isinstance(doc, dict) and all(key in doc for key in _TRIPLE_KEYS)


def _states(doc, command: str) -> ObservableProbRep | ProbTriple:
    """The encoding or the single triple that figures and check take."""
    if isinstance(doc, dict) and "P_a" in doc:
        return parse_rep(doc)
    if _is_triple_doc(doc):
        return parse_triple(doc)
    raise ParseError(f"{command} input must be an encoding or a probability triple")


def _triples(states: ObservableProbRep | ProbTriple) -> tuple[ProbTriple, ...]:
    return (states.p_a, states.p_b) if isinstance(states, ObservableProbRep) else (states,)


def _physical_states(doc, args, tol: float) -> ObservableProbRep | ProbTriple:
    """_states, with every triple required physical unless --allow-unphysical."""
    states = _states(doc, args.command)
    if not args.allow_unphysical:
        for p in _triples(states):
            qubit_core.require_physical(p, tol)
    return states


def cmd_encode(doc, args, tol: float) -> str:
    h = parse_matrix(doc)
    if (args.a is None) != (args.b is None):
        raise ParseError("--a and --b must be given together")
    rows, lam_min, lam_max = observable_map._accept(h, "observable")
    rep = observable_map._encode(rows, lam_min, lam_max, args.a, args.b)
    # near the admissible bound tr H + 2x is small and a computed triple can round out of the cube
    qubit_core.require_physical(rep.p_a, qubit_core.DEFAULT_TOL)
    qubit_core.require_physical(rep.p_b, qubit_core.DEFAULT_TOL)
    warns = []
    if observable_map._carries_no_trace(rep):
        warns.append(
            "matrix is a multiple of the identity: the encoding does not determine "
            "its trace, and decoding returns the zero-trace representative"
        )
    return _dump_json({
        "a": rep.a,
        "b": rep.b,
        "P_a": triple_to_json(rep.p_a),
        "P_b": triple_to_json(rep.p_b),
        "admissible_bound": observable_map._admissible_bound(rows, lam_min),
        "errata_notes": [],
        "warnings": warns,
    })


def cmd_decode(doc, args, tol: float) -> str:
    rep = parse_rep(doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = observable_map._decode(rep, tol)
    out = matrix_to_json(h)
    if caught:
        out["warnings"] = [str(w.message) for w in caught]
    return _dump_json(out)


def cmd_tomogram(doc, args, tol: float) -> str:
    direction = tomography_channels.Direction(args.theta, args.phi, args.psi)
    if _is_triple_doc(doc):
        w_plus, w_minus = tomography_channels.state_tomogram(parse_triple(doc), direction, tol)
    else:
        if args.x is None:
            raise ParseError("an observable tomogram needs --x")
        w_plus, w_minus = observable_map.observable_tomogram(parse_matrix(doc), direction, args.x)
    return _dump_json({"w_plus": w_plus, "w_minus": w_minus})


def cmd_evolve(doc, args, tol: float) -> str:
    if not isinstance(doc, dict) or "H" not in doc:
        raise ParseError('evolve input needs an "H" matrix')
    h = parse_matrix(doc["H"])
    if "p0" in doc:
        p0 = parse_triple(doc["p0"])
        x = 0.0 if args.x is None else args.x
    elif "A0" in doc:
        if args.x is None:
            raise ParseError('evolve with "A0" needs --x')
        x = args.x
        rows, lam_min, _ = observable_map._accept(parse_matrix(doc["A0"]), "observable")
        p0 = observable_map._triple(rows, lam_min, x)
        # QPROB_TOL is the slack on supplied triples. This one is computed, but near the admissible
        # bound tr(A0) + 2x is small and its quotient can leave the cube, so it is still checked.
        tol = qubit_core.DEFAULT_TOL
    else:
        raise ParseError('evolve input needs "p0" or "A0"')
    system = evolution.build_kinetic(h, x)
    times, rows = evolution._trajectory_rows(system, p0, args.t_end, args.steps, tol)
    if args.format == "json":
        return _dump_trajectory(system.x, times, rows)
    lines = ["t,p1,p2,p3"]
    lines += [f"{t:.17g},{p1:.17g},{p2:.17g},{p3:.17g}" for t, (p1, p2, p3) in zip(times, rows)]
    return "\n".join(lines) + "\n"


def cmd_figures(doc, args, tol: float) -> str:
    """Write the SVG files into --out and return their listing."""
    if args.outdir == "-":
        raise ParseError("figures needs --out DIRECTORY")
    states = _physical_states(doc, args, tol)
    pics = [suprematism_geometry.triangle_picture(p) for p in _triples(states)]
    if isinstance(states, ObservableProbRep):
        pic_a, pic_b = pics
        files = {
            "fig1.svg": figures.render_svg([pic_a]),
            "fig2.svg": figures.render_svg([pic_b]),
            "fig3.svg": figures.render_svg([pic_a], with_squares=True),
            "fig4.svg": figures.render_svg([pic_b], with_squares=True),
            "fig5.svg": figures.render_svg(pics),
        }
    else:
        files = {
            "triangle.svg": figures.render_svg(pics),
            "squares.svg": figures.render_svg(pics, with_squares=True),
        }
    os.makedirs(args.outdir, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(args.outdir, name)
        _write_text(path, text)
        written.append(path)
    return _dump_json({"written": written})


def _triple_report(p: ProbTriple, tol: float) -> dict:
    physical = qubit_core.is_physical(p, tol)
    report = {
        "p1": p.p1,
        "p2": p.p2,
        "p3": p.p3,
        "ball_residual": qubit_core.check_ball(p),
        "physical": physical,
    }
    if physical:
        # rho's eigenvalues are 1/2 -+ |p - center|, and their product is det(rho), which the
        # ball residual is, correctly rounded; no 2x2 solve, whose det would be a second one
        lam_max = 0.5 + math.sqrt(-qubit_core._ball_residual(p.p1, p.p2, p.p3, 0.0))
        report["density_eigenvalues"] = [report["ball_residual"] / lam_max, lam_max]
    if qubit_core._violation(p, suprematism_geometry.CUBE_SLACK, ball=False) is None:
        report["area_sum"] = suprematism_geometry.area_sum(p)
        report["chord_lengths"] = list(suprematism_geometry.triangle_picture(p).side_lengths)
    return report


def cmd_check(doc, args, tol: float) -> str:
    states = _physical_states(doc, args, tol)
    if isinstance(states, ObservableProbRep):
        return _dump_json({
            "a": states.a,
            "b": states.b,
            "P_a": _triple_report(states.p_a, tol),
            "P_b": _triple_report(states.p_b, tol),
        })
    return _dump_json(_triple_report(states, tol))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprob",
        description="Probability representation of qubit states and observables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, dest: str = "outfile", metavar: str = "FILE",
               out_help: str = "output file (default stdout)"):
        p.add_argument("--in", dest="infile", default="-", metavar="FILE",
                       help="input file (default stdin)")
        p.add_argument("--out", dest=dest, default="-", metavar=metavar, help=out_help)

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
    add_io(figs, "outdir", "DIR", "output directory")
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
    """Read, check QPROB_TOL, run the handler, write its text to --out (figures: to stdout)."""
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        doc = _load_json(args.infile)
        text = _HANDLERS[args.command](doc, args, _tolerance())
        _write_text(getattr(args, "outfile", "-"), text)
        return EXIT_OK
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
