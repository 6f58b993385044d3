"""The four benchmark workloads: inputs from a seed, timed qprob calls, untimed checks.

Each workload is run in whole rounds. A round is a list of documents built
from (seed, round index) alone; every document runs a fixed list of
operations. Only the calls into qprob are timed. Every output is checked
against the numpy reference route in reference.py or against an invariant of
the probability representation; a call that raises or an output that misses
its check is a failed operation, counted and not fatal.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import qprob
import reference as ref

clock = time.perf_counter
# Held before any tracer is installed: the checks' second render stays untraced.
render_svg_untraced = qprob.render_svg


class CallFailed(Exception):
    """A timed qprob call raised; the operation that made it has failed."""


class Doc:
    """One document's timer and operation outcomes."""

    def __init__(self):
        self.seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.rejected_layers: list[str] = []  # layers whose output missed a check

    def call(self, fn, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any error escaping qprob fails the operation
            raise CallFailed(f"{type(exc).__name__}: {exc}") from exc
        finally:
            self.seconds += clock() - start

    def op(self, layer: str, body, known_fault: bool = False) -> None:
        """Run one operation; body() makes its timed calls and returns whether the checks hold."""
        self.attempted += 1
        try:
            ok = bool(body())
        except CallFailed:
            ok = False
        else:
            if not ok:
                self.rejected_layers.append(layer)
        if not ok:
            self.failed += 1
            self.unexpected += not known_fault


def close(a, b, tol: float) -> bool:
    """Same shape (or b a scalar) and every entry within tol."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (b.ndim == 0 or a.shape == b.shape) and bool(np.all(np.abs(a - b) <= tol))


def stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws, one uniform in each of n equal slices of [lo, hi], in random order."""
    return rng.permutation(lo + (hi - lo) * (np.arange(n) + rng.uniform(size=n)) / n)


def random_hermitian(rng, scale: float = 1.0) -> np.ndarray:
    d1, d2, re, im = rng.normal(scale=scale, size=4)
    return np.array([[d1, re - 1j * im], [re + 1j * im, d2]])


def separated_hermitian(rng, norm: float) -> np.ndarray:
    """Random Hermitian matrix of spectral norm `norm` with |H11 - H22| >= 0.6 ||H - (Tr H/2) I||.

    Diagonals closer than that make decode ill-conditioned at every scale
    (see the README), so the seeded documents keep them apart.
    """
    n = rng.normal(size=3)
    while abs(n[2]) < 0.3 * np.linalg.norm(n):
        n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    h = rng.uniform(-1.0, 1.0) * ref.I2 + sum(c * s for c, s in zip(n, ref.PAULI))
    return h * (norm / ref.spectral_norm(h))


def random_unitary(rng) -> np.ndarray:
    return ref.expm_i(random_hermitian(rng, 2.0), 1.0)


def ball_triple(rng, pure: bool = False) -> qprob.ProbTriple:
    v = rng.normal(size=3)
    radius = 0.5 if pure else 0.5 * rng.uniform() ** (1.0 / 3.0)
    p = 0.5 + radius * v / np.linalg.norm(v)
    return qprob.ProbTriple(*(float(c) for c in p))


def residuals(probs) -> np.ndarray:
    d = np.asarray(probs) - 0.5
    return 0.25 - np.sum(d * d, axis=-1)


def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {k: [float(m[i, j].real), float(m[i, j].imag)]
            for k, (i, j) in zip(("m11", "m12", "m21", "m22"), ((0, 0), (0, 1), (1, 0), (1, 1)))}


def triple_json(p: qprob.ProbTriple) -> dict:
    return {"p1": p.p1, "p2": p.p2, "p3": p.p3}


def trajectory_ok(times, probs, h, p0, t_end: float, steps: int) -> bool:
    """Grid, exact Heisenberg evolution and conserved purity along the samples."""
    expected = ref.triples_of(ref.heisenberg(ref.density(p0.as_array()), h, times))
    return (close(times, np.linspace(0.0, t_end, steps + 1), 1e-12 * t_end)
            and close(probs, expected, 1e-9)
            and close(residuals(probs), ref.ball_residual(p0.as_array()), 1e-9))


class Workload:
    name = ""
    docs_per_round = 1
    # doc_tail_ms: the highest of p75, p90, p99, p99.9 with at least ten
    # documents beyond it in every 25-second reference run, unless it was
    # unsteady (see the README).
    tail_percentile = 90.0
    # Run in a fresh interpreter to time set-up: import qprob and warm it up.
    setup_code = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.svg_bytes = 0  # SVG bytes rendered in traced documents

    def rng(self, round_index: int) -> np.random.Generator:
        """Inputs of round 0, 1, ...; round -1 is the untimed warm-up."""
        return np.random.default_rng([self.seed, round_index + 1, sum(map(ord, self.name))])

    def make_round(self, round_index: int) -> list:
        raise NotImplementedError

    def run(self, doc, traced: bool) -> Doc:
        raise NotImplementedError


class Trajectory(Workload):
    name = "trajectory"
    docs_per_round = 4
    setup_code = (
        "import qprob\n"
        "s = qprob.build_kinetic([[1.0, 0.2], [0.2, -0.5]], 0.0)\n"
        "qprob.sample_trajectory(s, qprob.ProbTriple(0.5, 0.5, 1.0), 1.0, 10)\n"
        "qprob.evolve_observable([[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]], 1.0, 0.5)\n"
    )

    def make_round(self, round_index):
        rng = self.rng(round_index)
        steps = np.rint(10.0 ** stratified(rng, self.docs_per_round, 3.0, math.log10(4000.0))).astype(int)
        docs = []
        for k in range(self.docs_per_round):
            a0 = random_hermitian(rng)
            docs.append({
                "h": random_hermitian(rng),
                "p0": ball_triple(rng, pure=(k == 0)),
                "t_end": float(rng.uniform(1.0, 10.0)),
                "steps": int(steps[k]),
                "a0": a0,
                "x": float(abs(np.linalg.eigvalsh(a0)[0]) + rng.uniform(0.5, 2.0)),
                "t": float(rng.uniform(0.0, 5.0)),
            })
        return docs

    def run(self, d, traced):
        doc = Doc()

        def sample():
            system = doc.call(qprob.build_kinetic, d["h"], 0.0)
            traj = doc.call(qprob.sample_trajectory, system, d["p0"], d["t_end"], d["steps"])
            return trajectory_ok(traj.times, traj.probs, d["h"], d["p0"], d["t_end"], d["steps"])

        def observable():
            a_t = doc.call(qprob.evolve_observable, d["a0"], d["h"], d["x"], d["t"])
            scale = max(1.0, ref.spectral_norm(d["a0"]))
            return (close(a_t, ref.heisenberg(d["a0"], d["h"], d["t"]), 1e-9 * scale)
                    and close(np.linalg.eigvalsh(a_t), np.linalg.eigvalsh(d["a0"]), 1e-9 * scale)
                    and close(np.trace(a_t).real, np.trace(d["a0"]).real, 1e-12 * scale))

        doc.op("evolution", sample)
        doc.op("evolution", observable)
        return doc


def _rotation(axis: int, angle: float) -> np.ndarray:
    return math.cos(angle / 2) * ref.I2 - 1j * math.sin(angle / 2) * ref.PAULI[axis]


X, Y, Z = ref.PAULI
GATE_UNITARIES = {
    "X": X, "Y": Y, "Z": Z,
    "H": (X + Z) / math.sqrt(2.0),
    "S": np.diag([1.0, 1.0j]),
    "T": np.diag([1.0, np.exp(0.25j * math.pi)]),
    "Rx(pi/3)": _rotation(0, math.pi / 3),
    "Ry(pi/4)": _rotation(1, math.pi / 4),
    "Rz(2pi/5)": _rotation(2, 2 * math.pi / 5),
}
GATE_CHANNELS = {
    "depolarize(0.3)": ((0.775, ref.I2), (0.075, X), (0.075, Y), (0.075, Z)),
    "bit-flip(0.1)": ((0.9, ref.I2), (0.1, X)),
    "dephase(0.2)": ((0.8, ref.I2), (0.2, Z)),
}
GATE_HAMILTONIANS = (X, Z, (X + Z) / math.sqrt(2.0), 0.5 * Y + 0.3 * ref.I2)
GATE_NAMES = tuple(GATE_UNITARIES) + tuple(GATE_CHANNELS)


class Gates(Workload):
    name = "gates"
    docs_per_round = 20
    setup_code = (
        "import qprob\n"
        "x = [[0.0, 1.0], [1.0, 0.0]]\n"
        "z = [[1.0, 0.0], [0.0, -1.0]]\n"
        "m = qprob.rotation_from_unitary(x).then(qprob.channel_map(qprob.ChannelSpec(((0.5, x), (0.5, z)))))\n"
        "p = m.apply(qprob.ProbTriple(0.5, 0.5, 1.0))\n"
        "qprob.evolve(qprob.build_kinetic(z, 0.0), p, 1.0)\n"
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.specs = {name: qprob.ChannelSpec(terms) for name, terms in GATE_CHANNELS.items()}

    def make_round(self, round_index):
        rng = self.rng(round_index)
        lengths = rng.permutation(np.repeat(np.arange(6, 11), self.docs_per_round // 5))
        return [{
            "p": ball_triple(rng),
            "gates": [GATE_NAMES[i] for i in rng.integers(len(GATE_NAMES), size=n)],
            "h": GATE_HAMILTONIANS[rng.integers(len(GATE_HAMILTONIANS))],
            "times": rng.uniform(0.0, 2.0 * math.pi, size=3),
        } for n in lengths]

    def run(self, d, traced):
        doc = Doc()
        out = []

        def circuit():
            maps = []
            for gate in d["gates"]:
                if gate in GATE_UNITARIES:
                    maps.append(doc.call(qprob.rotation_from_unitary, GATE_UNITARIES[gate]))
                else:
                    maps.append(doc.call(qprob.channel_map, self.specs[gate]))
            total = maps[0]
            for m in maps[1:]:
                total = doc.call(total.then, m)
            p_out = doc.call(total.apply, d["p"])
            out.append(p_out)
            rho = ref.density(d["p"].as_array())
            for gate in d["gates"]:
                if gate in GATE_UNITARIES:
                    rho = ref.conjugate(GATE_UNITARIES[gate], rho)
                else:
                    rho = ref.mixture(GATE_CHANNELS[gate], rho)
            unitary_maps = [m for m, g in zip(maps, d["gates"]) if g in GATE_UNITARIES]
            return (close(p_out.as_array(), ref.triples_of(rho), 1e-10)
                    and ref.ball_residual(p_out.as_array()) >= -1e-10
                    and all(ref.rotation_parts_orthogonal(m.L, 1e-10) for m in unitary_maps))

        def evolution():
            if not out:
                return False
            system = doc.call(qprob.build_kinetic, d["h"], 0.0)
            probs = np.array([doc.call(qprob.evolve, system, out[0], float(t)).as_array() for t in d["times"]])
            p0 = out[0].as_array()
            expected = ref.triples_of(ref.heisenberg(ref.density(p0), d["h"], d["times"]))
            return close(probs, expected, 1e-9) and close(residuals(probs), ref.ball_residual(p0), 1e-9)

        doc.op("tomography_channels", circuit)
        doc.op("evolution", evolution)
        return doc


# Seeded documents draw ||H|| log-uniform over these decades, where the round
# trip holds; the scale sweep covers the rest.
OBSERVABLE_LOG_NORMS = (-1.0, 3.0)

# Seed-independent matrices for the scale sweep: two fixed shapes at every
# decade of spectral norm from 1e-9 to 1e9. decode(encode(H)) misses H by
# more than 1e-9 ||H|| at many of these decades outside the seeded range
# (default_shifts ignores the scale of H and decode's guards are absolute);
# those round trips are the known fault this workload counts as failed, the
# same number in every round. Both shapes keep every decade's error at least
# 0.3 decades away from the 1e-9 threshold.
_SWEEP_SHAPES = (
    np.array([[0.6, 0.3 - 0.4j], [0.3 + 0.4j, -0.2]]),
    np.array([[1.0, 0.4 - 0.1j], [0.4 + 0.1j, 0.3]]),
)
SWEEP = tuple((k, shape * (10.0 ** k / ref.spectral_norm(shape))) for k in range(-9, 10) for shape in _SWEEP_SHAPES)


class Observables(Workload):
    name = "observables"
    docs_per_round = 40
    tail_percentile = 99.0
    setup_code = (
        "import qprob\n"
        "h = [[1.0, 0.5], [0.5, -1.0]]\n"
        "rep = qprob.encode_observable(h)\n"
        "qprob.decode_observable(rep)\n"
        "p = qprob.ProbTriple(0.5, 0.5, 1.0)\n"
        "d = qprob.Direction(1.0, 2.0)\n"
        "qprob.observable_tomogram(h, d, rep.a)\n"
        "qprob.state_tomogram(p, d)\n"
        "qprob.channel_map(qprob.ChannelSpec(((0.5, [[0.0, 1.0], [1.0, 0.0]]), (0.5, [[1.0, 0.0], [0.0, -1.0]]))))\n"
        "qprob.eigenvalues_hermitian(qprob.density_from_probs(p))\n"
        "qprob.area_sum(p)\n"
        "qprob.render_svg([qprob.triangle_picture(p)], with_squares=True)\n"
    )

    def make_round(self, round_index):
        rng = self.rng(round_index)
        norms = 10.0 ** stratified(rng, self.docs_per_round, *OBSERVABLE_LOG_NORMS)
        docs = [{
            "h": separated_hermitian(rng, norm),
            "p": ball_triple(rng),
            "theta": float(rng.uniform(0.0, math.pi)),
            "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
            "u1": random_unitary(rng),
            "u2": random_unitary(rng),
            "w": float(rng.uniform(0.1, 0.9)),
        } for norm in norms]
        docs.append({"sweep": SWEEP})
        return docs

    @staticmethod
    def round_trip(doc: Doc, h, known_fault: bool = False) -> None:
        def body():
            rep = doc.call(qprob.encode_observable, h)
            decoded = doc.call(qprob.decode_observable, rep)
            return (close(rep.p_a.as_array(), ref.triples_of(ref.embed(h, rep.a)), 1e-12)
                    and close(rep.p_b.as_array(), ref.triples_of(ref.embed(h, rep.b)), 1e-12)
                    and close(decoded, h, 1e-9 * ref.spectral_norm(h)))

        doc.op("observable_map", body, known_fault)

    def run(self, d, traced):
        doc = Doc()
        if "sweep" in d:
            low, high = OBSERVABLE_LOG_NORMS
            for k, h in d["sweep"]:
                self.round_trip(doc, h, known_fault=not low <= k <= high)
            return doc
        h, p = d["h"], d["p"]
        n = ref.unit_vector(d["theta"], d["phi"])
        rho = ref.density(p.as_array())
        self.round_trip(doc, h)
        picture = []

        def observable_tomogram():
            direction = doc.call(qprob.Direction, d["theta"], d["phi"])
            x = max(doc.call(qprob.default_shifts, h))
            w_plus, w_minus = doc.call(qprob.observable_tomogram, h, direction, x)
            return abs(w_plus - ref.tomogram(ref.embed(h, x), n)) <= 1e-12 and abs(w_plus + w_minus - 1.0) <= 1e-15

        def state_tomogram():
            direction = doc.call(qprob.Direction, d["theta"], d["phi"])
            w_plus, w_minus = doc.call(qprob.state_tomogram, p, direction)
            return abs(w_plus - ref.tomogram(rho, n)) <= 1e-12 and abs(w_plus + w_minus - 1.0) <= 1e-15

        def channel():
            terms = ((d["w"], d["u1"]), (1.0 - d["w"], d["u2"]))
            mapping = doc.call(qprob.channel_map, doc.call(qprob.ChannelSpec, terms))
            out = doc.call(mapping.apply, p).as_array()
            return close(out, ref.triples_of(ref.mixture(terms, rho)), 1e-10) and ref.ball_residual(out) >= -1e-10

        def report():
            density = doc.call(qprob.density_from_probs, p)
            eigenvalues = doc.call(qprob.eigenvalues_hermitian, density)
            area = doc.call(qprob.area_sum, p)
            pic = doc.call(qprob.triangle_picture, p)
            picture.append(pic)
            vertices, lengths, ref_area = ref.chord_picture(p.as_array())
            return (close(eigenvalues, np.linalg.eigvalsh(rho), 1e-12)
                    and abs(area - ref_area) <= 1e-12 and abs(pic.total_area - ref_area) <= 1e-12
                    and close(pic.vertices, vertices, 1e-12) and close(pic.side_lengths, lengths, 1e-12))

        def render():
            if not picture:
                return False
            svg = doc.call(qprob.render_svg, picture, with_squares=True)
            if traced:
                self.svg_bytes += len(svg.encode())
            return ref.svg_ok(svg) and render_svg_untraced(picture, with_squares=True) == svg

        doc.op("observable_map", observable_tomogram)
        doc.op("tomography_channels", state_tomogram)
        doc.op("tomography_channels", channel)
        doc.op("suprematism_geometry", report)
        doc.op("figures", render)
        return doc


class Cli(Workload):
    """One qprob process per document, started and waited for one at a time."""

    name = "cli"
    docs_per_round = 8
    tail_percentile = 75.0
    setup_code = "import qprob.cli\nqprob.cli.build_parser()\n"
    STEPS = 200  # grid intervals of the evolve documents

    def __init__(self, seed, root: str, scratch: str, env: dict):
        super().__init__(seed)
        self.root = root
        self.scratch = scratch
        self.env = env
        self.peak_rss_kib = 0
        self.output_bytes = 0
        self.child_summaries: list[str] = []

    def make_round(self, round_index):
        rng = self.rng(round_index)
        h = separated_hermitian(rng, 10.0 ** rng.uniform(-0.5, 0.5))
        a = random_hermitian(rng)
        x = float(abs(np.linalg.eigvalsh(a)[0]) + rng.uniform(0.5, 2.0))
        theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi))
        p = ball_triple(rng)
        evolve_csv = {"H": random_hermitian(rng), "p0": ball_triple(rng), "t_end": float(rng.uniform(1.0, 10.0))}
        evolve_json = {"H": random_hermitian(rng), "p0": ball_triple(rng), "t_end": float(rng.uniform(1.0, 10.0))}
        angles = ["--theta", repr(theta), "--phi", repr(phi)]
        shared = {}  # decode reads what encode printed
        return [
            {"kind": "encode", "h": h, "shared": shared},
            {"kind": "decode", "h": h, "shared": shared},
            {"kind": "tomogram-state", "p": p, "n": ref.unit_vector(theta, phi), "angles": angles},
            {"kind": "tomogram-observable", "a": a, "x": x, "n": ref.unit_vector(theta, phi), "angles": angles},
            {"kind": "evolve-csv", **evolve_csv},
            {"kind": "evolve-json", **evolve_json},
            {"kind": "check", "p": ball_triple(rng)},
            {"kind": "figures", "p": p},
        ]

    def args_and_input(self, d):
        kind = d["kind"]
        if kind == "encode":
            return ["encode"], json.dumps(matrix_json(d["h"]))
        if kind == "decode":
            return ["decode"], d["shared"].get("encoded", "")
        if kind == "tomogram-state":
            return ["tomogram", *d["angles"]], json.dumps(triple_json(d["p"]))
        if kind == "tomogram-observable":
            return ["tomogram", *d["angles"], "--x", repr(d["x"])], json.dumps(matrix_json(d["a"]))
        if kind in ("evolve-csv", "evolve-json"):
            fmt = kind.split("-")[1]
            text = json.dumps({"H": matrix_json(d["H"]), "p0": triple_json(d["p0"])})
            return ["evolve", "--t-end", repr(d["t_end"]), "--steps", str(self.STEPS), "--format", fmt], text
        if kind == "check":
            return ["check"], json.dumps(triple_json(d["p"]))
        return ["figures", "--out", os.path.join(self.scratch, "figures")], json.dumps(triple_json(d["p"]))

    def check(self, d, out: str) -> bool:
        kind = d["kind"]
        if kind == "evolve-csv":
            rows = ref.csv_rows(out, "t,p1,p2,p3")
            return trajectory_ok(rows[:, 0], rows[:, 1:], d["H"], d["p0"], d["t_end"], self.STEPS)
        doc = ref.strict_json(out)
        if kind == "encode":
            h = d["h"]
            return (close([doc["P_a"][k] for k in ("p1", "p2", "p3")], ref.triples_of(ref.embed(h, doc["a"])), 1e-12)
                    and close([doc["P_b"][k] for k in ("p1", "p2", "p3")], ref.triples_of(ref.embed(h, doc["b"])), 1e-12)
                    and doc["warnings"] == [])
        if kind == "decode":
            m = np.array([[complex(*doc["m11"]), complex(*doc["m12"])], [complex(*doc["m21"]), complex(*doc["m22"])]])
            return close(m, d["h"], 1e-9 * ref.spectral_norm(d["h"]))
        if kind == "tomogram-state":
            expected = ref.tomogram(ref.density(d["p"].as_array()), d["n"])
        elif kind == "tomogram-observable":
            expected = ref.tomogram(ref.embed(d["a"], d["x"]), d["n"])
        if kind.startswith("tomogram"):
            return abs(doc["w_plus"] - expected) <= 1e-12 and abs(doc["w_plus"] + doc["w_minus"] - 1.0) <= 1e-15
        if kind == "evolve-json":
            return trajectory_ok(np.array(doc["times"]), np.array(doc["probs"]), d["H"], d["p0"], d["t_end"], self.STEPS)
        if kind == "check":
            p = d["p"].as_array()
            _, lengths, area = ref.chord_picture(p)
            return (doc["physical"] is True
                    and close(doc["density_eigenvalues"], np.linalg.eigvalsh(ref.density(p)), 1e-12)
                    and abs(doc["area_sum"] - area) <= 1e-12 and close(doc["chord_lengths"], lengths, 1e-12))
        written = doc["written"]
        if sorted(os.path.basename(path) for path in written) != ["squares.svg", "triangle.svg"]:
            return False
        for path in written:
            with open(path, encoding="utf-8") as fh:
                if not ref.svg_ok(fh.read()):
                    return False
        return True

    def run(self, d, traced):
        doc = Doc()
        args, text = self.args_and_input(d)
        summary = os.path.join(self.scratch, f"child-{len(self.child_summaries)}.json")
        if traced:
            argv = [sys.executable, "-X", "importtime", os.path.join(self.root, "bench", "cli_child.py"), summary, *args]
        else:
            argv = [sys.executable, "-m", "qprob", *args]
        stderr_path = os.path.join(self.scratch, "stderr.txt")

        def body():
            with open(stderr_path, "wb") as err:
                start = clock()
                proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                                        env=self.env, cwd=self.root)
                try:
                    proc.stdin.write(text.encode())
                    proc.stdin.close()
                except BrokenPipeError:  # the child exited without reading; its exit code tells
                    pass
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                doc.seconds += clock() - start
            self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
            if traced:
                self.output_bytes += len(out)
                self.child_summaries.append(summary)
            if proc.returncode != 0:
                return False
            text_out = out.decode()
            if d["kind"] == "encode":
                d["shared"]["encoded"] = text_out
            try:
                ok = self.check(d, text_out)
            except (ValueError, KeyError, TypeError):
                return False
            if ok and traced and d["kind"] == "figures":
                self.svg_bytes += sum(os.path.getsize(path) for path in json.loads(text_out)["written"])
            return ok

        doc.op("cli", body)
        return doc


WORKLOADS = {w.name: w for w in (Trajectory, Gates, Observables, Cli)}
