"""Spans and counts around qprob's public functions, installed from outside the package.

The layers are qprob's modules. Every public module-level function of a layer
and every public method of its classes is replaced, in every qprob namespace
that holds it, by a wrapper that records a span (document, span id, parent
span id, name, start, end, raised) and adds to per-function counters. Self
time is a span's duration minus the time its child spans cover. Counters are
kept for every call; span records are kept in memory up to a cap and written
out with the counters when the run ends.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time

LAYERS = (
    "matrix_oracle",
    "qubit_core",
    "observable_map",
    "tomography_channels",
    "evolution",
    "suprematism_geometry",
    "figures",
)

# Array converters called several times per trajectory sample; wrapping them
# would cost more than the work they do, so their time counts as their caller's.
UNWRAPPED = {"qubit_core.ProbTriple.as_array", "qubit_core.ProbTriple.from_array"}

# Functions whose first argument is a matrix: distinct arguments are counted.
KEYED = ("tomography_channels.rotation_from_unitary", "evolution.build_kinetic")

SPAN_CAP = 20000


def _matrix_key(value) -> str:
    data = value.tobytes() if hasattr(value, "tobytes") else repr(value).encode()
    return hashlib.blake2b(data, digest_size=12).hexdigest()


class Tracer:
    """Wrappers for the imported qprob package; install() patches them in, remove() restores."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s, raised]
        self.layer_failed = {layer: 0 for layer in LAYERS}
        self.keys = {name: set() for name in KEYED}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.doc = 0
        self._next_id = 0
        self._stack: list[list] = []  # [child seconds, span id, layer]
        self._patches: list[tuple] = []
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"qprob.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in vars(obj).items():
                        qualified = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(member) and not attr.startswith("_") and qualified not in UNWRAPPED:
                            self._patches.append((obj, attr, member, self._wrap(member, qualified, layer)))
        namespaces = [m for n, m in list(sys.modules.items()) if n == "qprob" or n.startswith("qprob.")]
        for namespace in namespaces:
            for name, obj in list(vars(namespace).items()):
                if id(obj) in originals:
                    self._patches.append((namespace, name, obj, originals[id(obj)]))

    def _wrap(self, fn, name: str, layer: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        keys = self.keys.get(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(_matrix_key(args[0]))
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id, layer]
            stack.append(frame)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if raised:
                    stats[3] += 1
                    if parent is None or parent[2] != layer:
                        self.layer_failed[layer] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((self.doc, span_id, None if parent is None else parent[1], name, start, end, raised))
                else:
                    self.dropped_spans += 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def note_failure(self, layer: str) -> None:
        """Count an output of the layer that the benchmark's checks rejected."""
        self.layer_failed[layer] += 1

    def summary(self) -> dict:
        return {
            "functions": {name: s for name, s in self.stats.items() if s[0]},
            "layer_failed": self.layer_failed,
            "keys": {name: sorted(k) for name, k in self.keys.items()},
        }

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra, **self.summary(), dropped_spans=self.dropped_spans,
                   span_fields=["doc", "id", "parent", "name", "start", "end", "raised"],
                   spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def merge_summary(total: dict, part: dict) -> None:
    """Add one summary() into an accumulating one (used for traced child processes)."""
    for name, s in part["functions"].items():
        acc = total["functions"].setdefault(name, [0, 0.0, 0.0, 0])
        for i in range(4):
            acc[i] += s[i]
    for layer, n in part["layer_failed"].items():
        total["layer_failed"][layer] = total["layer_failed"].get(layer, 0) + n
    for name, k in part["keys"].items():
        total["keys"].setdefault(name, set()).update(k)
