"""Span recording around the package's layer boundaries, from outside.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every reference to them in the other modules of the package, so
a span is recorded whenever a call crosses from one module into another
(the CLI into the bijection, the bijection into decompose, and so on).
Calls inside a module, such as the recursion of ``path_to_partition``,
stay unwrapped: they add no spans and no stack frames, so the traced
run hits the recursion limit on the same inputs as the untraced one.
Source files are not touched.

Spans live in flat arrays while the workload runs and are written out
once at the end.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from array import array
from functools import wraps

from workloads import COUNT_LONG, COUNT_UPTO

# layer -> public functions that the CLI (or a layer above) calls into it
TRACED = {
    "cli": ("main",),
    "enumerate": ("gen_large", "gen_ncl"),
    "bijection": ("path_to_partition", "partition_to_path"),
    "decompose": (
        "factor_components",
        "split_axis_l3",
        "outer_decompose",
        "restrict_partition",
        "arc_reachable",
    ),
    "structures": (
        "parse_partition",
        "validate_large",
        "validate_motzkin",
        "validate_ncl",
        "render_partition",
        "render_ascii",
    ),
    "doubling": ("double", "project"),
    "counting": (
        "motzkin32_numbers",
        "large_motzkin_numbers",
        "schroder_numbers",
        "ncl_counts",
        "verify_identities",
    ),
}
LAYERS = tuple(TRACED)

SHORT = {
    "path_to_partition": "phi",
    "partition_to_path": "phi_inv",
    "motzkin32_numbers": "m",
    "large_motzkin_numbers": "L",
    "schroder_numbers": "S",
    "ncl_counts": "f",
}

# how much work one call carries: path steps for the bijection, the
# table bound for counting; generators count one per object yielded
SIZERS = {
    "bijection.phi": lambda args: len(args[0]),
    "bijection.phi_inv": lambda args: args[0].n - 1,
    "counting.L": lambda args: args[0],
}

FIELDS = (
    ("fn", "i"),  # index into names
    ("parent", "i"),  # index of the enclosing span, -1 at the top
    ("call", "i"),  # CLI call number; spans of one call share it
    ("start", "d"),
    ("end", "d"),
    ("child", "d"),  # seconds covered by direct child spans
    ("size", "q"),
    ("ok", "b"),  # 0 when the call raised
    ("outer_fn", "b"),  # no enclosing span of the same function
    ("outer_layer", "b"),  # no enclosing span of the same layer
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "layer.function"
        self.layer_of: list[int] = []
        self.spans = {name: array(code) for name, code in FIELDS}
        self.call = 0
        self.cli_lines = 0  # lines the CLI wrote
        self._stack: list[int] = []
        self._fn_depth: list[int] = []
        self._layer_depth = [0] * len(LAYERS)
        self.entry = {}  # "layer.function" -> wrapper

    # -- recording --------------------------------------------------------

    def _open(self, fn: int) -> int:
        s = self.spans
        idx = len(s["fn"])
        layer = self.layer_of[fn]
        s["fn"].append(fn)
        s["parent"].append(self._stack[-1] if self._stack else -1)
        s["call"].append(self.call)
        s["child"].append(0.0)
        s["size"].append(0)
        s["ok"].append(0)
        s["outer_fn"].append(self._fn_depth[fn] == 0)
        s["outer_layer"].append(self._layer_depth[layer] == 0)
        s["end"].append(0.0)
        self._fn_depth[fn] += 1
        self._layer_depth[layer] += 1
        self._stack.append(idx)
        s["start"].append(time.perf_counter())
        return idx

    def _close(self, idx: int, ok: bool, size: int = 0) -> None:
        s = self.spans
        end = time.perf_counter()
        s["end"][idx] = end
        s["ok"][idx] = ok
        s["size"][idx] = size
        self._stack.pop()
        fn = s["fn"][idx]
        self._fn_depth[fn] -= 1
        self._layer_depth[self.layer_of[fn]] -= 1
        parent = s["parent"][idx]
        if parent >= 0:
            s["child"][parent] += end - s["start"][idx]

    def _wrap(self, name: str, layer: int, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self._fn_depth.append(0)
        sizer = SIZERS.get(name)

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(idx, True)
                        return
                    except BaseException:
                        self._close(idx, False)
                        raise
                    self._close(idx, True, 1)
                    yield item

            return traced_gen

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, False, sizer(args) if sizer else 0)
                raise
            self._close(idx, True, sizer(args) if sizer else 0)
            return result

        return traced

    def install(self, package: str) -> None:
        """Wrap ``TRACED`` in ``package`` and rebind every reference to
        the originals outside their home module."""
        modules = {
            layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        }
        others = [importlib.import_module(package), *modules.values()]
        for layer_idx, (layer, functions) in enumerate(TRACED.items()):
            home = modules[layer]
            for func in functions:
                original = getattr(home, func)
                name = f"{layer}.{SHORT.get(func, func)}"
                wrapper = self._wrap(name, layer_idx, original)
                self.entry[name] = wrapper
                for module in others:
                    if module is home:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """A JSON header line, then each field's raw array in order."""
        header = {
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "fields": [[name, code] for name, code in FIELDS],
            "count": len(self.spans["fn"]),
            "cli_lines": self.cli_lines,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _ in FIELDS:
                self.spans[name].tofile(fh)

    def summary(self) -> dict[str, float]:
        """Per-function and per-layer totals from the recorded spans.

        busy: time covered by a function's (or layer's) outermost spans.
        self: time in a layer's spans not covered by their child spans.
        """
        s = self.spans
        k = len(self.names)
        calls, busy, size, failed = [0] * k, [0.0] * k, [0] * k, [0] * k
        layer_calls = [0] * len(LAYERS)
        layer_busy = [0.0] * len(LAYERS)
        layer_self = [0.0] * len(LAYERS)
        index = {name: i for i, name in enumerate(self.names)}
        L = index["counting.L"]
        L_by_size: dict[int, float] = {}  # first outermost L span per table bound
        for fn, start, end, child, n, ok, outer_fn, outer_layer in zip(
            s["fn"], s["start"], s["end"], s["child"], s["size"], s["ok"],
            s["outer_fn"], s["outer_layer"],
        ):
            dur = end - start
            layer = self.layer_of[fn]
            calls[fn] += 1
            layer_calls[layer] += 1
            layer_self[layer] += dur - child
            if outer_layer:
                layer_busy[layer] += dur
            if outer_fn:
                busy[fn] += dur
                size[fn] += n
                failed[fn] += not ok
                if fn == L:
                    L_by_size.setdefault(n, dur)

        busy_of = dict(zip(self.names, busy))
        size_of = dict(zip(self.names, size))

        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = layer_calls[i]
            out[f"{layer}.busy_s"] = layer_busy[i]
            out[f"{layer}.self_s"] = layer_self[i]
        for name in ("bijection.phi", "bijection.phi_inv"):
            steps = size_of[name]
            out[f"{name}.calls"] = calls[index[name]]
            out[f"{name}.busy_s"] = busy_of[name]
            out[f"{name}.us_per_step"] = 1e6 * busy_of[name] / steps if steps else 0.0
        out["bijection.failed"] = failed[index["bijection.phi"]] + failed[index["bijection.phi_inv"]]
        for name in (
            "structures.parse_partition",
            "structures.validate_ncl",
            "structures.render_ascii",
            "structures.render_partition",
            "structures.validate_large",
            "doubling.project",
            "doubling.double",
            "counting.L",
            "counting.verify_identities",
        ):
            out[f"{name}.busy_s"] = busy_of[name]
        for name in ("enumerate.gen_large", "enumerate.gen_ncl"):
            seconds = busy_of[name]
            out[f"{name}.objects_per_s"] = size_of[name] / seconds if seconds else 0.0
        # 0 unless the workload tabulates L at both sizes
        t1, t2 = L_by_size.get(COUNT_UPTO), L_by_size.get(COUNT_LONG)
        out["counting.L.growth_exp"] = math.log2(t2 / t1) if t1 and t2 else 0.0
        out["cli.lines"] = self.cli_lines
        out["trace.spans"] = len(s["fn"])
        return out
