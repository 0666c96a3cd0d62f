"""Per-layer tracing by swapping timing wrappers onto emdsteg's module attributes.

Nothing under src/ changes: while a Tracer is installed, every attribute of a
loaded ``emdsteg`` module that refers to one of the traced functions (for
example ``emdsteg.cli.embed_message`` and ``emdsteg.schemes.embed_message``)
points at a wrapper instead, and ``uninstall`` puts the originals back.

Spans keep name, start, end, parent span and op id in memory.  Functions that
run once per pixel group are only counted, so tracing stays cheap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span on every call.
SPANNED = (
    ("cli", "main"),
    ("rng", "seeded_bits"),
    ("rng", "seeded_bytes"),
    ("image", "load_pgm"),
    ("image", "save_pgm"),
    ("image", "clamp_for_scheme"),
    ("image", "bits_to_symbols"),
    ("image", "symbols_to_bits"),
    ("schemes", "make_scheme"),
    ("schemes", "embed_message"),
    ("schemes", "extract_message"),
    ("metrics", "theoretical_distortion"),
    ("metrics", "analyze_pair"),
    ("bench", "run_bench"),
    ("bound", "frontier"),
    ("bound", "distance_to_curve"),
)

# Called once per group or per bound point: counted, not spanned.
COUNTED = (
    ("schemes", "embed_group"),
    ("bound", "bound_point"),
)


# Work counts read from a span's positional arguments or result, as
# (metric, span, getter); the emdsteg callers pass these arguments positionally.
QUANTITIES = (
    ("rng.bits", "rng.seeded_bits", lambda args, result: args[1]),
    ("image.codec_bits", "image.bits_to_symbols", lambda args, result: len(args[0])),
    ("image.codec_bits", "image.symbols_to_bits", lambda args, result: args[2]),
    ("schemes.groups", "schemes.embed_message", lambda args, result: result[1]),
)


class Tracer:
    """Collects spans and counts while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "emdsteg"]
        for targets, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, fn_name in targets:
                original = getattr(sys.modules[f"emdsteg.{mod_name}"], fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        quantity = [(metric, get) for metric, span, get in QUANTITIES if span == name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            for metric, get in quantity:
                counts[metric] += get(args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """Busy time, self time and call count per span name, plus the counts.

        Busy time (``.s``) counts only the outermost of nested same-name
        spans; self time (``.self_s``) is each span's duration minus the
        durations of its direct children, which never overlap in one thread.
        """
        out: dict[str, float] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[index]
            if not self._inside_same_name(index):
                out[f"{name}.s"] += end - start
        for mod_name, fn_name in SPANNED:
            for suffix in ("s", "self_s", "calls"):
                out.setdefault(f"{mod_name}.{fn_name}.{suffix}", 0)
        for mod_name, fn_name in COUNTED:
            out.setdefault(f"{mod_name}.{fn_name}.calls", 0)
        for metric, _, _ in QUANTITIES:
            out.setdefault(metric, 0)
        out.update(self.counts)
        return dict(out)

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

