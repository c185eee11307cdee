"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions listed in LAYERS with timing
wrappers, wherever a module of the package holds a reference to them: the
defining module, the package namespace and every module that imported the
name directly (`entdist.cli.apply_operation`, the imports of
`entdist.verify`, ...).  `DensityOperator` is a class, so its `__init__` is
wrapped instead, which covers construction and validation.  The CLI's
subcommand functions and the entries of `entdist.verify.SUITES` are wrapped
the same way.  `uninstall` restores every original reference.

Each wrapped call records a span (job, parent span, name, start, end) in
memory; self time is a span's duration minus that of its child spans.
`write_spans` writes them out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = {
    "linalg": ("DensityOperator", "partial_transpose", "random_density"),
    "states": ("isotropic", "fidelity"),
    "operations": (
        "apply_operation",
        "is_trace_preserving",
        "compose",
        "is_completely_positive",
        "is_ppt_operation",
        "choi_matrix",
        "verify_separable_form",
    ),
    "protocols": (
        "subspace_measurement_op",
        "factor_tracing_op",
        "reduce_dimension",
        "monte_carlo_twirl",
    ),
    "bounds": ("ef_numeric_estimate", "formation_bounds_isotropic"),
    "distillation": ("tensor_power_compile", "rate_report"),
    "serialize": ("decode_operation", "decode_trace", "dump_report"),
}
CLI_COMMANDS = ("simulate", "classify", "rates", "compile", "verify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.errors: Counter[str] = Counter()
        self.samples = 0  # Monte Carlo twirl samples requested
        self.compiled_steps = 0
        self.exact_steps = 0
        self.job = 0
        self.suites: list[str] = []
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def wrap(self, name: str, layer: str, fn: Callable, after: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((self.job, parent, name, 0.0, 0.0))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.job, parent, name, start, end)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import entdist.cli as cli
        import entdist.verify as verify
        from entdist.linalg import DensityOperator

        modules = [m for n, m in sys.modules.items() if n == "entdist" or n.startswith("entdist.")]
        for layer, names in LAYERS.items():
            module = sys.modules[f"entdist.{layer}"]
            for name in names:
                if name == "DensityOperator":
                    continue
                orig = getattr(module, name)
                wrapper = self.wrap(f"{layer}.{name}", layer, orig, self._after(name, orig))
                self._replace_everywhere(modules, orig, wrapper)
        init = DensityOperator.__init__
        DensityOperator.__init__ = self.wrap("linalg.DensityOperator", "linalg", init)
        self._restore.append(lambda: setattr(DensityOperator, "__init__", init))
        for command in CLI_COMMANDS:
            attr = f"cmd_{command}"
            orig = getattr(cli, attr)
            self._replace_everywhere(modules, orig, self.wrap(f"cli.{command}", "cli", orig))
        suites = dict(verify.SUITES)
        self.suites = list(suites)
        for name, fn in suites.items():
            verify.SUITES[name] = self.wrap(f"verify.suite.{name}", "verify", fn)
        self._restore.append(lambda: verify.SUITES.update(suites))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _replace_everywhere(self, modules: list, orig: Callable, wrapper: Callable) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._restore.append(functools.partial(setattr, module, attr, orig))

    def _after(self, name: str, fn: Callable) -> Callable | None:
        if name == "monte_carlo_twirl":
            sig = inspect.signature(fn)

            def count_samples(args: tuple, kwargs: dict, result: Any) -> None:
                self.samples += sig.bind(*args, **kwargs).arguments["samples"]

            return count_samples
        if name == "tensor_power_compile":

            def count_exact(args: tuple, kwargs: dict, result: Any) -> None:
                self.compiled_steps += len(result.steps)
                self.exact_steps += sum(s.failure_method == "exact" for s in result.steps)

            return count_exact
        return None

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, (job, parent, name, start, end) in enumerate(self.spans):
                span = {"span": sid, "parent": parent, "job": job, "name": name,
                        "start": start, "end": end}
                fh.write(json.dumps(span) + "\n")

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round calls, inclusive and self time of every wrapped name,
        plus the extra rows; absent names read zero."""
        busy: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for _, parent, name, start, end in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for sid, (_, _, name, start, end) in enumerate(self.spans):
            self_time[name] += end - start - child[sid]
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                full = f"{layer}.{name}"
                out[f"{full}.calls"] = calls[full] / rounds
                out[f"{full}.busy_s"] = busy[full] / rounds
                out[f"{full}.self_s"] = self_time[full] / rounds
            out[f"{layer}.errors"] = self.errors[layer] / rounds
        for command in CLI_COMMANDS:
            out[f"cli.{command}.busy_s"] = busy[f"cli.{command}"] / rounds
        for suite in self.suites:
            out[f"verify.suite.{suite}.busy_s"] = busy[f"verify.suite.{suite}"] / rounds
        out["protocols.monte_carlo_twirl.samples"] = self.samples / rounds
        out["distillation.tensor_power_compile.exact_frac"] = (
            self.exact_steps / self.compiled_steps if self.compiled_steps else 0.0
        )
        return out
