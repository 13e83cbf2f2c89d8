"""Outside-in tracer for one orlipde CLI run.

The tracer wraps functions of each package module from outside the package;
nothing under ``src/`` is edited.  A module that bound a function with
``from .x import f`` holds its own reference, so every such alias is rebound
too; otherwise calls through it would go unseen and the counters would read
0.  Methods are patched on their class.

Spans (name, start, end, parent) are kept in memory and written as JSON when
the run ends.  A span's self time is its duration minus the durations of its
child spans; a layer's self time is the sum over its spans.  Plain
N-function evaluations and numpy FFTs are counted but not spanned: they are
the most frequent calls of the run and a span each would distort it.

A name listed below that the package no longer has is skipped and reported
in ``missing``, so a refactor shows as a counter that reads 0 rather than as
a crash.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "config", "young", "space", "grid", "kernels", "operators", "parametrix")

# (module, function or Class.method, span name); the span name's first
# component is the layer
SPANNED = (
    ("cli", "run_config", "cli.run_config"),
    ("config", "load_config", "config.load_config"),
    ("config", "build_young", "config.build_young"),
    ("config", "build_operator", "config.build_operator"),
    ("config", "build_field", "config.build_field"),
    ("config", "build_kernel", "config.build_kernel"),
    ("young", "YoungFunction.inverse", "young.inverse"),
    ("young", "boyd_indices", "young.boyd_indices"),
    ("young", "check_delta2", "young.check_delta2"),
    ("space", "modular", "space.modular"),
    ("space", "luxemburg_norm", "space.luxemburg_norm"),
    ("space", "orlicz_norm", "space.orlicz_norm"),
    ("space", "dual_norm_lower_bound", "space.dual_norm_lower_bound"),
    ("space", "characteristic_norm_value", "space.characteristic_norm_value"),
    ("space", "inequality_suite", "space.inequality_suite"),
    ("space", "shift_modulus", "space.shift_modulus"),
    ("space", "mollify", "space.mollify"),
    ("space", "l1_norm", "space.l1_norm"),
    ("space", "pairing", "space.pairing"),
    ("grid", "convolve", "grid.convolve"),
    ("grid", "kernel_convolve", "grid.kernel_convolve"),
    ("grid", "kernel_convolve_direct", "grid.kernel_convolve_direct"),
    ("grid", "shift", "grid.shift"),
    ("kernels", "fundamental_solution", "kernels.fundamental_solution"),
    ("kernels", "potential", "kernels.potential"),
    ("kernels", "singular_potential", "kernels.singular_potential"),
    ("kernels", "FundamentalSolution.cell_average", "kernels.cell_average"),
    ("kernels", "_calibrate_local_constants", "kernels.calibration"),
    ("operators", "diff", "operators.diff"),
    ("operators", "sobolev_norms", "operators.sobolev_norms"),
    ("operators", "EllipticOperator.apply", "operators.apply"),
    ("operators", "ellipticity_check", "operators.ellipticity_check"),
    ("operators", "freeze_leading", "operators.freeze_leading"),
    ("parametrix", "contraction_profile", "parametrix.contraction_profile"),
    ("parametrix", "ParametrixOperator.__init__", "parametrix.operator_init"),
    ("parametrix", "ParametrixOperator.solve", "parametrix.solve"),
    ("parametrix", "ParametrixOperator.remainder", "parametrix.remainder"),
    ("parametrix", "ParametrixOperator.potential_channel", "parametrix.potential_channel"),
    ("parametrix", "ParametrixOperator.solution_error", "parametrix.solution_error"),
)

# ratios of two counters; like the counters they repeat exactly for one seed
RATIOS_OF_COUNTS = ("space.passes_per_gauge", "grid.ffts_per_convolve",
                    "kernels.kernel_array_hit_ratio", "parametrix.channel_evals_per_iteration")
CONVOLVE_SPANS = ("grid.convolve", "grid.kernel_convolve", "grid.kernel_convolve_direct")
FFT_FUNCTIONS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn",
                 "fft2", "ifft2", "rfft2", "irfft2", "hfft", "ihfft")


def exact_metrics(per_layer):
    """Names of the per-layer metrics that must repeat exactly from run to run."""
    return [m["name"] for m in per_layer
            if m["unit"] in ("count", "bytes") or m["name"] in RATIOS_OF_COUNTS]


class Tracer:
    """Spans and counters of one run; ``install`` patches the package."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start ns, end ns, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.missing = []
        self.import_sympy_s = 0.0
        self._installed = False
        self._importing_sympy = False
        # ids of conjugate N-functions and of kernel arrays already handed
        # out; the objects are kept alive so their ids stay unique
        self._conjugates = {}
        self._kernel_arrays = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    # -- patching ----------------------------------------------------------

    def watch_imports(self):
        """Time the first import of sympy, whenever and from wherever it happens."""
        real_import = builtins.__import__

        def hooked(name, globals=None, locals=None, fromlist=(), level=0):
            if (
                level == 0
                and not self._importing_sympy
                and name.partition(".")[0] == "sympy"
                and "sympy" not in sys.modules
            ):
                self._importing_sympy = True
                t0 = time.perf_counter()
                try:
                    return real_import(name, globals, locals, fromlist, level)
                finally:
                    self.import_sympy_s += time.perf_counter() - t0
                    self._importing_sympy = False
                    if self._installed and "sympy" in sys.modules:
                        self._patch_sympy()
            return real_import(name, globals, locals, fromlist, level)

        builtins.__import__ = hooked

    def install(self):
        """Wrap every traced name; call after ``orlipde.cli`` is imported."""
        modules = {}
        for short in {m for m, _, _ in SPANNED}:
            try:
                modules[short] = importlib.import_module(f"orlipde.{short}")
            except ImportError:
                self.missing.append(f"orlipde.{short}")
        for short, path, name in SPANNED:
            if short in modules:
                self._patch(modules[short], path, lambda fn, name=name: self._spanned(name, fn))
        young = modules.get("young")
        if young is not None:
            self._patch(young, "complementary", self._wrap_complementary)
            self._patch(young, "YoungFunction.__call__",
                        lambda fn: self._wrap_young(fn, "young.eval_calls"))
            self._patch(young, "YoungFunction.density",
                        lambda fn: self._wrap_young(fn, "young.density_calls"))
        kernels = modules.get("kernels")
        if kernels is not None:
            self._patch(kernels, "FundamentalSolution.kernel_array", self._wrap_kernel_array)
        import numpy.fft

        convolve_ids = {self._name_id(n) for n in CONVOLVE_SPANS}
        for fname in FFT_FUNCTIONS:
            fn = getattr(numpy.fft, fname, None)
            if fn is not None:
                setattr(numpy.fft, fname, self._wrap_fft(fn, convolve_ids))
        self._installed = True
        if "sympy" in sys.modules:
            self._patch_sympy()

    def _patch(self, module, path, make_wrapper):
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        wrapper = make_wrapper(original)
        if outer:
            setattr(owner, attr, wrapper)
            return
        # rebind the function under every name a package module holds it by
        for modname, mod in list(sys.modules.items()):
            if modname == "orlipde" or modname.startswith("orlipde."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _patch_sympy(self):
        sympy = sys.modules["sympy"]
        counts = self.counts
        lambdify = self._spanned("kernels.compile", sympy.lambdify)

        @functools.wraps(sympy.lambdify)
        def counted_lambdify(*args, **kwargs):
            counts["kernels.compiles"] += 1
            return lambdify(*args, **kwargs)

        sympy.lambdify = counted_lambdify
        sympy.diff = self._spanned("kernels.compile", sympy.diff)

    def _wrap_complementary(self, fn):
        spanned = self._spanned("young.conjugate", fn)
        conjugates = self._conjugates

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = spanned(*args, **kwargs)
            conjugates[id(out)] = out
            return out

        return wrapper

    def _wrap_young(self, fn, counter):
        spanned = self._spanned("young.conjugate", fn)
        conjugates, counts = self._conjugates, self.counts

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if id(obj) in conjugates:
                return spanned(obj, *args, **kwargs)
            counts[counter] += 1
            return fn(obj, *args, **kwargs)

        return wrapper

    def _wrap_kernel_array(self, fn):
        spanned = self._spanned("kernels.kernel_array", fn)
        seen, counts = self._kernel_arrays, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = spanned(*args, **kwargs)
            counts["kernels.kernel_array_calls"] += 1
            if id(out) in seen:
                counts["kernels.kernel_array_hits"] += 1
            else:
                seen[id(out)] = out
            return out

        return wrapper

    def _wrap_fft(self, fn, convolve_ids):
        import numpy as np

        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            counts["grid.ffts"] += 1
            counts["grid.fft_bytes_computed"] += np.asarray(a).nbytes + out.nbytes
            if stack and spans[stack[-1]][0] in convolve_ids:
                counts["grid.ffts_in_convolve"] += 1
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON: name table plus [name id, start ns, end ns, parent]."""
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": dict(self.counts),
                 "missing": self.missing},
                fh,
                separators=(",", ":"),
            )

    def layer_metrics(self, run_s, import_s, iterations):
        """Per-layer metrics of the finished run, keyed by their benchmark names."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        ids = self._name_ids
        layer_self = dict.fromkeys(LAYERS, 0)
        name_self = Counter()
        for i, s in enumerate(spans):
            self_ns = dur[i] - child[i]
            name = self.names[s[0]]
            layer_self[name.partition(".")[0]] += self_ns
            name_self[name] += self_ns

        def select(*names):
            return {ids[n] for n in names if n in ids}

        def has_ancestor(i, sel):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in sel:
                    return True
                p = spans[p][3]
            return False

        def calls(*names):
            sel = select(*names)
            return sum(1 for s in spans if s[0] in sel)

        def inclusive_s(*names):
            # outermost spans only, so nested calls are not counted twice
            sel = select(*names)
            return sum(dur[i] for i, s in enumerate(spans)
                       if s[0] in sel and not has_ancestor(i, sel)) / 1e9

        def calls_within(names, ancestors):
            sel, anc = select(*names), select(*ancestors)
            return sum(1 for i, s in enumerate(spans) if s[0] in sel and has_ancestor(i, anc))

        def ratio(a, b):
            return a / b if b else 0.0

        gauges = calls("space.luxemburg_norm")
        modulars = calls("space.modular")
        convolves = calls(*CONVOLVE_SPANS)
        solve_s = inclusive_s("parametrix.solve")
        c = self.counts
        m = {
            "cli.import_s": import_s,
            "cli.import_sympy_s": self.import_sympy_s,
            "config.build_s": inclusive_s("config.load_config", "config.build_young",
                                          "config.build_operator", "config.build_field",
                                          "config.build_kernel"),
            "young.conjugate_calls": calls("young.conjugate"),
            "young.conjugate_self_s": name_self["young.conjugate"] / 1e9,
            "young.inverse_calls": calls("young.inverse"),
            "young.inverse_s": inclusive_s("young.inverse"),
            "young.eval_calls": c["young.eval_calls"],
            "space.gauge_calls": gauges,
            "space.gauge_s": inclusive_s("space.luxemburg_norm"),
            "space.modular_calls": modulars,
            "space.modular_s": inclusive_s("space.modular"),
            "space.passes_per_gauge": ratio(modulars, gauges),
            "space.amemiya_s": inclusive_s("space.orlicz_norm"),
            "space.dual_bound_s": inclusive_s("space.dual_norm_lower_bound"),
            "grid.convolve_calls": convolves,
            "grid.convolve_s": inclusive_s(*CONVOLVE_SPANS),
            "grid.ffts": c["grid.ffts"],
            "grid.ffts_per_convolve": ratio(c["grid.ffts_in_convolve"], convolves),
            "grid.fft_bytes_computed": c["grid.fft_bytes_computed"],
            "kernels.builds": calls("kernels.fundamental_solution"),
            "kernels.compiles": c["kernels.compiles"],
            "kernels.compile_s": inclusive_s("kernels.compile"),
            "kernels.sample_s": (name_self["kernels.kernel_array"]
                                 + name_self["kernels.cell_average"]) / 1e9,
            "kernels.kernel_array_hit_ratio": ratio(c["kernels.kernel_array_hits"],
                                                    c["kernels.kernel_array_calls"]),
            "kernels.calibration_s": inclusive_s("kernels.calibration"),
            "kernels.potential_calls": calls("kernels.potential", "kernels.singular_potential"),
            "kernels.potential_s": inclusive_s("kernels.potential", "kernels.singular_potential"),
            "operators.diff_calls": calls("operators.diff"),
            "operators.diff_s": inclusive_s("operators.diff"),
            "operators.sobolev_norms_s": inclusive_s("operators.sobolev_norms"),
            "parametrix.profile_s": inclusive_s("parametrix.contraction_profile"),
            "parametrix.operator_builds": calls("parametrix.operator_init"),
            "parametrix.solve_s": solve_s,
            "parametrix.iterations": iterations,
            "parametrix.s_per_iteration": ratio(solve_s, iterations),
            "parametrix.channel_evals": calls("parametrix.potential_channel"),
            "parametrix.channel_evals_per_iteration": ratio(
                calls_within(("parametrix.potential_channel",), ("parametrix.solve",)),
                iterations),
            "trace.spans": len(spans),
            "trace.coverage": ratio(
                sum(v for k, v in layer_self.items() if k != "cli") / 1e9, run_s),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer] / 1e9
        return m
