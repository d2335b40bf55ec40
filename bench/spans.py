"""Span recorders installed around mrange's public functions at run time.

Nothing under ``src/`` knows about them: :class:`Tracer` replaces each
target function by a wrapper in its own module, in every other mrange
module that imported the name, and in the package namespace, so a nested
call (``ando_X`` calling ``num_radius``) becomes a child span. A span's
self time is its duration minus the durations of its child spans. Spans
are recorded only inside a call made through :meth:`Tracer.recorded`, so
the benchmark's own checks and calibration, which also call numpy.linalg,
never count.
``numpy.linalg`` is the kernel layer: its wrappers also add up floating
point operations computed from the operand shapes (see :func:`flops`).
"""

import importlib
import sys
import time
from pathlib import Path

import numpy as np

TARGETS = {
    "numrange": ("num_radius", "radius_characterizations", "range_boundary"),
    "ando": ("ando_X", "ando_decompose", "radius_lmi", "ucp_from_e21"),
    "cpmaps": ("solve_feasibility", "stinespring", "is_cp"),
    "dilation": ("two_dilation", "nilpotent_condition", "nilpotent_dilation"),
    "toeplitz": ("fejer_riesz", "measure_from_toeplitz",
                 "block_measure_from_toeplitz", "toeplitz_psd"),
    "matrange": ("member_e21", "member_shift_ball", "member_normal",
                 "equivalence_suite", "spatial_samples", "opsys_probe"),
    "linalg": ("herm_eig", "psd_check", "pinv", "sqrt_psd", "op_norm"),
    "rng": ("SplitMix64.complex_matrix",),
    "cli": ("run", "matrix_from_json", "matrix_to_json"),
}
KERNEL = "numpy.linalg"
KERNELS = ("eigvalsh", "eigh", "svd", "lstsq", "pinv")

FLOP_FORMULAS = (
    "real flops, times 4 for complex operands, times the batch size; "
    "k = min(m, n), l = max(m, n), r = right-hand-side columns: "
    "eigvalsh 4/3 n^3; eigh 9 n^3; svd 4 l k^2 - 4/3 k^3 without vectors, "
    "14 l k^2 + 8 k^3 with thin vectors, 4 l^2 k + 8 l k^2 + 9 k^3 with full ones; "
    "lstsq 4 l k^2 - 4/3 k^3 + 2 m n r; pinv 14 l k^2 + 8 k^3 + 2 m n k"
)


def _svd_values(m, n):
    k, l = min(m, n), max(m, n)
    return 4.0 * l * k * k - 4.0 / 3.0 * k ** 3


def _svd_thin(m, n):
    k, l = min(m, n), max(m, n)
    return 14.0 * l * k * k + 8.0 * k ** 3


def _svd_full(m, n):
    k, l = min(m, n), max(m, n)
    return 4.0 * l * l * k + 8.0 * l * k * k + 9.0 * k ** 3


def flops(kernel, args, kwargs):
    """Computed floating point operations of one numpy.linalg call."""
    a = np.asarray(args[0])
    m, n = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    scale = batch * (4.0 if np.iscomplexobj(a) else 1.0)
    if kernel == "eigvalsh":
        return scale * 4.0 / 3.0 * n ** 3
    if kernel == "eigh":
        return scale * 9.0 * n ** 3
    if kernel == "svd":
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if not vectors:
            return scale * _svd_values(m, n)
        return scale * (_svd_full(m, n) if full else _svd_thin(m, n))
    if kernel == "lstsq":
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        r = 1 if b.ndim == 1 else b.shape[1]
        return scale * (_svd_values(m, n) + 2.0 * m * n * r)
    if kernel == "pinv":
        return scale * (_svd_thin(m, n) + 2.0 * m * n * min(m, n))
    raise KeyError(kernel)


def _ando_x(tracer, out):
    tracer.add("ando.ando_X.iterations", out[1])


def _feasibility(tracer, out):
    kind = type(out).__name__
    if kind == "Feasible":
        tracer.add("cpmaps.solve_feasibility.feasible", 1)
    elif kind == "Undetermined":
        tracer.add("cpmaps.solve_feasibility.undetermined", 1)
    if hasattr(out, "residual"):
        key = "cpmaps.solve_feasibility.residual_max"
        tracer.counts[key] = max(tracer.counts[key], float(out.residual))


def _unverified(name):
    def hook(tracer, out):
        tracer.add(f"matrange.{name}.unverified", int(bool(out.unverified)))
    return hook


RESULT_HOOKS = {
    "ando.ando_X": _ando_x,
    "cpmaps.solve_feasibility": _feasibility,
    **{f"matrange.{f}": _unverified(f)
       for f in ("member_e21", "member_shift_ball", "member_normal")},
}

RESULT_COUNTERS = ("ando.ando_X.iterations", "cpmaps.solve_feasibility.feasible",
                   "cpmaps.solve_feasibility.undetermined",
                   "cpmaps.solve_feasibility.residual_max",
                   "matrange.member_e21.unverified",
                   "matrange.member_shift_ball.unverified",
                   "matrange.member_normal.unverified")


def span_names():
    names = [f"{layer}.{f.split('.')[-1]}" for layer, fs in TARGETS.items() for f in fs]
    return names + [f"{KERNEL}.{k}" for k in KERNELS]


def layers():
    return list(TARGETS) + [KERNEL]


class Tracer:
    """Per-function call counts and self times, per-layer escaped exceptions,
    kernel flops and counters read from return values."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.failed = dict.fromkeys(layers(), 0)
        self.counts = dict.fromkeys(RESULT_COUNTERS, 0)
        self.counts.update({f"{KERNEL}.{k}.flops_computed": 0.0 for k in KERNELS})
        self.active = False
        self._stack = []
        self._patches = []

    def add(self, key, value):
        self.counts[key] += value

    def recorded(self, call):
        """``call`` with span recording switched on for its duration."""
        def recording():
            self.active = True
            try:
                return call()
            finally:
                self.active = False
        return recording

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        hook = RESULT_HOOKS.get(key)
        kernel = name if layer == KERNEL else None
        stack = self._stack

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append((layer, frame))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                if not stack or stack[-1][0] != layer:
                    self.failed[layer] += 1
                self._close(key, start, frame)
                raise
            stack.pop()
            self._close(key, start, frame)
            if hook is not None:
                hook(self, out)
            if kernel is not None:
                self.counts[f"{key}.flops_computed"] += flops(kernel, args, kwargs)
            return out

        span.__wrapped__ = fn
        return span

    def _close(self, key, start, frame):
        duration = time.perf_counter() - start
        self.calls[key] += 1
        self.self_s[key] += duration - frame[0]
        if self._stack:
            self._stack[-1][1][0] += duration

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target, in its module and wherever it was imported."""
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "mrange" or name.startswith("mrange.")]
        for layer, functions in TARGETS.items():
            module = importlib.import_module(f"mrange.{layer}")
            for qualname in functions:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, attr, self._wrap(layer, attr, cls.__dict__[attr]))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, qualname, original)
                for mod in loaded:
                    if getattr(mod, qualname, None) is original:
                        self._patch(mod, qualname, wrapper)
        for kernel in KERNELS:
            self._patch(np.linalg, kernel,
                        self._wrap(KERNEL, kernel, getattr(np.linalg, kernel)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, src_dir, passes):
        """Every per-layer metric, by name, as (value, unit). Counts and
        times are per pass over the operation list: the totals of ``passes``
        recorded passes divided by ``passes``; residual_max is a maximum."""
        out = {}
        for key in span_names():
            out[f"{key}.calls"] = (self.calls[key] / passes, "count")
            out[f"{key}.self_s"] = (self.self_s[key] / passes, "s")
        for key, value in self.counts.items():
            if key.endswith("residual_max"):
                out[key] = (value, "residual")
            else:
                out[key] = (value / passes,
                            "flop" if key.endswith("flops_computed") else "count")
        for layer in layers():
            out[f"{layer}.failed"] = (self.failed[layer] / passes, "count")
            if layer in TARGETS:
                out[f"{layer}.lines"] = (source_lines(Path(src_dir) / "mrange" / f"{layer}.py"),
                                         "lines")
        return out


def source_lines(path):
    """Non-blank source lines of one file."""
    return sum(1 for line in Path(path).read_text().splitlines() if line.strip())
