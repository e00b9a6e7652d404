"""Per-layer tracing from outside the program.

Tracer.install() replaces each traced public function by a counting,
timing wrapper wherever the function is bound: in its defining module and
in every taubnut module that imported it with ``from .x import y``, so the
library's internal calls are traced too.  uninstall() puts the originals
back.  Nothing under src/ is modified.

For each traced function the tracer records the call count, the inclusive
seconds (outermost call only, so recursion is not counted twice) and the
self seconds (inclusive minus the time of traced calls nested inside).
Some layers add work counts: fevals (calls of the function handed to the
root finder), evaluations (QuadratureResult.evaluations) and nfev
(OdeResult.nfev).
"""

from __future__ import annotations

import sys
import time

# metric prefix -> (module, function names, reported metrics).  Several
# functions may share one prefix (the three FD stencils form "numerics.fd").
LAYERS = {
    "geodesics.distance": ("geodesics", ("distance",), ("calls", "s", "self_s")),
    "geodesics.solve_eta": ("geodesics", ("solve_eta",), ("calls", "s", "self_s")),
    "geodesics.solve_F": ("geodesics", ("solve_F",), ("calls", "s", "self_s")),
    "geodesics.point_from_polar":
        ("geodesics", ("point_from_polar",), ("calls", "s", "self_s")),
    "geodesics.geodesic_shoot": ("geodesics", ("geodesic_shoot",), ("s", "self_s")),
    "numerics.find_root_monotone":
        ("numerics", ("find_root_monotone",), ("calls", "s", "fevals", "fevals_per_call")),
    "numerics.integrate_2d_improper":
        ("numerics", ("integrate_2d_improper",), ("calls", "s", "evaluations")),
    "numerics.integrate_2d_region":
        ("numerics", ("integrate_2d_region",), ("calls", "s", "evaluations")),
    "numerics.ode_solve": ("numerics", ("ode_solve",), ("calls", "s", "nfev")),
    "numerics.fd":
        ("numerics", ("fd_laplacian", "fd_gradient", "fd_jacobian2"), ("calls", "s")),
    "metrics.conformal_factor": ("metrics", ("conformal_factor",), ("calls",)),
    "metrics.fiber_matrix": ("metrics", ("fiber_matrix",), ("calls", "s")),
    "curvature.l2_ricci": ("curvature", ("l2_ricci",), ("calls", "s", "self_s")),
    "curvature.curvature4_fd": ("curvature", ("curvature4_fd",), ("calls", "s", "self_s")),
    "asymptotics.sphere_sandwich": ("asymptotics", ("sphere_sandwich",), ("s",)),
    "asymptotics.measured_epsilon_bar": ("asymptotics", ("measured_epsilon_bar",), ("s",)),
    "asymptotics.almost_ball_volume_quadrature":
        ("asymptotics", ("almost_ball_volume_quadrature",), ("s",)),
    "blowdown.conifold_ricci_fd": ("blowdown", ("conifold_ricci_fd",), ("calls", "s")),
}


class Tracer:
    def __init__(self):
        self.stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "depth": 0,
                             "fevals": 0, "evaluations": 0, "nfev": 0}
                      for name in LAYERS}
        self._nested = []          # traced time spent inside each open call
        self._patched = []         # (module, attribute, original)

    def _wrap(self, name, fn):
        st = self.stats[name]
        nested = self._nested
        counts_fevals = name == "numerics.find_root_monotone"
        reads_evaluations = name.startswith("numerics.integrate_2d")
        reads_nfev = name == "numerics.ode_solve"

        def wrapper(*args, **kwargs):
            if counts_fevals:
                f = args[0]

                def counted(x):
                    st["fevals"] += 1
                    return f(x)
                args = (counted,) + args[1:]
            st["calls"] += 1
            st["depth"] += 1
            nested.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = nested.pop()
                st["depth"] -= 1
                st["self_s"] += dt - inner
                if st["depth"] == 0:
                    st["s"] += dt
                if nested:
                    nested[-1] += dt
            if reads_evaluations:
                st["evaluations"] += out.evaluations
            elif reads_nfev:
                st["nfev"] += out.nfev
            return out

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "taubnut" or key.startswith("taubnut."))]
        for name, (mod_name, funcs, _) in LAYERS.items():
            home = sys.modules[f"taubnut.{mod_name}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        out = {}
        for name, (_, _, keys) in LAYERS.items():
            st = self.stats[name]
            for key in keys:
                if key == "fevals_per_call":
                    out[f"{name}.{key}"] = st["fevals"] / st["calls"] if st["calls"] else 0.0
                else:
                    out[f"{name}.{key}"] = st[key]
        return out
