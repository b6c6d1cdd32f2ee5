"""Set-up probe, run in a fresh interpreter by run.py.

Imports oscphase from the checkout's src/, builds the cold Gauss-Legendre
rule the oracle uses, and computes a first result: the oracle value of the
Fresnel integral of e(x^2) over [-1, 1].  Prints one JSON line with the
execution time of oscphase.ddmath's module body, the cold rule's build time
and the result's dd parts.
"""

import importlib.abc
import importlib.machinery
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

exec_times = {}


class _TimeModuleExec(importlib.abc.MetaPathFinder):
    """Times the execution of oscphase.ddmath's module body (its tables)."""

    def find_spec(self, name, path, target=None):
        if name != "oscphase.ddmath":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        run = spec.loader.exec_module

        def exec_module(module):
            t0 = time.perf_counter()
            run(module)
            exec_times[name] = time.perf_counter() - t0

        spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, _TimeModuleExec())
import oscphase  # noqa: E402
from oscphase import ddmath  # noqa: E402
from oscphase.coefficients import make_problem  # noqa: E402
from oscphase.oracle import QuadratureSettings, oscillatory_quadrature_detail  # noqa: E402

t_import = time.perf_counter()
ddmath.gauss_legendre_dd(QuadratureSettings().nodes_per_panel)
t_gl = time.perf_counter()
result = oscillatory_quadrature_detail(make_problem("x^2", "1", -1.0, 1.0, n=2),
                                       QuadratureSettings(tol=1e-12))
print(json.dumps({
    "oscphase_file": oscphase.__file__,
    "ddmath_import_s": exec_times["oscphase.ddmath"],
    "gauss_legendre_dd_cold_s": t_gl - t_import,
    "ref_dd": [[float(result.re_dd[0]), float(result.re_dd[1])],
               [float(result.im_dd[0]), float(result.im_dd[1])]],
}))
