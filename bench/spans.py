"""Spans around polysmooth's public functions, recorded from outside the
package, and the per-layer metrics derived from them.

Every public function a module defines (plus the private stages listed in
EXTRA) is wrapped, and every module attribute bound to it is rebound to
the wrapper.  That catches calls through `from .x import f` names as well as
same-module globals.  A span is (function, parent span, start, end); spans
stay in flat arrays until the pass ends (22 bytes each), and the AUX counts
are summed per function as they come.  A span's self time is its
duration minus the durations of its children; children of one span never
overlap because a pass is single-threaded.
"""

import sys
from array import array
from time import perf_counter
from types import FunctionType

import numpy as np

# The layers are the package's modules; `acceptance` is not exercised.
LAYERS = ("polyarith", "primes", "modroots", "smoothsieve", "dickman",
          "bounds", "vwmachinery", "quadfield", "primdiv", "cli")

# Private functions that get their own span: the lazy build of the rho series.
EXTRA = {"dickman": ("_get_series",)}


def _sieved(args, kwargs, result):
    return max(0, args[2] - args[1] + 1)  # sieve_range(f, lo, hi, y, ...)


def _nonempty(args, kwargs, result):
    return 1 if result.residues else 0


# Counted per call: n sieved, or whether roots mod p were found.
AUX = {"smoothsieve.sieve_range": _sieved, "modroots.roots_mod_p": _nonempty}


class Tracer:
    def __init__(self):
        self.names = []
        self.fid = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = []  # per function: sum of its AUX values
        self._stack = [-1]

    def _wrap(self, fn, name):
        fid = len(self.names)
        self.names.append(name)
        self.aux.append(0)
        fids, parents, starts, ends, auxs = (self.fid, self.parent, self.start,
                                            self.end, self.aux)
        stack = self._stack
        clock = perf_counter
        aux_of = AUX.get(name)

        def span(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if aux_of is not None:
                auxs[fid] += aux_of(args, kwargs, result)
            return result

        return span

    def install(self):
        """Wrap the traced functions in every loaded polysmooth module."""
        modules = {n: sys.modules[f"polysmooth.{n}"] for n in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, FunctionType)
                        and fn.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or attr in EXTRA.get(layer, ()))):
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name == "polysmooth" or name.startswith("polysmooth."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in wrappers:
                        setattr(mod, attr, wrappers[id(val)])

    def _arrays(self):
        return (np.frombuffer(self.fid, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def aggregate(self):
        """{function: (calls, self seconds, aux sum)} over all spans."""
        n_f = len(self.names)
        fid, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        calls = np.bincount(fid, minlength=n_f)
        self_s = np.bincount(fid, weights=dur - covered, minlength=n_f)
        return {name: (int(calls[i]), float(self_s[i]), self.aux[i])
                for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span out, for inspection after the run."""
        fid, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), fid=fid, parent=parent,
                 start=start, end=end)


# Per-layer metrics: name -> unit.  Seconds are self time, so the *.self_s
# figures of all layers add up to the traced pass.
PER_LAYER = {
    "modroots.roots_calls": "count",
    "modroots.roots_s": "s",
    "modroots.roots_nonempty_frac": "ratio",
    "modroots.lift_calls": "count",
    "modroots.lift_s": "s",
    "modroots.omega_calls": "count",
    "modroots.omega_s": "s",
    "modroots.self_s": "s",
    "primes.sieve_s": "s",
    "primes.is_prime_calls": "count",
    "primes.is_prime_s": "s",
    "primes.factorize_calls": "count",
    "primes.factorize_s": "s",
    "primes.self_s": "s",
    "smoothsieve.calls": "count",
    "smoothsieve.n_sieved": "count",
    "smoothsieve.eval_s": "s",
    "smoothsieve.self_s": "s",
    "smoothsieve.ns_per_n": "ns",
    "dickman.rho_calls": "count",
    "dickman.rho_s": "s",
    "dickman.rho_us": "us",
    "dickman.series_s": "s",
    "dickman.self_s": "s",
    "vwmachinery.calls": "count",
    "vwmachinery.self_s": "s",
    "primdiv.self_s": "s",
    "primdiv.pplus_table_calls": "count",
    "quadfield.self_s": "s",
    "bounds.self_s": "s",
    "polyarith.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Counts that repeat exactly from pass to pass of the same queries.
COUNTS = tuple(k for k, u in PER_LAYER.items() if u in ("count", "bytes"))


def layer_metrics(agg, out_bytes):
    """Per-layer values of one traced pass (trace.overhead_s excepted: it
    compares passes)."""
    def calls(f):
        return agg.get(f, (0, 0.0, 0))[0]

    def self_s(f):
        return agg.get(f, (0, 0.0, 0))[1]

    def aux(f):
        return agg.get(f, (0, 0.0, 0))[2]

    def layer_self(layer):
        return sum(v[1] for k, v in agg.items() if k.startswith(layer + "."))

    roots = calls("modroots.roots_mod_p")
    n_sieved = aux("smoothsieve.sieve_range")
    sieve_total = layer_self("smoothsieve")
    rho_calls = calls("dickman.rho")
    m = {
        "modroots.roots_calls": roots,
        "modroots.roots_s": self_s("modroots.roots_mod_p"),
        "modroots.roots_nonempty_frac":
            aux("modroots.roots_mod_p") / roots if roots else 0.0,
        "modroots.lift_calls": calls("modroots.lift_roots"),
        "modroots.lift_s": self_s("modroots.lift_roots"),
        "modroots.omega_calls": calls("modroots.omega_factored"),
        "modroots.omega_s":
            self_s("modroots.omega_factored") + self_s("modroots.omega"),
        "modroots.self_s": layer_self("modroots"),
        "primes.sieve_s": self_s("primes.primes_up_to"),
        "primes.is_prime_calls": calls("primes.is_prime"),
        "primes.is_prime_s": self_s("primes.is_prime"),
        "primes.factorize_calls": calls("primes.factorize"),
        "primes.factorize_s": self_s("primes.factorize"),
        "primes.self_s": layer_self("primes"),
        "smoothsieve.calls": calls("smoothsieve.sieve_range"),
        "smoothsieve.n_sieved": n_sieved,
        "smoothsieve.eval_s": self_s("smoothsieve.eval_range"),
        "smoothsieve.self_s": sieve_total - self_s("smoothsieve.eval_range"),
        "smoothsieve.ns_per_n": 1e9 * sieve_total / n_sieved if n_sieved else 0.0,
        "dickman.rho_calls": rho_calls,
        "dickman.rho_s": self_s("dickman.rho"),
        "dickman.rho_us":
            1e6 * self_s("dickman.rho") / rho_calls if rho_calls else 0.0,
        "dickman.series_s": self_s("dickman._get_series"),
        "dickman.self_s": layer_self("dickman"),
        "vwmachinery.calls":
            sum(v[0] for k, v in agg.items() if k.startswith("vwmachinery.")),
        "vwmachinery.self_s": layer_self("vwmachinery"),
        "primdiv.self_s": layer_self("primdiv"),
        "primdiv.pplus_table_calls": calls("smoothsieve.pplus_table"),
        "quadfield.self_s": layer_self("quadfield"),
        "bounds.self_s": layer_self("bounds"),
        "polyarith.self_s": layer_self("polyarith"),
        "cli.self_s": layer_self("cli"),
        "cli.out_bytes": out_bytes,
        "trace.spans": sum(v[0] for v in agg.values()),
    }
    return m
