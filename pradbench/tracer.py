"""In-memory span tracer for pradial, installed from outside the package.

``Tracer.install`` wraps every public function of each pradial module and
rebinds it at every module-level name that refers to it, so a caller that
imported the function into its own namespace (``pradial.cli.sample_cone``)
is traced just like one that looks it up on the defining module
(``pradial._kernels.run_chain``).  A span is (name, start, end, parent,
attrs); spans stay in memory until ``write``.  ``layer_metrics`` turns a
span list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

MODULES = ("_kernels", "mcmc", "matrixball", "weights", "distributions", "rng",
           "lpgeom", "measures", "rates", "cli")
METHODS = {"rng": ("RngStream", ("split", "fresh"))}


# --- observers: cheap attributes recorded when a call returns -----------------

def _obs_chain(args, kwargs, out):
    return {"flips": int(args[4].shape[0]), "kept": int(args[12].shape[0])}


def _obs_mcmc_sample(args, kwargs, out):
    # the direction ESS is computed after the round, outside every span
    return {"accept": out.accept_rate, "ess": out.ess, "result": out,
            "p": float(args[1])}


def _obs_size(args, kwargs, out):
    return {"scalars": int(np.size(out))}


def _obs_rows(args, kwargs, out):
    return {"rows": int(out.points.shape[0])}


def _obs_b_draws(args, kwargs, out):
    return {"rows": int(np.size(out))}


def _obs_psi(args, kwargs, out):
    law = args[0].law
    return {"points": int(np.size(args[1])),
            "tabulated": law is not None and law.variant == "tabulated"}


def _obs_energy(args, kwargs, out):
    mu = args[0]
    cells = mu.grid.size - 1 if mu.kind == "grid" else 0
    return {"kind": mu.kind, "cells": cells}


def _obs_legendre(args, kwargs, out):
    return {"points": int(np.size(args[2]))}


def _obs_write_csv(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


OBSERVERS = {
    "kernels.run_chain": _obs_chain,
    "mcmc.mcmc_sample": _obs_mcmc_sample,
    "lpgeom.sample_cone": _obs_rows,
    "lpgeom.sample_pnpw": _obs_rows,
    "lpgeom.sample_uniform_ball": _obs_rows,
    "lpgeom.norm_split_B": _obs_b_draws,
    "lpgeom.psi_density": _obs_psi,
    "measures.log_energy": _obs_energy,
    "rates.legendre_transform": _obs_legendre,
    "cli.write_csv": _obs_write_csv,
}
for _name in ("sample_gamma", "sample_beta", "sample_gen_gaussian",
              "sample_gen_gaussian_positive", "sample_W"):
    OBSERVERS[f"distributions.{_name}"] = _obs_size


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent, attrs]
        self._stack = []
        self._patches = []     # (owner, attribute, original)

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[4] = observe(args, kwargs, out)
            return out

        return traced

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self._wrap(name, fn)(*args)

    def install(self):
        mods = [importlib.import_module(f"pradial.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            label = mod.__name__.rsplit(".", 1)[1].lstrip("_")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{label}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, OBSERVERS.get(name))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for mod_name, (cls_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(f"pradial.{mod_name}"), cls_name)
            for m in methods:
                orig = cls.__dict__[m]
                self._patches.append((cls, m, orig))
                setattr(cls, m, self._wrap(f"{mod_name}.{cls_name}.{m}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one span adds to a call, from timing a wrapped no-op."""
        def noop():
            return None

        traced = Tracer()._wrap("noop", noop)
        elapsed = []
        for fn in (noop, traced):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            elapsed.append(time.perf_counter() - t0)
        return max(elapsed[1] - elapsed[0], 0.0) / calls

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": s[0], "start": s[1] - t0, "end": s[2] - t0,
                 "parent": s[3]} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh, allow_nan=False)


# --- per-layer metrics ------------------------------------------------------

def _ratio(a, b):
    return a / b if b > 0 else 0.0


def _durations(spans):
    """(duration, parent index, self time) of every span; self time is the
    duration minus the durations of the span's direct children."""
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=int)
    child = np.zeros(len(spans))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    return dur, parent, dur - child


def module_self_times(spans) -> dict:
    """Self time per module (the span name up to its first dot)."""
    _, _, self_t = _durations(spans)
    out = {}
    for s, t in zip(spans, self_t):
        mod = s[0].split(".")[0]
        out[mod] = out.get(mod, 0.0) + float(t)
    return out


def layer_metrics(spans, ess_of) -> dict:
    """Per-layer metrics from one traced pass.

    "total" sums the outermost spans of a group so nested spans of the
    same group are not counted twice.  ess_of(samples, p) estimates the
    direction-statistic ESS of one mcmc_sample result.
    """
    names = [s[0] for s in spans]
    dur, parent, self_t = _durations(spans)
    attrs = [s[4] or {} for s in spans]

    def select(pred):
        return [i for i, nm in enumerate(names) if pred(nm, attrs[i])]

    def selfsum(pred):
        return float(sum(self_t[i] for i in select(pred)))

    def total(pred):
        chosen = set(select(pred))
        return float(sum(dur[i] for i in chosen if parent[i] not in chosen))

    def attr_sum(pred, key):
        return float(sum(attrs[i].get(key, 0) for i in select(pred)))

    def mod(prefixes):
        return lambda nm, a: nm.split(".")[0] in prefixes

    def named(*ns):
        return lambda nm, a: nm in ns

    m = {}
    chain = named("kernels.run_chain")
    m["kernels.run_chain_s"] = total(chain)
    m["kernels.flips"] = attr_sum(chain, "flips")
    m["kernels.flips_per_s"] = _ratio(m["kernels.flips"], m["kernels.run_chain_s"])
    m["kernels.flips_per_kept_draw"] = _ratio(m["kernels.flips"],
                                              attr_sum(chain, "kept"))

    mc = [attrs[i] for i in select(named("mcmc.mcmc_sample"))]
    kept = sum(a["result"].samples.shape[0] for a in mc)
    m["mcmc.sample_self_s"] = selfsum(
        lambda nm, a: nm.startswith("mcmc.") and nm != "mcmc.estimate_norm_const")
    m["mcmc.accept_rate"] = float(np.mean([a["accept"] for a in mc])) if mc else 0.0
    m["mcmc.ess_norm_frac"] = _ratio(sum(a["ess"] for a in mc), kept)
    m["mcmc.ess_dir_frac"] = _ratio(
        sum(ess_of(a["result"].samples, a["p"]) for a in mc), kept)
    m["mcmc.norm_const_s"] = selfsum(named("mcmc.estimate_norm_const"))

    m["matrixball.sample_self_s"] = selfsum(mod({"matrixball"}))
    m["weights.log_eval_s"] = selfsum(mod({"weights"}))

    dist = mod({"distributions"})
    m["distributions.busy_s"] = selfsum(mod({"distributions", "rng"}))
    m["distributions.scalars_per_s"] = _ratio(
        float(sum(attrs[i].get("scalars", 0) for i in select(dist)
                  if parent[i] < 0 or not dist(names[parent[i]], None))),
        total(dist))

    samplers = named("lpgeom.sample_cone", "lpgeom.sample_pnpw",
                     "lpgeom.sample_uniform_ball", "lpgeom.norm_split_B")
    psi_tab = lambda nm, a: nm == "lpgeom.psi_density" and a.get("tabulated")
    m["lpgeom.sample_self_s"] = selfsum(
        lambda nm, a: nm.startswith("lpgeom.") and "psi" not in nm)
    m["lpgeom.rows_per_s"] = _ratio(attr_sum(samplers, "rows"), total(samplers))
    m["lpgeom.psi_tab_s"] = total(psi_tab)
    m["lpgeom.psi_points_per_s"] = _ratio(attr_sum(psi_tab, "points"),
                                          m["lpgeom.psi_tab_s"])

    for kind in ("atoms", "grid", "analytic"):
        m[f"measures.log_energy_{kind}_s"] = total(
            lambda nm, a, k=kind: nm == "measures.log_energy" and a.get("kind") == k)
    grid = lambda nm, a: nm == "measures.log_energy" and a.get("kind") == "grid"
    m["measures.grid_cell_pairs_per_s"] = _ratio(
        float(sum(attrs[i]["cells"] ** 2 for i in select(grid))),
        m["measures.log_energy_grid_s"])
    m["measures.moment_p_s"] = total(named("measures.moment_p"))
    m["measures.relative_entropy_s"] = total(
        named("measures.relative_entropy_gen_gaussian"))

    legendre = named("rates.legendre_transform", "rates.legendre_biconjugate")
    laplace = named("rates.laplace_check", "rates.breitung_check",
                    "rates.adapted_laplace_limit", "rates.adapted_breitung_limit")
    rate_beta = lambda nm, a: nm.startswith("rates.rate_beta")
    m["rates.legendre_s"] = total(legendre)
    m["rates.legendre_points_per_s"] = _ratio(
        attr_sum(named("rates.legendre_transform"), "points"), m["rates.legendre_s"])
    m["rates.rate_emp_self_s"] = selfsum(
        lambda nm, a: nm.startswith("rates.") and not (
            legendre(nm, a) or laplace(nm, a) or rate_beta(nm, a)))
    m["rates.laplace_s"] = total(laplace)
    m["rates.rate_beta_s"] = total(rate_beta)

    csvw = named("cli.write_csv")
    m["cli.write_csv_s"] = total(csvw)
    m["cli.write_csv_mb_per_s"] = _ratio(attr_sum(csvw, "bytes") / 1e6,
                                         m["cli.write_csv_s"])
    m["cli.self_s"] = selfsum(lambda nm, a: nm.startswith("cli.") and nm != "cli.write_csv")
    return m
