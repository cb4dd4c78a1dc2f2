"""In-memory spans around the calls the benchmark makes into quadrel.

The benchmark does not edit the package.  It swaps a traced wrapper
into the attribute each caller looks a function up by: quadrel's
modules import with ``from .x import f``, so ``quadrel.solver.pf_quadratic``
is the name ``rssl_solve`` actually calls, and wrapping
``quadrel.pf.pf_quadratic`` would record nothing.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Self time is a span's duration minus the
durations of its direct children; the code is single-threaded, so
children never overlap and that difference is the uncovered time.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.slsqp_calls = []  # (is_restoration, success, nit) per single-loop SLSQP run
        self.mpp_g_rows = []   # limit-state rows evaluated by each form_mpp call
        self.branches = {}     # pf branch name -> count
        self.plan_points = 0   # DOE plan rows built
        self._stack = []

    def clear(self):
        self.spans.clear()
        self.slsqp_calls.clear()
        self.mpp_g_rows.clear()
        self.branches.clear()
        self.plan_points = 0

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced


def _patch_targets(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call site."""
    import quadrel.form
    import quadrel.montecarlo
    import quadrel.pf
    import quadrel.solver as solver

    wrap = tracer.wrap
    targets = []

    def add(owner, attr, make):
        targets.append((owner, attr, make(getattr(owner, attr))))

    add(solver, "solve_deterministic", lambda f: wrap("solver.deterministic", f))
    add(solver, "build_surrogates", lambda f: wrap("solver.surrogates", f))
    add(solver, "fit_quadratic", lambda f: wrap("doe.fit_quadratic", f))
    add(solver.RbdoProblem, "variables_at", lambda f: wrap("solver.variables_at", f))
    add(solver, "to_standard_normal", lambda f: wrap("quadratic.to_standard_normal", f))
    add(quadrel.pf, "spectral", lambda f: wrap("quadratic.spectral", f))
    add(quadrel.form, "minimize", lambda f: wrap("form.fallback", f))
    add(quadrel.montecarlo, "transform_samples",
        lambda f: wrap("montecarlo.transform_samples", f))

    def default_plan(orig):
        traced = wrap("doe.plan", orig)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            plan = traced(*args, **kwargs)
            tracer.plan_points += plan.points.shape[0]
            return plan
        return counted

    def gstar_factory(orig):
        @functools.wraps(orig)
        def probabilistic_constraint(*args, **kwargs):
            return wrap("solver.gstar", orig(*args, **kwargs))
        return probabilistic_constraint

    def pf_quadratic(orig):
        traced = wrap("pf.pf_quadratic", orig)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            pf, diag = traced(*args, **kwargs)
            key = diag.branch.value
            tracer.branches[key] = tracer.branches.get(key, 0) + 1
            return pf, diag
        return counted

    def constrained_minimize(orig):
        traced = wrap("solver.slsqp", orig)

        @functools.wraps(orig)
        def recorded(*args, **kwargs):
            res = traced(*args, **kwargs)
            tracer.slsqp_calls.append(
                (kwargs.get("shift", 0.0) != 0.0, bool(res.success), int(res.nit)))
            return res
        return recorded

    def form_mpp(orig):
        traced = wrap("form.form_mpp", orig)

        @functools.wraps(orig)
        def counted(g, *args, **kwargs):
            rows = [0]

            def g_counted(z):
                rows[0] += np.atleast_2d(z).shape[0]
                return g(z)

            try:
                return traced(g_counted, *args, **kwargs)
            finally:
                tracer.mpp_g_rows.append(rows[0])
        return counted

    def mc_pf(orig):
        traced = wrap("montecarlo.mc_pf", orig)

        @functools.wraps(orig)
        def with_limit_state(g, *args, **kwargs):
            return traced(wrap("montecarlo.limit_state", g), *args, **kwargs)
        return with_limit_state

    add(solver, "_default_plan", default_plan)
    add(solver, "probabilistic_constraint", gstar_factory)
    add(solver, "pf_quadratic", pf_quadratic)
    add(solver, "_constrained_minimize", constrained_minimize)
    add(solver, "form_mpp", form_mpp)
    add(solver, "mc_pf", mc_pf)
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced wrappers in for the duration of the block."""
    targets = _patch_targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def nesting_errors(spans):
    """Spans that end before they start or leave their parent's interval."""
    bad = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            bad.append(f"{name}#{i} ends before it starts")
        elif parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                bad.append(f"{name}#{i} leaves its parent {spans[parent][0]}#{parent}")
    return bad
