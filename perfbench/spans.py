"""Outside-in span recorder for micpkit.

The recorder wraps every public function of the solver modules, plus the
static methods in ``STATIC_METHODS``, at *every* namespace of the package
that binds it: ``lp_solve`` is bound in ``simplex``, ``barrier``, ``milp``,
``benders``, ``twostage`` and ``micpkit`` itself, and a call through any of
them must produce a span.  Bindings are found by identity, so a later
``from .simplex import lp_solve`` in a new module is wrapped too;
:func:`unwrapped_aliases` reports any reference the recorder could not
replace (a default argument, a closure cell, a container).

A span is ``[layer, parent, start, end, summary]`` kept in memory.  ``parent``
is the index of the enclosing span (-1 at top level); ``summary`` holds the
counts read off the call's result (``RAISED`` when the call raised).  The
recorder follows one call stack, so solves must run on one thread (micpkit's
``DrOptions.threads`` defaults to 1).
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import logging
import re
import sys
import time
from collections import Counter

PACKAGE = "micpkit"
SOLVER_MODULES = ("simplex", "barrier", "milp", "micp", "benders", "twostage", "bruteforce")
# (module, class, static method) -> layer name
STATIC_METHODS = {("twostage", "ScenarioDual", "from_terminal"): "twostage.scenario_dual"}
RAISED = "raised"
DUPLICATE_LOGGERS = ("micpkit.micp", "micpkit.milp")


# ---------------------------------------------------------------------------
# what a span keeps of a call's result
# ---------------------------------------------------------------------------

def _status_count(attr):
    return lambda r: (r.status, getattr(r, attr))


def _micp_summary(cert):
    return (cert.status, cert.iterations, Counter(c["provenance"] for c in cert.cut_pool))


SUMMARIES = {
    "simplex.lp_solve": _status_count("pivots"),
    "barrier.convex_solve": _status_count("newton_steps"),
    "barrier.project": lambda r: ("infeasible" if r[0] is None else "optimal",),
    "barrier.lp_equivalence_check": lambda r: (bool(r),),
    "micp.polish_step": lambda r: (r.case,),
    "micp.micp_solve": _micp_summary,
    "milp.milp_solve": lambda r: (r.status, r.mode, r.lp_calls, len(r.cuts), r.used_fallback),
    "milp.branch_and_bound": _status_count("nodes"),
    "twostage.dr_solve": _status_count("iterations"),
    "bruteforce.brute_force": _status_count("enumerated"),
    "bruteforce.brute_force_two_stage": lambda r: (r.status, len(r.table)),
}


def targets():
    """``{layer name: original function}`` for every function the recorder wraps."""
    out = {}
    for short in SOLVER_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[f"{short}.{name}"] = obj
    for (short, cls, meth), layer in STATIC_METHODS.items():
        owner = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls)
        out[layer] = inspect.getattr_static(owner, meth).__func__
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _bindings(fn):
    """Every (owner, attribute, is_static) under the package that binds ``fn``."""
    found = []
    for mod in _package_modules():
        for name, val in list(vars(mod).items()):
            if val is fn:
                found.append((mod, name, False))
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                for attr, member in list(vars(val).items()):
                    if member is fn:
                        found.append((val, attr, False))
                    elif isinstance(member, staticmethod) and member.__func__ is fn:
                        found.append((val, attr, True))
    return found


class Recorder:
    """Install with :meth:`install`, collect spans per pass with :meth:`take`,
    then :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = {}     # layer -> original function
        self._plan = None        # [(wrapper, [(owner, attribute, is_static)])], found once
        self._installed = []     # (owner, attribute, value it had before install)
        self._own = set()        # ids of the recorder's objects that refer to originals

    def install(self):
        if self._installed:
            raise RuntimeError("recorder already installed")
        if self._plan is None:
            self._plan = []
            for layer, fn in targets().items():
                wrapper = self._wrap(layer, fn, SUMMARIES.get(layer))
                self._originals[layer] = fn
                self._plan.append((wrapper, _bindings(fn)))
        self._own = {id(self._originals)}
        for wrapper, bindings in self._plan:
            fn = wrapper.__wrapped__
            self._own.update(id(c) for c in wrapper.__closure__ if c.cell_contents is fn)
            self._own.add(id(vars(wrapper)))
            for owner, attr, static in bindings:
                saved = (owner, attr, vars(owner)[attr])
                self._installed.append(saved)
                self._own.update((id(saved), id(saved[2])))
                setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()
        self._own.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer, fn, summarize):
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            spans = recorder.spans
            rec = [layer, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = RAISED
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if summarize is not None:
                rec[4] = summarize(result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper


def unwrapped_aliases(recorder):
    """Places that still reach an original function after :meth:`Recorder.install`.

    Checks the modules of the package and the classes defined there, then,
    through the garbage collector, any other object that refers to an
    original: a default argument, a closure cell, a list or dict.  The
    recorder's own references and stack frames are not counted.
    """
    gc.collect()   # unreachable objects (an earlier recorder's wrappers) still show as referrers
    missed = []
    for layer in list(recorder._originals):
        fn = recorder._originals[layer]
        for owner, attr, _ in _bindings(fn):
            missed.append(f"{layer}: bound as {owner.__name__}.{attr}")
        for ref in gc.get_referrers(fn):
            if id(ref) in recorder._own or inspect.isframe(ref):
                continue
            missed.append(f"{layer}: referenced by a {type(ref).__name__}")
    return missed


class DuplicateCounter(logging.Handler):
    """Counts ``duplicate ... suppressed`` warnings per logger."""

    PATTERN = re.compile(r"\bduplicate\b.*\bsuppressed\b")

    def __init__(self):
        super().__init__(logging.WARNING)
        self.counts = Counter()

    def emit(self, record):
        if self.PATTERN.search(record.getMessage()):
            self.counts[record.name] += 1

    def attach(self):
        for name in DUPLICATE_LOGGERS:
            logging.getLogger(name).addHandler(self)
        return self

    def detach(self):
        for name in DUPLICATE_LOGGERS:
            logging.getLogger(name).removeHandler(self)

    def take(self):
        counts, self.counts = self.counts, Counter()
        return counts
