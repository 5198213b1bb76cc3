"""Span tracing of ccakit from outside the package.

`Tracer.active()` replaces each target function with a timing wrapper in
every ccakit module that holds a reference to it (names copied in with
``from .x import y`` included), and in the default arguments that were bound
when a function was defined (``run_appgrad(step_fn=appgrad_step)``). It
restores every reference on exit, so code run outside the context is the
unpatched package.

A span is the tuple (id, parent id, name, start ns, end ns). Ids are
allocated on entry, so a parent's id is always smaller than its children's.
Spans stay in memory until `write_jsonl` is called.
"""

import functools
import importlib
import json
import sys
import time
import types
from contextlib import contextmanager

ROOT = -1


class Tracer:
    """Records one span per call of each target; targets are
    ``(label, "module:qualname")`` pairs, a qualname being ``func`` or
    ``Class.method``."""

    def __init__(self, targets, package="ccakit"):
        self.targets = list(targets)
        self.package = package
        self.spans = []
        self._stack = []
        self._patches = []

    def _enter(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else ROOT
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = (sid, parent, name, start, end)

    def wrap(self, name, fn):
        """Return `fn` wrapped so that each call records a span `name`."""
        enter, exit_, clock = self._enter, self._exit, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(sid, parent, name, start)

        return traced

    @contextmanager
    def span(self, name):
        """Record a span around the body of the ``with`` block."""
        sid, parent = self._enter()
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            self._exit(sid, parent, name, start)

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules(self.package)
        functions = [v for m in modules for v in vars(m).values()
                     if isinstance(v, types.FunctionType)]
        wrapped = {}
        for label, target in self.targets:
            modname, qualname = target.split(":")
            owner = importlib.import_module(modname)
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                wrapped[id(original)] = self.wrap(label, original)
                self._set(owner, attr, wrapped[id(original)])
                continue
            original = getattr(owner, attr)
            wrapped[id(original)] = self.wrap(label, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped[id(original)])
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(id(d) in wrapped for d in defaults):
                self._set(fn, "__defaults__",
                          tuple(wrapped.get(id(d), d) for d in defaults))

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    @contextmanager
    def active(self):
        """Patch the package for the duration of the ``with`` block."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def package_modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def package_state(package="ccakit"):
    """Every reference the tracer may patch: module globals, class
    attributes and function defaults, keyed by where they live. Dunder
    globals are left out: ``__warningregistry__`` appears when a warning fires."""
    state = {}
    for module in package_modules(package):
        for key, value in vars(module).items():
            if key.startswith("__"):
                continue
            state[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    state[(module.__name__, key, attr)] = member
            if isinstance(value, types.FunctionType):
                state[(module.__name__, key, "__defaults__")] = value.__defaults__
    return state


def changed_references(before, after):
    """Keys whose value is not the identical object in both snapshots."""
    keys = set(before) | set(after)
    return sorted((k for k in keys if before.get(k) is not after.get(k)), key=repr)


def self_times_ns(spans):
    """Per span: duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent != ROOT:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, start, end in spans]


def roots(spans):
    """Per span: the id of the outermost span it ran under."""
    out = [0] * len(spans)
    for sid, parent, _, _, _ in spans:
        out[sid] = sid if parent == ROOT else out[parent]
    return out
