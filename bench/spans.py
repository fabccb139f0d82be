"""Spans around calls into quasik, bound from outside the program.

``install()`` replaces every public function of each quasik module, and the
public operations of ``Cyc``, with a wrapper that records a span: count,
total time and self time (the span minus the time its child spans cover).
Each wrapper is bound onto every ``quasik.*`` module attribute that named the
original function, so calls made through ``from .x import f`` bindings are
seen too.  Spans are aggregated in memory by name and written once, at exit.

Run as a script it traces one CLI invocation:

    PYTHONPATH=src python3 bench/spans.py OUT.json -- quasi --group symmetric:3 -n 1
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

LAYERS = ("cli", "groups", "cyclotomic", "chartable", "lambdarep", "snf", "quasicalc")
CYC_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__"}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [count, self seconds, total seconds]
        self.stack: list[float] = []  # child time accumulated by each open span
        self.tables: dict[int, object] = {}  # distinct character tables returned
        self.orbits = 0  # orbits returned by commuting_tuples

    def wrap(self, name: str, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                stats[2] += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        span.__wrapped__ = fn
        return span

    def _keep_table(self, table) -> None:
        self.tables[id(table)] = table  # holding it keeps ids distinct

    def _count_orbits(self, orbits) -> None:
        self.orbits += len(orbits)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"quasik.{layer}") for layer in LAYERS}
        hooks = {"chartable.character_table": self._keep_table,
                 "groups.commuting_tuples": self._count_orbits}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self.wrap(key, obj, hooks.get(key)))
        for mod in [m for name, m in sys.modules.items()
                    if name == "quasik" or name.startswith("quasik.")]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        cyc = modules["cyclotomic"].Cyc
        for name, attr in list(vars(cyc).items()):
            if not (name in CYC_OPERATORS or not name.startswith("_")):
                continue
            if isinstance(attr, staticmethod):
                setattr(cyc, name, staticmethod(self.wrap(f"cyclotomic.Cyc.{name}", attr.__func__)))
            elif isinstance(attr, types.FunctionType):
                setattr(cyc, name, self.wrap(f"cyclotomic.Cyc.{name}", attr))

    def dump(self) -> dict:
        return {"spans": self.stats, "tables_built": len(self.tables), "orbits": self.orbits}


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: spans.py OUT.json -- <quasik cli arguments>")
    import quasik.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = quasik.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
