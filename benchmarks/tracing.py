"""Spans around the public functions of each lz78lab module.

A traced run wraps every public function of the layer modules, plus
``StreamParser.feed`` and ``StreamParser.rollback``, and rebinds each wrapper
wherever the function is looked up (``parse``, ``build_chain``, ``de_bruijn``
and ``check_p1`` are imported by name into several modules).  Spans are kept
in memory as [name, start, end, parent, count] and written out when the run
ends; the per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("parsing", "construction", "toy", "alignment", "generators",
          "general", "infinite")
METHODS = ("feed", "rollback")
CONSTRUCTORS = ("toy.construct_toy", "general.construct_general", "infinite.build_prefix")

# the count a span records, from the call's arguments and result
COUNTS = {
    "parsing.StreamParser.feed": lambda args, result: len(args[1]),
    "parsing.StreamParser.rollback": lambda args, result: len(result),
    "construction.build_chain": lambda args, result: result.gadget_count,
    "general.sample_family": lambda args, result: result.retries,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.replaced: list[tuple] = []   # (owner, attribute, original)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = count(args, result)
            elif name in CONSTRUCTORS:
                rec[4] = len(result.word)
            return result

        return traced

    def install(self, package: str = "lz78lab") -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._replace(mod, attr, wrappers[obj])
        parser_cls = importlib.import_module(f"{package}.parsing").StreamParser
        for meth in METHODS:
            self._replace(parser_cls, meth,
                          self.wrap(f"parsing.StreamParser.{meth}", getattr(parser_cls, meth)))

    def _replace(self, owner, attr, wrapper) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics: self time is a span's duration minus its children's."""
    dur = [end - start for _, start, end, _, _ in spans]
    self_time = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def idx(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def outer(*names):
        """Time inside the named functions, a call nested in another not counted twice."""
        return sum(dur[i] for i in idx(*names)
                   if not any(spans[a][0] in names for a in ancestors(i)))

    def own(name):
        return sum(self_time[i] for i in idx(name))

    def total(name):
        return sum(spans[i][4] for i in idx(name))

    feed = "parsing.StreamParser.feed"
    rollback = "parsing.StreamParser.rollback"
    letters_fed = total(feed)
    feed_s = own(feed)
    built = sum(spans[i][4] for i in idx(*CONSTRUCTORS)
                if not any(spans[a][0] in CONSTRUCTORS for a in ancestors(i)))
    fed_building = sum(spans[i][4] for i in idx(feed)
                       if any(spans[a][0] in CONSTRUCTORS for a in ancestors(i)))
    return {
        "parsing.feed_s": feed_s,
        "parsing.letters_fed": letters_fed,
        "parsing.feed_letters_per_s": letters_fed / feed_s if feed_s else 0.0,
        "parsing.feed_calls": len(idx(feed)),
        "parsing.parse_calls": len(idx("parsing.parse")),
        "parsing.parse_s": outer("parsing.parse"),
        "parsing.rollbacks": len(idx(rollback)),
        "parsing.letters_rolled_back": total(rollback),
        "parsing.rollback_s": own(rollback),
        "construction.build_chain_s": own("construction.build_chain"),
        "construction.letters_fed_per_output_letter": fed_building / built if built else 0.0,
        "construction.gadgets": total("construction.build_chain"),
        "toy.construct_s": outer("toy.construct_toy"),
        "toy.verify_s": outer("toy.verify_toy", "toy.one_front_variant"),
        "alignment.classify_s": outer("alignment.classify"),
        "alignment.violation_table_s": outer("alignment.violation_table"),
        "generators.de_bruijn_s": outer("generators.de_bruijn"),
        "general.sample_family_s": outer("general.sample_family"),
        "general.sample_retries": total("general.sample_family"),
        "general.construct_s": outer("general.construct_general"),
        "general.verify_s": outer("general.verify_general"),
        "general.per_chain_violations_s": outer("general.per_chain_violations"),
        "infinite.build_prefix_s": own("infinite.build_prefix"),
        # every word sampled into the prefix becomes one chain
        "infinite.words_sampled": sum(1 for i in idx("construction.build_chain")
                                      if any(spans[a][0] == "infinite.build_prefix"
                                             for a in ancestors(i))),
        "infinite.ratio_curve_s": outer("infinite.ratio_curve"),
    }


# unit and direction of every per-layer metric, as BENCHMARK.json lists them
LAYER_METRICS = {
    "parsing.feed_s": ("s", "lower"),
    "parsing.letters_fed": ("count", "lower"),
    "parsing.feed_letters_per_s": ("1/s", "higher"),
    "parsing.feed_calls": ("count", "lower"),
    "parsing.parse_calls": ("count", "lower"),
    "parsing.parse_s": ("s", "lower"),
    "parsing.rollbacks": ("count", "lower"),
    "parsing.letters_rolled_back": ("count", "lower"),
    "parsing.rollback_s": ("s", "lower"),
    "construction.build_chain_s": ("s", "lower"),
    "construction.letters_fed_per_output_letter": ("letters/letter", "lower"),
    "construction.gadgets": ("count", "lower"),
    "toy.construct_s": ("s", "lower"),
    "toy.verify_s": ("s", "lower"),
    "alignment.classify_s": ("s", "lower"),
    "alignment.violation_table_s": ("s", "lower"),
    "generators.de_bruijn_s": ("s", "lower"),
    "general.sample_family_s": ("s", "lower"),
    "general.sample_retries": ("count", "lower"),
    "general.construct_s": ("s", "lower"),
    "general.verify_s": ("s", "lower"),
    "general.per_chain_violations_s": ("s", "lower"),
    "infinite.build_prefix_s": ("s", "lower"),
    "infinite.words_sampled": ("count", "lower"),
    "infinite.ratio_curve_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}

EXACT = ("parsing.letters_fed", "parsing.feed_calls", "parsing.parse_calls",
         "parsing.rollbacks", "parsing.letters_rolled_back", "construction.gadgets",
         "general.sample_retries", "infinite.words_sampled")
