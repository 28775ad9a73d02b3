"""The four workloads: the CLI command each one times, and its checks.

``run`` calls ``lz78lab.cli.main`` with the workload's flags, as a user would
type them, and captures the JSON report it prints.  While the command runs,
the library functions named in ``keep`` are wrapped at the place the CLI
looks them up, so their return values (the constructed word, the family) are
kept for the checks.  ``check`` recomputes what the report claims with the
helpers in ``checks``, which do not use lz78lab.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from lz78lab import cli

import checks as ck


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable       # seed -> the command's parameters
    argv: Callable         # inputs -> the CLI arguments
    keep: tuple            # (module, function) whose results the checks need
    check: Callable        # (inputs, report, kept results) -> failures


def run(wl: Workload, inp: dict) -> tuple[int, str, dict]:
    """Exit code and standard output of the workload's CLI command, and the
    results of the functions named in ``wl.keep``, by function name."""
    kept, restore = {}, []

    def keeping(name, fn):
        def call(*args, **kwargs):
            kept[name] = fn(*args, **kwargs)
            return kept[name]
        return call

    for modname, attr in wl.keep:
        mod = importlib.import_module(f"lz78lab.{modname}")
        restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, keeping(attr, getattr(mod, attr)))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(wl.argv(inp))
    finally:
        for mod, attr, fn in reversed(restore):
            setattr(mod, attr, fn)
    return code, out.getvalue(), kept


# --- catastrophe-k12: lz78lab catastrophe --k 12 -----------------------------

def catastrophe_inputs(seed: int) -> dict:
    # the seed picks the Eulerian tie-breaks of the order-12 de Bruijn word;
    # every seed gives an 8,435,778-letter word with no gadget
    return {"k": 12, "gamma": 3.0, "seed": seed}


def catastrophe_argv(inp: dict) -> list[str]:
    return ["catastrophe", "--k", str(inp["k"]), "--gamma", str(inp["gamma"]),
            "--seed", str(inp["seed"]), "--format", "json"]


def catastrophe_check(inp: dict, rep: dict, kept: dict) -> list[str]:
    cw = kept["construct_toy"]
    w = cw.word.data
    x = cw.source.data
    n = len(w)
    fails = ck.check_de_bruijn(x, inp["k"])
    if rep["n"] != n:
        fails.append(f"reported n={rep['n']} for a word of {n} letters")
    regular = ck.segments_of_kind(w, cw.segments, "regular")
    if regular.get(0) != ck.prefix_chain(x) or set(regular) != {0}:
        fails.append("the word with its gadgets removed is not pref(x)")
    gadgets = sum(seg.kind == "gadget" for seg in cw.segments)
    if rep["gadget_count"] != gadgets:
        fails.append(f"reported {rep['gadget_count']} gadgets, the word has {gadgets}")
    starts, dic_w = ck.checked_parse(w)
    fails += ck.check_dic(rep["dic_w"], dic_w, "dic(w)")
    if starts != ck.segment_starts(cw.segments):
        fails.append("the blocks of w are not the construction's segments")
    if not dic_w <= 3 * math.sqrt(2 / 5) * math.sqrt(n):
        fails.append(f"dic(w)={dic_w} is above 3*sqrt(2/5)*sqrt(n)")
    for a in "01":
        _, dic_aw = ck.checked_parse(a.encode() + w)
        fails += ck.check_dic(rep[f"dic_{a}w"], dic_aw, f"dic({a}w)")
        if not ck.front_bound_ok(n, dic_w, dic_aw):
            fails.append(f"dic({a}w)={dic_aw} is above 3*sqrt(n*dic(w))")
    for flag in ("upper_bound_ok", "violations_ok", "green_units_ok", "front_bound_ok"):
        if rep[flag] is not True:
            fails.append(f"the report has {flag}={rep[flag]}")
    return fails


# --- general-n20-l10: lz78lab construct general --n 1048576 --l 1024 ---------

def general_inputs(seed: int) -> dict:
    # the construction seed stays at the CLI default: between family seeds the
    # work swings from 46 to 66 gadgets and by a third in time (see README)
    return {"n": 1 << 20, "l": 1 << 10, "gamma": 10.0, "seed": 0}


def general_argv(inp: dict) -> list[str]:
    return ["construct", "general", "--n", str(inp["n"]), "--l", str(inp["l"]),
            "--gamma", str(inp["gamma"]), "--seed", str(inp["seed"])]


def general_check(inp: dict, rep: dict, kept: dict) -> list[str]:
    family, cw = kept["sample_family"], kept["construct_general"]
    n, l, gamma = inp["n"], inp["l"], inp["gamma"]
    w = cw.word.data
    fails = [] if len(w) == n else [f"|w|={len(w)}, not n={n}"]
    p = max(math.log2(n / (l * l)), 0.0)
    k = math.log2(l) / 2
    m_int = max(1, int(max(gamma * p, gamma * math.log2(l))))
    words = [x.data for x in family.words]
    if len(words) != 1 << math.ceil(p - 1e-9):
        fails.append(f"family of {len(words)} words where p={p}")
    for j, x in enumerate(words):
        fails += [f"word {j}: {f}" for f in ck.check_p1(x, k, l)]
    fails += ck.check_p2(words, m_int)
    regular = ck.segments_of_kind(w, cw.segments, "regular")
    for chain in cw.chains:
        x = words[chain.index]
        if regular.get(chain.index) != ck.prefix_chain(x, chain.q):
            fails.append(f"chain {chain.index} without gadgets is not the "
                         f"ascending prefixes of its word")
    pad = ck.segments_of_kind(w, cw.segments, "padding").get(-1, b"")
    if pad.strip(b"0"):
        fails.append("the padding is not all zeros")
    starts, dic_w = ck.checked_parse(w)
    fails += ck.check_dic(rep["dic_w"], dic_w, "dic(w)")
    units = [s for s, seg in zip(ck.segment_starts(cw.segments), cw.segments)
             if seg.kind != "padding"]
    if starts[:len(units)] != units:
        fails.append("the blocks of w are not the construction's segments")
    if not dic_w <= (3 + math.sqrt(3)) / 2 * n / l:
        fails.append(f"dic(w)={dic_w} is above (3+sqrt 3)/2*n/l")
    _, dic_0w = ck.checked_parse(b"0" + w)
    fails += ck.check_dic(rep["dic_aw"], dic_0w, "dic(0w)")
    if not ck.front_bound_ok(n, dic_w, dic_0w):
        fails.append(f"dic(0w)={dic_0w} is above 3*sqrt(n*dic(w))")
    for flag in ("upper_bound_ok", "sync_ok", "pair_trade_off_ok"):
        if rep[flag] is not True:
            fails.append(f"the report has {flag}={rep[flag]}")
    return fails


# --- infinite-4m: lz78lab infinite --l0 256 --gamma 0.1 --budget 4000000 -----

def infinite_inputs(seed: int) -> dict:
    # fixed sampling seed, as for general-n20-l10: the gadget count moves
    # from 14 to 71 between sampling seeds
    return {"l0": 256, "gamma": 0.1, "budget": 4_000_000, "seed": 0}


def infinite_argv(inp: dict) -> list[str]:
    return ["infinite", "--l0", str(inp["l0"]), "--gamma", str(inp["gamma"]),
            "--budget", str(inp["budget"]), "--seed", str(inp["seed"])]


def level_params(l0: int, gamma: float, levels: int) -> list[tuple[int, float, int]]:
    """(l, k, m_eff) per level, from the paper's schedule and the factor-size
    floor 2*log2(letters so far) + 2."""
    out, prev_cum, total = [], 0, 0
    for i in range(levels):
        l = l0 << i
        p = math.sqrt(l) / (9 * gamma) - 2 * math.log2(l)
        cum = int(2 ** p)
        total += (cum - prev_cum) * l
        prev_cum = cum
        m_floor = math.ceil(2 * math.log2(max(total, 4))) + 2
        out.append((l, math.log2(l) / 2, max(math.ceil(gamma * p), m_floor)))
    return out


def infinite_check(inp: dict, rep: dict, kept: dict) -> list[str]:
    cw = kept["build_prefix"]
    w = cw.word.data
    budget = inp["budget"]
    fails = [] if len(w) == budget else [f"|w|={len(w)}, not the budget {budget}"]
    levels = level_params(inp["l0"], inp["gamma"], len(rep["levels"]))
    if [lv["m"] for lv in rep["levels"]] != [m for _, _, m in levels]:
        fails.append("the reported factor sizes differ from the schedule")
    per_level = [int(c) for _, c in sorted(rep["words_per_level"].items(),
                                           key=lambda kv: int(kv[0]))]
    words = [chain.source.data for chain in cw.chains]
    if sum(per_level) != len(words):
        fails.append(f"{len(words)} chains for {sum(per_level)} sampled words")
    ms = []
    for (l, k, m), count in zip(levels, per_level):
        for x in words[len(ms):len(ms) + count]:
            fails += [f"level l={l}: {f}" for f in ck.check_p1(x, k, l)]
        ms += [m] * count
    fails += ck.check_fresh(words, ms)
    stride = max(1, budget // 256)
    plain = ck.ratio_curve(w, stride)
    front = ck.ratio_curve(b"0" + w, stride)
    cut = 0.75 * plain[-1][0]
    tail_plain, tail_front = max(ck.tail(plain, cut)), min(ck.tail(front, cut))
    if not tail_plain < tail_front:
        fails.append(f"tails not separated: {tail_plain} >= {tail_front}")
    if (rep["tail_separated"] is not True
            or not math.isclose(rep["tail_max_plain"], tail_plain, rel_tol=1e-12)
            or not math.isclose(rep["tail_min_front"], tail_front, rel_tol=1e-12)):
        fails.append(f"reported tails {rep['tail_max_plain']}, {rep['tail_min_front']}"
                     f" differ from recomputed {tail_plain}, {tail_front}")
    return fails


# --- fuzz-short: lz78lab bound-fuzz --trials 10000 --max-len 2000 -----------

FUZZ_TRIALS = 10_000
FUZZ_MAX_LEN = 2_000
FUZZ_SAMPLE = 200


def fuzz_inputs(seed: int) -> dict:
    return {"seed": seed, "trials": FUZZ_TRIALS, "max_len": FUZZ_MAX_LEN}


def fuzz_argv(inp: dict) -> list[str]:
    return ["bound-fuzz", "--trials", str(inp["trials"]),
            "--max-len", str(inp["max_len"]), "--seed", str(inp["seed"])]


def fuzz_ratio(data: bytes, letter: str) -> float:
    _, dw = ck.checked_parse(data)
    _, daw = ck.checked_parse(letter.encode() + data)
    return daw / math.sqrt(len(data) * dw)


def fuzz_check(inp: dict, rep: dict, _kept: dict) -> list[str]:
    seed, max_len = inp["seed"], inp["max_len"]
    if rep["violation"] is not False:
        return [f"bound violated at trial {rep['trial']}"]
    at = rep["max_ratio_at"]
    worst = fuzz_ratio(ck.fuzz_word(seed, at["trial"], max_len), at["letter"])
    fails = []
    if not math.isclose(worst, rep["max_ratio"], rel_tol=1e-12):
        fails.append(f"worst trial {at}: reported {rep['max_ratio']}, recomputed {worst}")
    sample = random.Random(seed).sample(range(inp["trials"]), FUZZ_SAMPLE)
    for trial in sample:
        data = ck.fuzz_word(seed, trial, max_len)
        for letter in "01":
            r = fuzz_ratio(data, letter)
            if not r <= min(3.0, rep["max_ratio"]):
                fails.append(f"trial {trial}+{letter}: ratio {r} above "
                             f"min(3, reported worst {rep['max_ratio']})")
    return fails


WORKLOADS = {wl.name: wl for wl in (
    Workload("catastrophe-k12", catastrophe_inputs, catastrophe_argv,
             (("cli", "construct_toy"),), catastrophe_check),
    Workload("general-n20-l10", general_inputs, general_argv,
             (("general", "sample_family"), ("general", "construct_general")),
             general_check),
    Workload("infinite-4m", infinite_inputs, infinite_argv,
             (("infinite", "build_prefix"),), infinite_check),
    Workload("fuzz-short", fuzz_inputs, fuzz_argv, (), fuzz_check),
)}
