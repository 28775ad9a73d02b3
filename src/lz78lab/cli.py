"""Command-line surface.

Exit codes: 0 when every checked assertion passed, 1 on an assertion
violation (with a machine-readable reproducer in the report), 2 on
usage or parameter errors.  Reports are deterministic for identical
flags and seed: no timestamps, sorted keys.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import general as gen
from . import infinite as inf
from .alignment import align, alignment_report
from .errors import ConstructionError, ParameterError, SamplingError
from .generators import de_bruijn
from .parsing import (MAX_NODES, comp_ratio, dict_size, encode, parse, ratio_from_counts,
                      tree_stats)
from .toy import construct_toy, verify_toy
from .words import Word, random_unit, random_word, read_word_file, write_word_file

OK, VIOLATION, USAGE = 0, 1, 2


def _csv_cell(value) -> str:
    if isinstance(value, (dict, list)):
        return '"' + json.dumps(value, sort_keys=True).replace('"', '""') + '"'
    return str(value)


def _emit(obj, fmt: str = "json") -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True, indent=2, default=str))
    elif fmt == "csv":
        keys = sorted(obj)
        print("# schema=1")
        print(",".join(keys))
        print(",".join(_csv_cell(obj[k]) for k in keys))
    else:
        for k in sorted(obj):
            print(f"{k}: {obj[k]}")


def _load_word(args) -> Word:
    if getattr(args, "word", None) is not None:
        return Word.from_text(args.word)
    if getattr(args, "input", None) is not None:
        return read_word_file(args.input)
    raise ParameterError("provide --word or --input")


def cmd_parse(args) -> int:
    w = _load_word(args)
    p = parse(w)
    if args.emit_code:
        with open(args.emit_code, "w", encoding="ascii") as fh:
            json.dump(encode(p).to_json_obj(), fh)
            fh.write("\n")
    if len(w) == 0:
        _emit({"schema": 1, "length": 0, "blocks": 0, "dict_size": 0,
               "comp": None}, args.format)
        return OK
    stats = tree_stats(p)
    _emit({
        "schema": 1,
        "length": len(w),
        "blocks": p.block_count,
        "dict_size": p.dict_size,
        "comp": ratio_from_counts(p.dict_size, len(w)),
        "tree": {"vertices": stats.vertex_count, "max_depth": stats.max_depth,
                 "depth_histogram": {str(d): c for d, c
                                     in sorted(stats.depth_histogram.items())}},
    }, args.format)
    return OK


def cmd_ratio(args) -> int:
    w = _load_word(args)
    _emit({"schema": 1, "n": len(w), "comp": comp_ratio(w)}, args.format)
    return OK


def cmd_debruijn(args) -> int:
    db = de_bruijn(args.k, require_prefix=args.prefix, seed=args.seed)
    if args.out:
        write_word_file(args.out, db.word, packed=args.packed)
    else:
        print(db.word.to_text())
    return OK


def cmd_construct_toy(args) -> int:
    cw = construct_toy(args.k, gamma=args.gamma, seed=args.seed,
                       reparse=args.reparse)
    report = verify_toy(cw, args.front)
    if args.out:
        write_word_file(args.out, cw.letters(), packed=args.packed)
    _emit(report.to_json_obj(), args.report)
    # the violation cap is a guarantee about the front letter 0 only; other
    # fronts are reported without gating the exit code on it
    ok = report.green_units_ok and report.upper_bound_ok and (
        args.front != "0" or report.violations_ok)
    return OK if ok else VIOLATION


def cmd_construct_general(args) -> int:
    params = gen.derive_params(args.n, args.l, gamma=args.gamma, exact=args.exact)
    family = gen.sample_family(params, args.seed)
    cw = gen.construct_general(family, reparse=args.reparse)
    report = gen.verify_general(cw)
    if args.out:
        write_word_file(args.out, cw.letters(), packed=args.packed)
    obj = report.to_json_obj()
    obj["params"] = params.to_json_obj()
    obj["retries"] = family.retries
    _emit(obj, args.report)
    return OK if (report.upper_bound_ok and report.sync_ok
                  and report.pair_trade_off_ok) else VIOLATION


def cmd_catastrophe(args) -> int:
    cw = construct_toy(args.k, gamma=args.gamma, seed=args.seed)
    report = verify_toy(cw)
    dic_1w = dict_size(cw.letters(b"1"))   # fed from the segment table: 1w is never built
    front_bound = 3 * math.sqrt(cw.n * report.dic_w)
    front_bound_ok = report.dic_aw <= front_bound
    obj = {
        "schema": 1,
        "k": args.k, "gamma": args.gamma, "seed": args.seed,
        "n": report.n, "s": report.s,
        "dic_w": report.dic_w,
        "dic_0w": report.dic_aw,
        "dic_1w": dic_1w,
        "ratio_0w_over_w": report.dic_aw / report.dic_w,
        "front_ratio_n34": report.front_ratio,
        "chosen_i": report.chosen_i,
        "gadget_count": report.gadget_count,
        "upper_bound_ok": report.upper_bound_ok,
        "violations_ok": report.violations_ok,
        "green_units_ok": report.green_units_ok,
        "front_bound": front_bound,
        "front_bound_ok": front_bound_ok,
    }
    if args.format == "text":
        print(f"k={args.k} gamma={args.gamma} |w|={report.n}")
        print(f"  dic(w)  = {report.dic_w:>10}  (bound {3 * math.sqrt(2 / 5) * math.sqrt(report.n):.0f})")
        print(f"  dic(0w) = {report.dic_aw:>10}  ({report.front_ratio:.3f} * |w|^(3/4))")
        print(f"  dic(1w) = {dic_1w:>10}")
        print(f"  gadgets = {report.gadget_count}, chosen_i = {report.chosen_i}")
        print(f"  universal front bound: dic(0w) <= {front_bound:.0f}: "
              f"{'ok' if front_bound_ok else 'VIOLATED'}")
    else:
        _emit(obj, args.format)
    return OK if (report.upper_bound_ok and report.violations_ok
                  and report.green_units_ok and front_bound_ok) else VIOLATION


def _fuzz_length(seed: int, trial: int, max_len: int) -> int:
    # log-uniform in [1, max_len], from the stream on [seed, trial, 0xF]
    return max(1, int(round(max_len ** random_unit([seed, trial, 0xF]))))


def _fuzz_word(seed: int, trial: int, length: int) -> bytes:
    return random_word([seed, trial], length)


def cmd_bound_fuzz(args) -> int:
    if args.trials < 1:
        raise ParameterError("trials must be >= 1")
    if args.max_len < 1:
        raise ParameterError("max-len must be >= 1")
    if args.max_len > MAX_NODES - 2:
        raise ParameterError(f"max-len must be <= {MAX_NODES - 2} "
                             "for the parser's node ids")
    if args.seed < 0:
        raise ParameterError(f"seed must be >= 0, not {args.seed}")
    worst = 0.0
    worst_at = None
    for trial in range(args.trials):
        length = _fuzz_length(args.seed, trial, args.max_len)
        data = _fuzz_word(args.seed, trial, length)
        dw = parse(data).dict_size
        base = math.sqrt(len(data) * dw)
        for letter in (b"0", b"1"):
            daw = parse(letter + data).dict_size
            ratio = daw / base
            if ratio > worst:
                worst, worst_at = ratio, {"trial": trial, "letter": letter.decode()}
            if daw > 3 * base:
                _emit({"schema": 1, "violation": True, "trial": trial,
                       "letter": letter.decode(), "seed": args.seed,
                       "word": data.decode()}, "json")
                return VIOLATION
    _emit({"schema": 1, "violation": False, "trials": args.trials,
           "max_len": args.max_len, "seed": args.seed,
           "max_ratio": worst, "max_ratio_at": worst_at}, "json")
    return OK


def cmd_family_sample(args) -> int:
    params = gen.derive_params(args.n, args.l, gamma=args.gamma, exact=args.exact)
    family = gen.sample_family(params, args.seed)
    if args.out:
        gen.save_family(family, args.out)
    _emit({"schema": 1, "params": params.to_json_obj(),
           "retries": family.retries,
           "words": None if args.out else [w.to_text() for w in family.words]},
          "json")
    return OK


def cmd_curve(args) -> int:
    w = read_word_file(args.input)
    points = inf.ratio_curve(w, args.stride)
    if args.format == "csv":
        print("# lz78lab-curve schema=1")
        print("n,comp")
        for n, c in points:
            print(f"{n},{c:.10g}")
    else:
        _emit({"schema": 1, "points": [[n, c] for n, c in points]}, "json")
    return OK


def cmd_infinite(args) -> int:
    cw = inf.build_prefix(args.l0, args.gamma, args.budget, args.seed)
    sched = cw.meta["schedule"]
    if args.out:
        write_word_file(args.out, cw.letters(), packed=args.packed)
    stride = max(1, cw.n // 256)
    plain = inf.ratio_curve(cw.letters(), stride)
    front = inf.prefix_ratios(cw.certified_red(), stride)
    separated, tail_plain, tail_front = inf.tail_separation(plain, front)
    _emit({
        "schema": 1,
        "l0": args.l0, "gamma": args.gamma, "budget": args.budget,
        "seed": args.seed,
        "in_theorem_range": sched.in_theorem_range,
        "notes": list(sched.notes),
        "levels": [{"l": lv.l, "p": lv.p, "m": lv.m_eff, "count": lv.count}
                   for lv in sched.levels],
        "words_per_level": cw.meta["words_per_level"],
        "length": cw.n,
        "tail_separated": separated,
        "tail_max_plain": tail_plain,
        "tail_min_front": tail_front,
    }, "json")
    return OK if separated else VIOLATION


def cmd_align(args) -> int:
    w = _load_word(args)
    ap = align(w, args.front)
    _emit(alignment_report(ap), "json")
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lz78lab",
                                 description="LZ'78 parsing lab and "
                                             "adversarial word constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_word_input(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--word", help="word as a 0/1 string")
        group.add_argument("--input", help="word file (text or packed)")

    p = sub.add_parser("parse", help="parse a word and report block statistics")
    add_word_input(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--emit-code", metavar="FILE",
                   help="write the pointer code as a JSON array of "
                        '{"pred": int, "letter": 0|1}')
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("ratio", help="compression ratio of a word")
    add_word_input(p)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("align", help="classify the blocks of (front)(word) "
                                     "against the blocks of the word")
    add_word_input(p)
    p.add_argument("--front", default="0", choices=["0", "1"])
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("debruijn", help="emit a de Bruijn word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--prefix", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--packed", action="store_true")
    p.set_defaults(func=cmd_debruijn)

    p = sub.add_parser("construct", help="build an adversarial word")
    csub = p.add_subparsers(dest="construction", required=True)

    pt = csub.add_parser("toy", help="explicit de-Bruijn-based construction")
    pt.add_argument("--k", type=int, required=True)
    pt.add_argument("--gamma", type=float, default=3.0)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--front", default="0", choices=["0", "1"])
    pt.add_argument("--out")
    pt.add_argument("--packed", action="store_true")
    pt.add_argument("--report", choices=["json", "csv"], default="json")
    pt.add_argument("--reparse", choices=["checkpoint", "scratch"],
                    default="checkpoint")
    pt.set_defaults(func=cmd_construct_toy)

    pg = csub.add_parser("general", help="chained construction of length n")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--l", type=int, required=True)
    pg.add_argument("--gamma", type=float, default=10.0)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--exact", action="store_true",
                    help="round n down so the chain count is a power of two")
    pg.add_argument("--out")
    pg.add_argument("--packed", action="store_true")
    pg.add_argument("--report", choices=["json", "csv"], default="json")
    pg.add_argument("--reparse", choices=["checkpoint", "scratch"],
                    default="checkpoint")
    pg.set_defaults(func=cmd_construct_general)

    p = sub.add_parser("catastrophe", help="headline construction report")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_catastrophe)

    p = sub.add_parser("bound-fuzz", help="fuzz the universal front-letter bound")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bound_fuzz)

    p = sub.add_parser("family-sample", help="sample a P1/P2 word family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--gamma", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_family_sample)

    p = sub.add_parser("curve", help="compression-ratio curve of a word's prefixes")
    p.add_argument("--input", required=True)
    p.add_argument("--stride", type=int, default=1024)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("infinite", help="finite prefix of the level construction")
    p.add_argument("--l0", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--packed", action="store_true")
    p.set_defaults(func=cmd_infinite)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (SamplingError, ConstructionError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(json.dumps(exc.diagnostics, sort_keys=True, default=str),
                  file=sys.stderr)
        return VIOLATION


if __name__ == "__main__":
    sys.exit(main())
