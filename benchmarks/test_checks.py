"""Tests of the benchmark's own code: its output checks must accept the
program's real outputs and reject deliberately wrong ones.

    python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks as ck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wls  # noqa: E402
from lz78lab import parse  # noqa: E402
from lz78lab.generators import de_bruijn  # noqa: E402


def random_word(rng: random.Random, n: int) -> bytes:
    return bytes(rng.choice(b"01") for _ in range(n))


# --- the reference parser and the LZ'78 parse check -------------------------

def test_naive_parse_matches_the_program():
    rng = random.Random(7)
    words = [b"0", b"1", b"00", b"0000", b"010101", b"1" * 50]
    words += [random_word(rng, rng.randrange(1, 3000)) for _ in range(60)]
    for w in words:
        starts, dic = ck.checked_parse(w)
        p = parse(w)
        assert starts == p.starts
        assert dic == p.dict_size


def test_parse_check_accepts_the_parse():
    w = random_word(random.Random(1), 5000)
    assert ck.check_lz78_parse(w, ck.naive_parse(w)) == []
    assert ck.check_lz78_parse(b"", []) == []


@pytest.mark.parametrize("shift", [-1, 1])
def test_parse_check_rejects_a_shifted_block_boundary(shift):
    w = random_word(random.Random(2), 5000)
    starts = ck.naive_parse(w)
    for b in (1, len(starts) // 2, len(starts) - 1):
        bad = list(starts)
        bad[b] += shift
        assert ck.check_lz78_parse(w, bad), f"boundary {b} shifted by {shift} accepted"


def test_parse_check_rejects_merged_and_split_blocks():
    w = random_word(random.Random(3), 2000)
    starts = ck.naive_parse(w)
    assert ck.check_lz78_parse(w, starts[:5] + starts[6:])
    split = starts[10] + 1
    assert ck.check_lz78_parse(w, sorted(starts + [split]))


def test_dic_check_rejects_an_off_by_one_dic():
    w = random_word(random.Random(4), 4000)
    _, dic = ck.checked_parse(w)
    assert ck.check_dic(dic, dic, "dic") == []
    assert ck.check_dic(dic + 1, dic, "dic")
    assert ck.check_dic(dic - 1, dic, "dic")


# --- structural checks ------------------------------------------------------

def test_de_bruijn_check():
    x = de_bruijn(12, require_prefix="01").word.data
    assert ck.check_de_bruijn(x, 12) == []
    # flipping one letter repeats a 12-gram (and loses another)
    bad = bytearray(x)
    bad[2000] ^= 1
    assert ck.check_de_bruijn(bytes(bad), 12)


def test_p2_check_rejects_a_shared_m_gram():
    rng = random.Random(5)
    words = [random_word(rng, 256) for _ in range(4)]
    assert ck.check_p2(words, 40) == []
    words[3] = words[3][:100] + words[1][50:90] + words[3][140:]
    assert ck.check_p2(words, 40)


def test_p1_check_agrees_with_the_program():
    from lz78lab.general import check_p1
    rng = random.Random(6)
    words = [random_word(rng, 64) for _ in range(200)] + [b"0" * 48 + b"1" * 16]
    verdicts = [ck.check_p1(w, 3, 64) == [] for w in words]
    assert verdicts == [check_p1(w, 3, 64) for w in words]
    assert True in verdicts and False in verdicts


def test_freshness_check():
    rng = random.Random(6)
    a, b = random_word(rng, 300), random_word(rng, 300)
    assert ck.check_fresh([a, b], [30, 30]) == []
    assert ck.check_fresh([a, b[:100] + a[10:50] + b[140:]], [30, 30])


def test_ratio_curve_matches_the_program():
    from lz78lab.infinite import ratio_curve
    w = random_word(random.Random(8), 20000)
    for stride in (1000, 777):
        ours = ck.ratio_curve(w, stride)
        theirs = ratio_curve(w, stride)
        assert [n for n, _ in ours] == [n for n, _ in theirs]
        assert all(math.isclose(a, b, rel_tol=1e-12) for (_, a), (_, b) in zip(ours, theirs))


# --- the workload checks, on small instances --------------------------------

def run_small(name: str, inp: dict) -> tuple[dict, dict]:
    code, text, kept = wls.run(wls.WORKLOADS[name], inp)
    assert code == 0
    return json.loads(text), kept


def test_run_keeps_results_and_restores_the_functions():
    import lz78lab.general
    before = lz78lab.general.construct_general
    inp = {"n": 1 << 14, "l": 64, "gamma": 10.0, "seed": 1}
    rep, kept = run_small("general-n20-l10", inp)
    assert lz78lab.general.construct_general is before
    assert rep["retries"] == kept["sample_family"].retries
    assert len(kept["construct_general"].word) == inp["n"]


def test_catastrophe_check_accepts_and_rejects():
    inp = {"k": 7, "gamma": 3.0, "seed": 3}
    rep, kept = run_small("catastrophe-k12", inp)
    assert wls.catastrophe_check(inp, rep, kept) == []
    for key in ("dic_w", "dic_0w", "dic_1w"):
        assert wls.catastrophe_check(inp, dict(rep, **{key: rep[key] + 1}), kept)
    # the segments no longer match the blocks of w
    cw = kept["construct_toy"]
    segs = list(cw.segments)
    segs[3], segs[4] = segs[4], segs[3]
    bad = dataclasses.replace(cw, segments=segs)
    assert wls.catastrophe_check(inp, rep, {"construct_toy": bad})


def test_general_check_rejects_a_family_that_breaks_p2():
    inp = {"n": 1 << 14, "l": 64, "gamma": 10.0, "seed": 1}
    rep, kept = run_small("general-n20-l10", inp)
    assert wls.general_check(inp, rep, kept) == []
    # m = 60 here: word 2 takes a 61-letter factor of word 0
    family = kept["sample_family"]
    words = list(family.words)
    words[2] = type(words[2])(words[0].data[:61] + words[2].data[61:])
    bad = dict(kept, sample_family=dataclasses.replace(family, words=words))
    assert any("occur more than once" in f
               for f in wls.general_check(inp, rep, bad))
    assert wls.general_check(inp, dict(rep, dic_aw=rep["dic_aw"] - 1), kept)


def test_infinite_check_accepts_and_rejects():
    inp = {"l0": 256, "gamma": 0.1, "budget": 60_000, "seed": 2}
    rep, kept = run_small("infinite-4m", inp)
    assert wls.infinite_check(inp, rep, kept) == []
    assert wls.infinite_check(inp, dict(rep, tail_min_front=rep["tail_min_front"] * 1.01),
                              kept)
    levels = [dict(lv, m=lv["m"] + 1) for lv in rep["levels"]]
    assert wls.infinite_check(inp, dict(rep, levels=levels), kept)


def test_fuzz_check_accepts_and_rejects():
    inp = {"seed": 9, "trials": 300, "max_len": 500}
    rep, _ = run_small("fuzz-short", inp)
    assert wls.fuzz_check(inp, rep, {}) == []
    assert wls.fuzz_check(inp, dict(rep, max_ratio=rep["max_ratio"] * 0.999), {})


def test_fuzz_words_follow_the_cli_derivation():
    from lz78lab import cli
    for trial in range(20):
        assert ck.fuzz_word(4, trial, 2000) == cli._fuzz_word(
            4, trial, ck.fuzz_length(4, trial, 2000))


# --- tracing ----------------------------------------------------------------

def test_layer_metrics_self_time():
    spans = [
        ["construction.build_chain", 0.0, 10.0, -1, 2],
        ["parsing.StreamParser.feed", 1.0, 4.0, 0, 300],
        ["parsing.StreamParser.rollback", 4.0, 5.0, 0, 100],
        ["parsing.StreamParser.feed", 5.0, 9.0, 0, 400],
    ]
    m = tracing.layer_metrics(spans)
    assert m["construction.build_chain_s"] == pytest.approx(2.0)
    assert m["parsing.feed_s"] == pytest.approx(7.0)
    assert m["parsing.letters_fed"] == 700
    assert m["parsing.letters_rolled_back"] == 100
    assert m["construction.gadgets"] == 2


def test_tracer_counts_a_small_fuzz_run():
    inp = {"seed": 1, "trials": 50, "max_len": 300}
    plain, _ = run_small("fuzz-short", inp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run_small("fuzz-short", inp)
    finally:
        tracer.uninstall()
    assert traced == plain
    m = tracing.layer_metrics(tracer.spans)
    assert m["parsing.parse_calls"] == 150
    words = [ck.fuzz_word(1, t, 300) for t in range(50)]
    assert m["parsing.letters_fed"] == 3 * sum(map(len, words)) + 100
    import lz78lab.cli
    import lz78lab.parsing
    import lz78lab.toy
    assert lz78lab.parsing.parse is parse and lz78lab.toy.parse is parse
    assert lz78lab.cli.parse is parse


# --- the benchmark's description -------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(wls.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.LAYER_METRICS
