import hashlib
import importlib
import json

import pytest

from lz78lab import words
from lz78lab.cli import main
from lz78lab.construction import ConstructedWord
from lz78lab.words import read_word_file
from oracles import naive_parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def naive_code(text: str) -> list[dict]:
    """The pointer code of ``oracles.naive_parse``: each block's pred is the
    index of the block minus its last letter among the earlier blocks (-1 for
    the empty word), and its letter is its last letter."""
    blocks = naive_parse(text)
    return [{"pred": blocks[:i].index(b[:-1]) if b[:-1] else -1, "letter": int(b[-1])}
            for i, b in enumerate(blocks)]


def test_parse_word(capsys):
    code, out, _ = run(capsys, "parse", "--word", "00010110100001")
    assert code == 0
    obj = json.loads(out)
    assert obj["dict_size"] == 7
    assert obj["comp"] == pytest.approx(1.4037, abs=1e-4)
    assert obj["tree"]["vertices"] == 8


def test_parse_empty_word_reports_null_comp(capsys):
    code, out, _ = run(capsys, "parse", "--word", "")
    assert code == 0
    assert json.loads(out)["comp"] is None


def test_parse_rejects_bad_letter(capsys):
    code, _, err = run(capsys, "parse", "--word", "0102")
    assert code == 2
    assert "offset 3" in err


def test_parse_emit_code_file(capsys, tmp_path):
    path = tmp_path / "code.json"
    code, _, _ = run(capsys, "parse", "--word", "0001010100011",
                     "--emit-code", str(path))
    assert code == 0
    entries = json.loads(path.read_text())
    assert entries[0] == {"pred": -1, "letter": 0}
    assert entries == naive_code("0001010100011")


def test_parse_emit_code_file_for_the_empty_word(capsys, tmp_path):
    path = tmp_path / "code.json"
    code, out, _ = run(capsys, "parse", "--word", "", "--emit-code", str(path))
    assert code == 0
    assert json.loads(out)["blocks"] == 0
    assert path.read_text() == "[]\n"
    assert json.loads(path.read_text()) == naive_code("")


def test_ratio(capsys):
    code, out, _ = run(capsys, "ratio", "--word", "0")
    assert code == 0
    assert json.loads(out)["comp"] == 0.0


def test_align_report(capsys):
    code, out, _ = run(capsys, "align", "--word", "001010100011", "--front", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["violations"] == {"0": 1, "1": 1, "2": 1}


def test_debruijn_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "debruijn", "--k", "3", "--prefix", "01")
    assert code == 0
    assert out.strip().startswith("01")
    assert len(out.strip()) == 10

    path = tmp_path / "db.txt"
    code, _, _ = run(capsys, "debruijn", "--k", "5", "--out", str(path))
    assert code == 0
    assert len(read_word_file(path)) == 36


def test_debruijn_prefix_no_circuit_holds_exits_2(capsys):
    # 0000 is in no order-3 de Bruijn word: every rung of the seed ladder fails
    code, out, err = run(capsys, "debruijn", "--k", "3", "--prefix", "0000")
    assert code == 2
    assert out == ""
    assert "no generated de Bruijn word" in err


def test_packed_file_round_trip(capsys, tmp_path):
    path = tmp_path / "db.lzcw"
    code, _, _ = run(capsys, "debruijn", "--k", "6", "--out", str(path), "--packed")
    assert code == 0
    assert path.read_bytes()[:4] == b"LZCW"
    assert len(read_word_file(path)) == 69
    code, out, _ = run(capsys, "parse", "--input", str(path))
    assert code == 0
    assert json.loads(out)["length"] == 69


def test_parse_rejects_malformed_packed_files(capsys, tmp_path):
    from lz78lab import pack_word
    blobs = {"truncated": pack_word("1" * 100)[:14],
             "trailing": pack_word("1" * 10) + b"junk",
             "padded": pack_word("1" * 10)[:-1] + b"\x83"}   # bit 7 set after 10 letters
    for name, blob in blobs.items():
        path = tmp_path / f"{name}.lzcw"
        path.write_bytes(blob)
        code, out, err = run(capsys, "parse", "--input", str(path))
        assert code == 2, name
        assert out == ""
        assert "packed word" in err


def test_construct_toy(capsys, tmp_path):
    out_path = tmp_path / "w.txt"
    code, out, _ = run(capsys, "construct", "toy", "--k", "5",
                       "--out", str(out_path), "--report", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["s"] == 36
    assert obj["green_units_ok"] is True
    assert obj["dic_0w"] == obj["dic_aw"]
    assert len(read_word_file(out_path)) == obj["n"]


def test_construct_general(capsys):
    code, out, _ = run(capsys, "construct", "general", "--n", str(1 << 14),
                       "--l", "64", "--seed", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["sync_ok"] is True
    assert obj["upper_bound_ok"] is True
    assert obj["n"] == 1 << 14


def test_catastrophe_text(capsys):
    code, out, _ = run(capsys, "catastrophe", "--k", "6")
    assert code == 0
    assert "dic(0w)" in out


def test_catastrophe_rejects_out_of_range_k(capsys):
    # both commands share construct_toy's bounds; k = 17 would lay out
    # about 2^33 letters, so it must be refused before the de Bruijn word
    for command in (["catastrophe"], ["construct", "toy"]):
        for k in ("3", "17"):
            code, _, err = run(capsys, *command, "--k", k)
            assert code == 2, (command, k)
            assert "k must be" in err


@pytest.mark.parametrize("argv", [["parse", "--word", "0é1"], ["ratio", "--word", "é"],
                                  ["align", "--word", "0é1"],
                                  ["debruijn", "--k", "5", "--prefix", "0é"]])
def test_non_ascii_letter_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "'é'" in err


@pytest.mark.parametrize("argv", [["infinite", "--l0", "0", "--gamma", "0.1",
                                   "--budget", "100000"],
                                  ["infinite", "--l0", "-4", "--gamma", "0.1",
                                   "--budget", "100000"],
                                  ["debruijn", "--k", "25"]])
def test_out_of_range_sizes_exit_2(capsys, monkeypatch, argv):
    # l0 = 0 and -4 used to end in a math domain error traceback; k = 25 must
    # be refused before the de Bruijn word is built, so building fails here
    def build(k, seed):
        raise AssertionError("the circuit was built")

    monkeypatch.setattr("lz78lab.generators._eulerian_cycle", build)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["construct", "general", "--n", "65536", "--l", "64", "--seed", "-1"],
    ["family-sample", "--n", "65536", "--l", "64", "--seed", "-1"],
    ["construct", "toy", "--k", "6", "--seed", "-1"],
    ["catastrophe", "--k", "6", "--seed", "-3"],
    ["debruijn", "--k", "5", "--seed", "-2"],
    ["infinite", "--l0", "256", "--gamma", "0.1", "--budget", "100000", "--seed", "-1"],
    ["bound-fuzz", "--trials", "3", "--seed", "-1"],
], ids=["construct-general", "family-sample", "construct-toy", "catastrophe",
        "debruijn", "infinite", "bound-fuzz"])
def test_negative_seed_exits_2(capsys, argv):
    # numpy's SeedSequence used to end these in a ValueError traceback
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["family-sample", "--n", str(10 ** 30), "--l", "1024"],
    ["construct", "general", "--n", str(1 << 34), "--l", "1024"],
    ["infinite", "--l0", "256", "--gamma", "0.1", "--budget", str(10 ** 12)],
    ["bound-fuzz", "--trials", "1", "--max-len", str(10 ** 15)],
], ids=["family-sample", "construct-general", "infinite", "bound-fuzz"])
def test_lengths_beyond_the_parsers_node_ids_exit_2(capsys, monkeypatch, argv):
    # each would need more than parsing.MAX_NODES dictionary nodes; they used
    # to run until stopped or fail allocating, so drawing and parsing fail here
    def fail(*args, **kwargs):
        raise AssertionError("a word was drawn or parsed")

    for target in ("lz78lab.general.random_word", "lz78lab.infinite.random_word",
                   "lz78lab.cli.random_word", "lz78lab.cli.parse",
                   "lz78lab.parsing.StreamParser.feed"):
        monkeypatch.setattr(target, fail)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "for the parser's node ids" in err


def test_catastrophe_smallest_order_is_fast(capsys):
    import time
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "catastrophe", "--k", "5")
    assert code == 0
    assert time.perf_counter() - t0 < 1.0
    assert "dic(0w)" in out


def test_bound_fuzz(capsys):
    code, out, _ = run(capsys, "bound-fuzz", "--trials", "60",
                       "--max-len", "300", "--seed", "9")
    assert code == 0
    obj = json.loads(out)
    assert obj["violation"] is False
    assert obj["max_ratio"] <= 3


@pytest.mark.parametrize("max_len", ["0", "-5"])
def test_bound_fuzz_rejects_max_len_below_one(capsys, max_len):
    code, out, err = run(capsys, "bound-fuzz", "--trials", "3", "--max-len", max_len)
    assert code == 2
    assert out == ""
    assert "max-len must be >= 1" in err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["construct", "toy", "--k", "6"],
    ["catastrophe", "--k", "6"],
    ["construct", "general", "--n", str(1 << 14), "--l", "64"],
    ["family-sample", "--n", str(1 << 14), "--l", "64"],
    ["infinite", "--l0", "256", "--budget", "150000"],
], ids=["construct-toy", "catastrophe", "construct-general", "family-sample",
        "infinite"])
def test_non_finite_gamma_exits_2(capsys, argv, gamma):
    code, out, err = run(capsys, *argv, "--gamma", gamma)
    assert code == 2
    assert out == ""
    assert "gamma must be finite" in err


@pytest.mark.parametrize("argv", [
    ["construct", "toy", "--k", "6"],
    ["catastrophe", "--k", "6"],
    ["construct", "general", "--n", str(1 << 16), "--l", "64"],
    ["family-sample", "--n", str(1 << 16), "--l", "64"],
    ["infinite", "--l0", "256", "--budget", "150000"],
], ids=["construct-toy", "catastrophe", "construct-general", "family-sample",
        "infinite"])
def test_huge_finite_gamma_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--gamma", "1e308")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["construct", "general", "--n", str(1 << 16), "--l", "64"],
    ["family-sample", "--n", str(1 << 16), "--l", "64"],
    ["infinite", "--l0", "256", "--budget", "150000"],
], ids=["construct-general", "family-sample", "infinite"])
def test_tiny_gamma_exits_2(capsys, argv):
    # no family meets P2 at m = 1, and infinite's 2^p_0 would overflow
    code, out, err = run(capsys, *argv, "--gamma", "1e-300")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unopenable_word_files_exit_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    for argv in (["parse", "--input", missing], ["curve", "--input", missing],
                 ["construct", "toy", "--k", "5",
                  "--out", str(tmp_path / "no-such-dir" / "w.txt")]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv


@pytest.mark.parametrize("command", ["parse", "ratio", "align"])
def test_word_and_input_together_exit_2(capsys, tmp_path, command):
    # one word per run: a second source is refused, not silently ignored
    path = tmp_path / "w.txt"
    path.write_text("0110\n")
    for argv in (["--word", "0101", "--input", str(path)],
                 ["--input", str(path), "--word", "0101"]):
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err, argv


def test_family_sample_and_curve(capsys, tmp_path):
    fam = tmp_path / "family.txt"
    code, out, _ = run(capsys, "family-sample", "--n", str(1 << 14),
                       "--l", "64", "--seed", "1", "--out", str(fam))
    assert code == 0
    assert "q" not in json.loads(out)

    word = tmp_path / "w.txt"
    run(capsys, "construct", "toy", "--k", "5", "--out", str(word))
    code, out, _ = run(capsys, "curve", "--input", str(word), "--stride", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "n,comp"
    assert lines[2].startswith("100,")


def test_family_sample_out_writes_the_reported_family(capsys, tmp_path):
    # the file is an export: its words are the ones the report lists without --out
    flags = ["family-sample", "--n", str(1 << 14), "--l", "64", "--seed", "1"]
    code, out, _ = run(capsys, *flags)
    assert code == 0
    words = json.loads(out)["words"]
    fam = tmp_path / "family.txt"
    code, out, _ = run(capsys, *flags, "--out", str(fam))
    assert code == 0
    assert json.loads(out)["words"] is None
    header, *lines = fam.read_text().splitlines()
    assert header.startswith("# lz78lab-family schema=1 ")
    fields = header.split()
    for field in ("n=16384", "l=64", "seed=1", "exact=False"):
        assert field in fields
    assert lines == words


def test_infinite(capsys):
    code, out, _ = run(capsys, "infinite", "--l0", "256", "--gamma", "0.1",
                       "--budget", "150000", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["tail_separated"] is True
    assert obj["in_theorem_range"] is False


def test_parse_ten_million_letter_file(capsys, tmp_path):
    import numpy as np
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([10_000_000])))
    path = tmp_path / "big.txt"
    path.write_bytes((rng.integers(0, 2, size=10 ** 7, dtype=np.uint8)
                      + ord("0")).tobytes() + b"\n")
    code, out, _ = run(capsys, "parse", "--input", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["length"] == 10 ** 7
    assert obj["dict_size"] > 0


def test_determinism_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "construct", "general", "--n", str(1 << 14),
                           "--l", "64", "--seed", "7")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "bound-fuzz", "--trials", "40",
                           "--max-len", "200", "--seed", "3")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def _shift_first_long_boundary(cw):
    """``cw`` with one block boundary of its parse of 0w moved by a letter."""
    starts = list(cw.red.starts)
    b = next(i for i in range(1, len(starts)) if starts[i] - starts[i - 1] > 1)
    starts[b] -= 1
    cw.red = cw.red._replace(starts=starts)
    return cw


@pytest.mark.parametrize("target,argv", [
    ("lz78lab.cli.construct_toy", ["catastrophe", "--k", "6"]),
    ("lz78lab.cli.construct_toy", ["construct", "toy", "--k", "6"]),
    ("lz78lab.general.construct_general",
     ["construct", "general", "--n", str(1 << 14), "--l", "64", "--seed", "1"]),
    ("lz78lab.infinite.build_prefix",
     ["infinite", "--l0", "256", "--gamma", "0.1", "--budget", "150000", "--seed", "3"]),
])
def test_a_tampered_parse_of_0w_exits_1(capsys, monkeypatch, target, argv):
    # the verifiers certify the construction's parse of 0w instead of
    # parsing 0w again, so a wrong one must fail the command, not pass it
    module, name = target.rsplit(".", 1)
    build = getattr(importlib.import_module(module), name)
    monkeypatch.setattr(target, lambda *a, **kw: _shift_first_long_boundary(build(*a, **kw)))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("failure: block")


def test_catastrophe_feeds_three_letters_per_letter_of_w(capsys, monkeypatch):
    # one parse of 0w (the construction's, certified), one of w and one of 1w:
    # 3n + 2 letters fed in all, where re-parsing 0w fed 4n + 3
    from lz78lab.parsing import StreamParser
    fed = []
    feed = StreamParser.feed

    def counting(self, data):
        fed.append(len(data))
        return feed(self, data)

    monkeypatch.setattr(StreamParser, "feed", counting)
    code, out, _ = run(capsys, "catastrophe", "--k", "8", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["gadget_count"] == 0
    assert sum(fed) == 3 * report["n"] + 2


# the first 16 hex digits of the SHA-256 of each --out file, text and packed,
# as the commands wrote it from the joined word before the segment table
OUT_COMMANDS = {
    "toy": (["construct", "toy", "--k", "7", "--seed", "1"],
            "5fe5fbdfbea0b23c", "4ea7f68411fa0e36"),
    "general": (["construct", "general", "--n", str(1 << 14), "--l", "64", "--seed", "1"],
                "f33964f59354bfc0", "c78d852cebcd3992"),
    "infinite": (["infinite", "--l0", "256", "--gamma", "0.1", "--budget", "60000",
                  "--seed", "3"], "b17d4a83bb789d05", "d7f59082f9ddd5f4"),
}


@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("name", sorted(OUT_COMMANDS))
def test_out_writes_the_word_from_its_segment_table(capsys, monkeypatch, tmp_path,
                                                    name, packed):
    # --out writes the segment table a slice at a time, here 64 letters, and
    # no command joins w (ConstructedWord.word): the files are those the
    # joined word gave, and each packed chunk but the last is whole bytes
    argv, text_digest, packed_digest = OUT_COMMANDS[name]
    monkeypatch.setattr(words, "SLICE", 64)
    chunks, pack = [], words._packed
    monkeypatch.setattr(words, "_packed", lambda piece: chunks.append(len(piece)) or pack(piece))

    def joined(cw):
        raise AssertionError("a command joined the word")

    monkeypatch.setattr(ConstructedWord, "word", property(joined))
    path = tmp_path / "w"
    code, out, _ = run(capsys, *argv, "--out", str(path), *(["--packed"] if packed else []))
    assert code == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert digest == (packed_digest if packed else text_digest)
    if packed:
        assert len(chunks) > 10 and all(n % 8 == 0 for n in chunks[:-1])
        assert sum(chunks) == len(read_word_file(path))
    else:
        assert not chunks


def test_catastrophe_never_joins_the_word(capsys, monkeypatch):
    def joined(cw):
        raise AssertionError("catastrophe joined the word")

    monkeypatch.setattr(ConstructedWord, "word", property(joined))
    code, out, _ = run(capsys, "catastrophe", "--k", "9", "--format", "json")
    assert code == 0 and json.loads(out)["dic_1w"] > 0
