"""LZ'78 parsing lab: dictionary parsing, aligned red/green block analysis,
and the adversarial constructions behind the one-bit catastrophe."""

from .alignment import AlignedParsing, RedClass, align, violation_table
from .construction import ChainRecord, ConstructedWord, Segment
from .errors import (ConstructionError, MalformedCodeError, ParameterError,
                     SamplingError)
from .general import (Family, GeneralReport, Params, check_p1, check_p2,
                      construct_general, derive_params, sample_family, save_family,
                      verify_general)
from .generators import DeBruijnWord, de_bruijn, pref
from .infinite import (Schedule, build_prefix, ratio_curve, schedule,
                       tail_separation)
from .parsing import (LzCode, Parsing, StreamParser, TreeStats, comp_ratio,
                      decode, dict_size, encode, parse, tree_stats)
from .toy import ToyReport, construct_toy, verify_toy
from .words import Word, pack_word, read_word_file, unpack_word, write_word_file

__version__ = "0.1.0"

__all__ = [
    "AlignedParsing", "ChainRecord", "ConstructedWord", "ConstructionError",
    "DeBruijnWord", "Family", "GeneralReport", "LzCode", "MalformedCodeError",
    "ParameterError", "Params", "Parsing", "RedClass", "SamplingError",
    "Schedule", "Segment", "StreamParser", "ToyReport", "TreeStats", "Word",
    "align", "build_prefix", "check_p1", "check_p2", "comp_ratio",
    "construct_general", "construct_toy", "de_bruijn", "decode", "derive_params",
    "dict_size", "encode", "pack_word", "parse", "pref", "ratio_curve",
    "read_word_file", "sample_family", "save_family", "schedule",
    "tail_separation", "tree_stats", "unpack_word", "verify_general",
    "verify_toy", "violation_table", "write_word_file",
]
