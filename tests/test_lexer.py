"""Lexer unit + property tests.

The master-pattern :func:`tokenize` is checked against :class:`Lexer`, the
per-character scanner it replaced, kept here as the reference oracle: over
every corpus family's golden source, mutants, SVA-combined source and
syntax corruptions, and over random ASCII fragment strings.  Equal means
the same ``(kind, text, line)`` stream, or the same error message at the
same line.
"""

import random
import time
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.bugs.injector import BugInjector
from repro.corpus.generator import CorpusGenerator
from repro.corpus.registry import TEMPLATE_FAMILIES
from repro.corpus.syntax_breaker import BREAKERS
from repro.engine.rng import derive_rng
from repro.oracles.sva import SvaOracle
from repro.sva.insert import compile_with_sva
from repro.verilog.errors import VerilogLexError
from repro.verilog.lexer import (
    KEYWORDS,
    MAX_LITERAL_WIDTH,
    MULTI_OPS,
    SINGLE_OPS,
    Token,
    parse_number_literal,
    tokenize,
)


def kinds(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_keywords_and_identifiers(self):
        tokens = kinds("module foo endmodule")
        assert tokens == [("kw", "module"), ("id", "foo"), ("kw", "endmodule")]

    def test_eof_terminates_stream(self):
        assert tokenize("")[-1].kind == "eof"

    def test_operators_maximal_munch(self):
        tokens = [t.text for t in tokenize("a <= b <<< 2 == c")[:-1]]
        assert tokens == ["a", "<=", "b", "<<<", "2", "==", "c"]

    def test_implication_operators(self):
        tokens = [t.text for t in tokenize("a |-> b |=> c ##1 d")[:-1]]
        assert "|->" in tokens and "|=>" in tokens and "##" in tokens

    def test_system_task_token(self):
        tokens = kinds("$error $past")
        assert tokens == [("sys", "$error"), ("sys", "$past")]

    def test_string_literal(self):
        tokens = tokenize('"hello world";')
        assert tokens[0].kind == "str"
        assert tokens[0].text == "hello world"

    def test_string_with_escape(self):
        tokens = tokenize(r'"a\"b"')
        assert tokens[0].text == 'a"b'

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\n\nc")
        lines = [t.line for t in tokens[:-1]]
        assert lines == [1, 2, 4]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment_skipped(self):
        assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]

    def test_block_comment_preserves_lines(self):
        tokens = tokenize("/* one\ntwo */ a")
        assert tokens[0].line == 2

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("/* never closed")

    def test_directive_skipped(self):
        assert kinds("`timescale 1ns/1ps\na") == [("id", "a")]


class TestNumbers:
    def test_plain_decimal(self):
        assert parse_number_literal("42") == (None, 42, 0)

    def test_sized_binary(self):
        assert parse_number_literal("4'b1010") == (4, 10, 0)

    def test_sized_decimal(self):
        assert parse_number_literal("8'd255") == (8, 255, 0)

    def test_sized_hex(self):
        assert parse_number_literal("12'hABC") == (12, 0xABC, 0)

    def test_underscores_ignored(self):
        assert parse_number_literal("8'b1010_1010") == (8, 0xAA, 0)

    def test_x_bits_masked(self):
        width, value, xmask = parse_number_literal("4'b1x0x")
        assert width == 4
        assert xmask == 0b0101
        assert value == 0b1000

    def test_truncation_to_width(self):
        width, value, _ = parse_number_literal("4'd255")
        assert value == 15

    def test_signed_marker_accepted(self):
        assert parse_number_literal("8'sd5") == (8, 5, 0)

    def test_size_bound_is_the_lrm_minimum(self):
        assert MAX_LITERAL_WIDTH == 65536
        assert parse_number_literal("65536'h1") == (65536, 1, 0)
        with pytest.raises(ValueError, match="65537"):
            parse_number_literal("65537'h1")
        with pytest.raises(ValueError, match="1000000000"):
            parse_number_literal("1000000000'h1")

    def test_bad_base_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("4'q1010")

    def test_missing_digits_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("4'b;")

    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_roundtrip_binary_literals(self, width, value):
        value &= (1 << width) - 1
        text = f"{width}'b{value:0{width}b}"
        parsed_width, parsed_value, xmask = parse_number_literal(text)
        assert parsed_width == width
        assert parsed_value == value
        assert xmask == 0

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=0, max_value=65535))
    def test_roundtrip_decimal_literals(self, width, value):
        value &= (1 << width) - 1
        parsed = parse_number_literal(f"{width}'d{value}")
        assert parsed == (width, value, 0)


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(VerilogLexError):
            tokenize("a \\ b")

    def test_unterminated_string(self):
        with pytest.raises(VerilogLexError):
            tokenize('"never closed')

    def test_newline_in_string(self):
        with pytest.raises(VerilogLexError):
            tokenize('"line\nbreak"')


class TestTokenHelpers:
    def test_is_op(self):
        token = Token("op", "+", 1)
        assert token.is_op("+", "-")
        assert not token.is_op("*")

    def test_is_kw(self):
        token = Token("kw", "module", 1)
        assert token.is_kw("module")
        assert not token.is_kw("endmodule")


# -- reference oracle: the per-character scanner ------------------------------


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


class Lexer:
    """Single-pass scanner over a source string."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.tokens: List[Token] = []

    def error(self, message: str) -> VerilogLexError:
        return VerilogLexError(message, self.line)

    def peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return ""

    def advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                self.pos += 1

    def tokenize(self) -> List[Token]:
        while self.pos < len(self.source):
            ch = self.peek()
            if ch in " \t\r\n":
                self.advance()
            elif ch == "/" and self.peek(1) == "/":
                self._skip_line_comment()
            elif ch == "/" and self.peek(1) == "*":
                self._skip_block_comment()
            elif ch.isdigit() or (ch == "'" and self.peek(1) in "bdohBDOH"):
                self._lex_number()
            elif _is_ident_start(ch):
                self._lex_identifier()
            elif ch == "$":
                self._lex_system_task()
            elif ch == '"':
                self._lex_string()
            elif ch == "`":
                # Ignore compiler directives (`timescale etc.) to end of line.
                self._skip_line_comment()
            else:
                self._lex_operator()
        self.tokens.append(Token("eof", "", self.line))
        return self.tokens

    def _skip_line_comment(self) -> None:
        while self.pos < len(self.source) and self.peek() != "\n":
            self.advance()

    def _skip_block_comment(self) -> None:
        self.advance(2)
        while self.pos < len(self.source):
            if self.peek() == "*" and self.peek(1) == "/":
                self.advance(2)
                return
            self.advance()
        raise self.error("unterminated block comment")

    def _lex_number(self) -> None:
        start_line = self.line
        text = []
        # Optional decimal size prefix.
        while self.peek().isdigit() or self.peek() == "_":
            text.append(self.peek())
            self.advance()
        if self.peek() == "'":
            text.append("'")
            self.advance()
            if self.peek() in "sS":
                text.append(self.peek())
                self.advance()
            base = self.peek().lower()
            if base not in "bdoh":
                raise self.error(f"bad base character {self.peek()!r} in number")
            text.append(self.peek())
            self.advance()
            digits = "0123456789abcdefABCDEFxXzZ?_"
            if not (self.peek() and self.peek() in digits):
                raise self.error("missing digits after base specifier")
            while self.peek() and self.peek() in digits:
                text.append(self.peek())
                self.advance()
        self.tokens.append(Token("num", "".join(text), start_line))

    def _lex_identifier(self) -> None:
        start_line = self.line
        text = []
        while self.peek() and _is_ident_char(self.peek()):
            text.append(self.peek())
            self.advance()
        word = "".join(text)
        kind = "kw" if word in KEYWORDS else "id"
        self.tokens.append(Token(kind, word, start_line))

    def _lex_system_task(self) -> None:
        start_line = self.line
        text = ["$"]
        self.advance()
        while self.peek() and _is_ident_char(self.peek()):
            text.append(self.peek())
            self.advance()
        word = "".join(text)
        if word == "$":
            raise self.error("stray '$'")
        self.tokens.append(Token("sys", word, start_line))

    def _lex_string(self) -> None:
        start_line = self.line
        self.advance()
        text = []
        while True:
            ch = self.peek()
            if not ch:
                raise self.error("unterminated string literal")
            if ch == '"':
                self.advance()
                break
            if ch == "\\":
                self.advance()
                text.append(self.peek())
                self.advance()
                continue
            if ch == "\n":
                raise self.error("newline in string literal")
            text.append(ch)
            self.advance()
        self.tokens.append(Token("str", "".join(text), start_line))

    def _lex_operator(self) -> None:
        start_line = self.line
        for op in MULTI_OPS:
            if self.source.startswith(op, self.pos):
                self.advance(len(op))
                self.tokens.append(Token("op", op, start_line))
                return
        ch = self.peek()
        if ch in SINGLE_OPS:
            self.advance()
            self.tokens.append(Token("op", ch, start_line))
            return
        raise self.error(f"unexpected character {ch!r}")


def lex_both(source):
    """``(master-pattern result, reference result)`` for ``source``."""
    def run(lex):
        try:
            return [(t.kind, t.text, t.line) for t in lex(source)]
        except VerilogLexError as exc:
            return ("error", exc.message, exc.line)
    return run(tokenize), run(lambda text: Lexer(text).tokenize())


def assert_same_tokens(source):
    new, reference = lex_both(source)
    assert new == reference, source


def family_texts(family: str) -> List[str]:
    """Golden, mutant, SVA-combined and corrupted sources of one family."""
    seed = CorpusGenerator(seed=77).generate_one(family=family)
    texts = [seed.source]
    for record in BugInjector(random.Random(5)).inject_many(seed.source, 4):
        texts.append(record.buggy_source)
    proposals = SvaOracle(derive_rng(77, "test_lexer", family)).propose(seed)
    blocks = [block for p in proposals for block in p.blocks()]
    texts.append(compile_with_sva(seed.source, blocks).source_text)
    for breaker in BREAKERS.values():
        broken = breaker(seed.source, random.Random(5))
        if broken is not None:
            texts.append(broken)
    return texts


class TestOracleCorpus:
    @pytest.mark.parametrize("family", sorted(TEMPLATE_FAMILIES))
    def test_family_token_streams_identical(self, family):
        texts = family_texts(family)
        assert len(texts) >= 3
        for text in texts:
            assert_same_tokens(text)


#: Fragments for the property: every lexeme class, each scanner edge case
#: (a stray "$", an unterminated "/*", "4'sbd?'b?", a trailing quote or
#: base, an escaped newline in a string, form feed) and the characters
#: between them.
FRAGMENTS = MULTI_OPS + sorted(SINGLE_OPS) + [
    "module", "end", "a", "b1", "_x$", "$past", "$$", "0", "4", "1_0", "d",
    "h", "s", "S", "x", "z", "F", "?", "'", "'b", "'h", "'s", "4'", "4's", "4'sb", "8'hf",
    "4'sbd?'b?", "'b?", '"', '"ab"', "\\", '"a\\\nb"', "/*", "*/", "//",
    "`", " ", "\t", "\r", "\n", "\f", "\x00", "\x7f",
]


class TestOracleProperty:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(FRAGMENTS), max_size=16))
    def test_fragment_strings_identical(self, fragments):
        assert_same_tokens("".join(fragments))

    @pytest.mark.parametrize("source", [
        "$", "a $ b", "$\n", "/* never", "a /* x\ny", "4'sbd?'b?",
        "'", "a '", "4'", "4's", "4'S", "4'sS1", "4'q1", "4'b", "'b\n",
        '"a\\\nb" c', '"a\\', '"a\nb"', '"abc', "\f", "a\fb",
    ])
    def test_edge_cases_identical(self, source):
        assert_same_tokens(source)

    def test_trailing_base_reports_missing_digits(self):
        for source in ("'", "4'", "4's"):
            with pytest.raises(VerilogLexError,
                               match="missing digits after base specifier"):
                tokenize(source)

    def test_stray_dollar_is_not_an_operator(self):
        with pytest.raises(VerilogLexError, match="stray"):
            tokenize("a $ b")

    def test_unterminated_comment_reports_last_line(self):
        with pytest.raises(VerilogLexError) as info:
            tokenize("a\n/* one\ntwo\n")
        assert info.value.line == 4

    def test_escaped_newline_in_string_moves_line(self):
        tokens = tokenize('"a\\\nb" c')
        assert (tokens[0].text, tokens[0].line) == ("a\nb", 1)
        assert (tokens[1].text, tokens[1].line) == ("c", 2)


class TestMalformedInputCost:
    """A malformed input fails in time linear in its length.  An unanchored
    search would retry every later position, and each of these inputs
    fails in O(n) at every position."""

    @pytest.mark.parametrize("source", [
        "1" * 50_000 + "'q", "1" * 50_000 + "'", '"' + '\\"' * 25_000,
        "/*" * 25_000,
    ], ids=["digits-bad-base", "digits-quote", "escaped-quotes",
            "open-comments"])
    def test_fails_fast_with_the_reference_diagnostic(self, source):
        start = time.perf_counter()
        with pytest.raises(VerilogLexError):
            tokenize(source)
        assert time.perf_counter() - start < 1.0
        new, reference = lex_both(source)
        assert new[0] == "error"
        assert new == reference


class TestNonAscii:
    @pytest.mark.parametrize("char", ["\u00b2", "\u00e9", "\u0663"])
    def test_outside_comment_or_string_raises(self, char):
        for source in (char, f"a{char}", f"4'b1{char}", f"x = {char}1;"):
            with pytest.raises(VerilogLexError, match="unexpected character"):
                tokenize(source)

    @pytest.mark.parametrize("char", ["\u00b2", "\u00e9", "\u0663"])
    def test_inside_comment_or_string_accepted(self, char):
        source = f'// {char}\n/* {char} */ $display("{char}");'
        assert [(t.kind, t.text) for t in tokenize(source)[:-1]] == [
            ("sys", "$display"), ("op", "("), ("str", char), ("op", ")"),
            ("op", ";")]
        assert_same_tokens(source)
