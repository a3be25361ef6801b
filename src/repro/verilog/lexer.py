"""Tokenizer for the Verilog/SVA subset.

:func:`tokenize` walks one compiled master pattern, ``_MASTER``, across the
source.  The pattern is an alternation of named groups, one per lexeme
class: ``skip`` (whitespace, ``//`` and ``/* */`` comments, and compiler
directives from a backtick to the end of the line), ``num``, ``id``
(identifiers and keywords), ``sys`` (system tasks), ``str``, ``op`` and,
last, ``bad``, which takes any one character.  Each match is one token or
one run of skipped text, and each starts where the previous one ended:
``bad`` keeps the scan anchored, so a position no token group takes costs
one failed attempt there, never a search of the rest of the source.  The line count
advances by the newlines in skipped text and in string literals (an escaped
newline), so diagnostics and the bug-location bookkeeping (the paper's
answers are judged by buggy *line*) stay exact.

Group order matters where two groups can start on the same character:

- ``skip`` comes before ``op``, so ``//`` and ``/*`` open comments rather
  than lexing as ``/``; ``op`` refuses a ``/`` that opens an unterminated
  ``/*``.
- ``sys`` comes before ``op``: a ``$`` always matches ``sys``, and a lone
  ``$`` is reported as stray, never lexed as the ``$`` of ``SINGLE_OPS``.
- Inside ``op`` the multi-character operators come first, longest first,
  then the single characters, so the alternation is maximal munch.

Verilog source is ASCII.  Every character class outside comments and
strings is spelled in ASCII, so any other character there matches no group
and raises "unexpected character" (``str.isdigit`` would take ``²`` for a
digit).  When ``bad`` matches, :func:`_lex_error` builds the diagnostic for
that position: a malformed number, string or block comment, or an
unexpected character, at the line where the scan stopped.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.verilog.errors import VerilogLexError

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "logic", "integer", "parameter", "localparam", "assign", "always",
    "always_ff", "always_comb", "posedge", "negedge", "or", "begin", "end",
    "if", "else", "case", "casez", "casex", "endcase", "default", "for",
    "genvar", "generate", "endgenerate", "initial", "signed",
    # SVA keywords
    "property", "endproperty", "assert", "assume", "cover", "disable",
    "iff", "sequence", "endsequence", "not",
}

SYSTEM_TASKS = {
    "$error", "$display", "$finish", "$past", "$rose", "$fell", "$stable",
    "$countones", "$onehot", "$onehot0", "$signed", "$unsigned", "$time",
}

# Multi-character operators, longest first so maximal munch works.
MULTI_OPS = [
    "|=>", "|->", "<<<", ">>>", "===", "!==", "==", "!=", "<=", ">=",
    "&&", "||", "<<", ">>", "**", "##", "+:", "-:", "::",
]

SINGLE_OPS = set("+-*/%&|^~!<>=?:;,.#@(){}[]$")


class Token:
    """One lexeme: a (kind, text, line) triple.

    ``kind`` is one of ``id``, ``kw``, ``num``, ``str``, ``sys``, ``op``,
    ``eof``.
    """

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, line={self.line})"

    def is_op(self, *texts: str) -> bool:
        return self.kind == "op" and self.text in texts

    def is_kw(self, *texts: str) -> bool:
        return self.kind == "kw" and self.text in texts


_NUM_DIGITS = "[0-9a-fA-FxXzZ?_]+"
# A string literal up to, not including, its closing quote.
_STR_OPEN = r'"(?:[^"\\\n]|\\[\s\S])*'

_MASTER = re.compile("|".join([
    r"(?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/|`[^\n]*)+)",
    # A plain decimal may not stop in front of a quote: "4'x" is a bad
    # sized number, not "4" then "'x".
    r"(?P<num>[0-9][0-9_]*(?:'[sS]?[bdohBDOH]" + _NUM_DIGITS + r"|(?![0-9_']))"
    r"|'[bdohBDOH]" + _NUM_DIGITS + ")",
    r"(?P<id>[A-Za-z_][A-Za-z0-9_$]*)",
    r"(?P<sys>\$[A-Za-z0-9_$]*)",
    "(?P<str>" + _STR_OPEN + '")',
    "(?P<op>" + "|".join(re.escape(op) for op in MULTI_OPS)
    + r"|/(?!\*)|[" + re.escape("".join(sorted(SINGLE_OPS - {"/"}))) + "])",
    # Any other character.  Every match then starts where the last one
    # ended, so the scan stops at the first character no token group takes.
    r"(?P<bad>[\s\S])",
]))

# Prefixes the error path re-reads: a number up to its base character and
# a string up to where it stopped.
_NUM_HEAD = re.compile(r"[0-9_]*'[sS]?")
_STR_HEAD = re.compile(_STR_OPEN)
_ESCAPE = re.compile(r"\\([\s\S])")


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` and return the token list (ending with eof)."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        if kind == "bad":
            raise _lex_error(source, match.start(), line)
        text = match.group()
        if kind == "skip":
            line += text.count("\n")
            continue
        if kind == "id":
            if text in KEYWORDS:
                kind = "kw"
        elif kind == "str":
            newlines = text.count("\n")
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(r"\1", text)
            append(Token(kind, text, line))
            line += newlines
            continue
        elif kind == "sys" and text == "$":
            raise VerilogLexError("stray '$'", line)
        append(Token(kind, text, line))
    append(Token("eof", "", line))
    return tokens


def _lex_error(source: str, pos: int, line: int) -> VerilogLexError:
    """The diagnostic for ``source[pos]``, where no token group matched."""
    ch = source[pos]
    if ch in "0123456789" or (ch == "'" and source[pos + 1:pos + 2] in "bdohBDOH"):
        # At end of input the slice is "", and "" is in every string: a
        # trailing quote, size or base reports missing digits.
        stop = _NUM_HEAD.match(source, pos).end()
        base = source[stop:stop + 1]
        if base.lower() not in "bdoh":
            return VerilogLexError(f"bad base character {base!r} in number", line)
        return VerilogLexError("missing digits after base specifier", line)
    if ch == '"':
        stop = _STR_HEAD.match(source, pos).end()
        line += source.count("\n", pos, stop)
        if source.startswith("\n", stop):
            return VerilogLexError("newline in string literal", line)
        return VerilogLexError("unterminated string literal", line)
    if source.startswith("/*", pos):
        return VerilogLexError("unterminated block comment",
                               line + source.count("\n", pos))
    return VerilogLexError(f"unexpected character {ch!r}", line)


#: The largest literal size decoded: the smallest limit the SystemVerilog
#: LRM lets a tool impose.  A larger size raises before ``1 << width``
#: would allocate it.
MAX_LITERAL_WIDTH = 1 << 16


def parse_number_literal(text: str) -> "tuple[Optional[int], int, int]":
    """Decode a Verilog number literal.

    Returns ``(width_or_None, value, xmask)`` where ``xmask`` has bits set
    at x/z digit positions.  Plain decimal integers return width ``None``
    (context-determined, treated as 32 by the elaborator).  Raises
    ``ValueError`` for a literal it cannot decode, including one sized
    above :data:`MAX_LITERAL_WIDTH` bits.
    """
    text = text.replace("_", "")
    if "'" not in text:
        return None, int(text), 0
    size_part, rest = text.split("'", 1)
    width = int(size_part) if size_part else None
    if width is not None and width > MAX_LITERAL_WIDTH:
        raise ValueError(f"literal size {width} exceeds {MAX_LITERAL_WIDTH}")
    if rest and rest[0] in "sS":
        rest = rest[1:]
    base_char = rest[0].lower()
    digits = rest[1:]
    base = {"b": 2, "d": 10, "o": 8, "h": 16}[base_char]
    bits_per_digit = {"b": 1, "d": 0, "o": 3, "h": 4}[base_char]
    value = 0
    xmask = 0
    if base == 10:
        if any(d in "xXzZ?" for d in digits):
            width_eff = width or 32
            return width, 0, (1 << width_eff) - 1
        value = int(digits)
    else:
        for d in digits:
            value <<= bits_per_digit
            xmask <<= bits_per_digit
            if d in "xXzZ?":
                xmask |= (1 << bits_per_digit) - 1
            else:
                value |= int(d, base)
    if width is not None:
        mask = (1 << width) - 1
        value &= mask
        xmask &= mask
    return width, value, xmask
