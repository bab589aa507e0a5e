"""Module docstring: the sample exercises every lexer path.

It spans lines, holds a \"quoted\" word and ends here."""

import re as _re  # aliased import

PATTERN = r"\d+(?:\.\d+)?"
BYTES = rb'\x00\xff' + Rb"raw" + br'\\'
MESSAGE = f"{PATTERN!r} matched {len(BYTES):>4} bytes"
ESCAPED = 'it\'s a "quote" and a \\ backslash'
TEXT = """not a docstring, it is assigned"""
TAIL = "unterminated string runs to the end of the line
JOIN = "a" """b after a string""" 'c'


def café(naïve, é=1):
	r'''Raw docstring in statement position.

	Continues with a tab and an escaped \''' quote.
	'''
	ratio = naïve ** 2 // 3 % 7 if naïve >= 0 else -naïve
	ratio **= 2; ratio //= 3; ratio >>= 1; ratio <<= 2
	values = [0x1F, 0b1010, 0o17, 1_000.5e-3, .5, 1., 3e+8, 10_000]
	digits = ٣ + 4 - ²  # Arabic-Indic three and a superscript two
	if (n := len(values)) > 2 and ratio != n:
		return values[1:n:2], {k: v for k, v in zip(values, values)}
	elif ratio <= 0 or not values:
		pass
	while ratio > 0:
		ratio -= 1
	for x in range(3):
		print(x, x@x if x else ~x ^ x & x | x)
	return lambda y: y -> None  # arrow outside an annotation


class Widget:  # form feed before this comment
    u"""Prefixed docstring."""  # trailing comment after it

    def method(self) -> "Widget":
        """Docstring left open over
        several lines with # not a comment
        and a trailing backslash \
        before it closes."""
        return self  # done
    'single-quoted string in statement position'

    def other(self):
        x = 1; """docstring after code on the line"""
        '''unterminated triple quote
