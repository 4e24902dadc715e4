"""No module of the package reaches 4,096 parser tokens.

The benchmark's processes run without a bytecode cache, so every cold
command compiles each module from source.  Measured when ``jsontext.py`` was
split out of ``bundle.py``: near 4,096 tokens CPython's parser doubles a
buffer, and the compile peak moves ``measles-dp45`` ``peak_rss_mb``.  A module
that would pass the limit is split, not grown.  Tokens are counted as the
tokenizer yields them, without comments and non-logical newlines.
"""
import io
import tokenize
from pathlib import Path

import pytest

import stockflow

LIMIT = 4096
PACKAGE = Path(stockflow.__file__).resolve().parent
SKIPPED = {tokenize.COMMENT, tokenize.NL}


def parser_tokens(text: str) -> int:
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type not in SKIPPED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_limit(path):
    assert parser_tokens(path.read_text(encoding="utf-8")) < LIMIT
