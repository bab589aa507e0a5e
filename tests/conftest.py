import os
from pathlib import Path

import pytest

from codereadability.corpus import load_snippet, preprocess
from codereadability.dictionary import DictionaryProvider, load_dictionary

WORDNET_MINI = Path(__file__).parent / "data" / "wordnet_mini"


@pytest.fixture(scope="session")
def bundled_dict() -> DictionaryProvider:
    return load_dictionary()


@pytest.fixture(scope="session")
def wordnet_dict() -> DictionaryProvider:
    return load_dictionary(WORDNET_MINI)


def no_child_left() -> bool:
    """Whether this process has no child process, running or exited and not
    waited for."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def snip(text: str, language: str = "python", id: str = "s"):
    """Preprocessed snippet from inline source text."""
    return preprocess(load_snippet(text, language, id))
