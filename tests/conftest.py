import pytest

from _oracles import language_for_path
from codegap.languages import get_language
from codegap.synth import write_mixed_corpus
from codegap.tree import parse


@pytest.fixture(scope="session")
def mixed_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mixed_corpus")
    paths = write_mixed_corpus(root, seed=3, files_per_lang=30)
    return root, paths


@pytest.fixture(scope="session")
def parsed_corpus(mixed_corpus):
    _, paths = mixed_corpus
    trees = []
    for path in paths:
        lang = language_for_path(path)
        trees.append((path, parse(path.read_text(encoding="utf-8"), lang)))
    return trees


@pytest.fixture(scope="session")
def python_lang():
    return get_language("python")


@pytest.fixture(scope="session")
def java_lang():
    return get_language("java")
