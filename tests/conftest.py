import os

import pytest

from crossres import (Contraction0, InputError, Presentation, RunConfig,
                      bfs_tree, build_h1, build_state, enumerate_presentation,
                      parse_word)

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def s3_config(**kw) -> RunConfig:
    defaults = dict(presentation=data_path("s3.pres"), max_level=4,
                    tree=data_path("s3.tree"), h1=data_path("s3.h1"),
                    order=data_path("s3.order"))
    defaults.update(kw)
    return RunConfig(**defaults)


def assert_input_errors(read, path, cases):
    """read(path) raises InputError for each (file text, message) case,
    and the message is the file's path followed by the case's message
    prefix (`:line: ...` or `: ...`).  A missing file is an InputError."""
    for text, prefix in cases:
        path.write_text(text)
        with pytest.raises(InputError) as err:
            read(str(path))
        assert str(err.value).startswith(f"{path}{prefix}"), text
    path.unlink()
    with pytest.raises(InputError):
        read(str(path))


@pytest.fixture(scope="session")
def s3_presentation():
    return Presentation(["x", "y"], [("r", parse_word("x^3")),
                                     ("s", parse_word("y^2")),
                                     ("t", parse_word("x y x y"))])


@pytest.fixture(scope="session")
def s3_graph(s3_presentation):
    return enumerate_presentation(s3_presentation)


@pytest.fixture(scope="session")
def s3_contraction(s3_graph):
    return Contraction0(s3_graph, bfs_tree(s3_graph))


@pytest.fixture(scope="session")
def s3_h1(s3_contraction):
    return build_h1(s3_contraction, "search")


@pytest.fixture(scope="session")
def s3_state():
    """The fixture pipeline: declared files for tree, h1, order and pins.
    Session-scoped; tests must not mutate it."""
    return build_state(s3_config())
