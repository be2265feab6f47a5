import pytest

from ytx import ctx


@pytest.fixture
def raw_factorize_calls(monkeypatch):
    """The length of each key column ``ctx._factorize`` groups by a dict
    pass from here on, that is, each one that is not already a grouped
    column."""
    calls = []
    factorize = ctx._factorize

    def counted(keys):
        if not isinstance(keys, ctx._GroupedKeys):
            calls.append(len(keys))
        return factorize(keys)

    monkeypatch.setattr(ctx, "_factorize", counted)
    return calls
