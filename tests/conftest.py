import pytest

from kmaxseg import data


@pytest.fixture
def generate_calls(monkeypatch):
    """Route ``data.generate`` through a recorder; returns the list of indices it renders."""
    indices = []
    generate = data.generate

    def counting(spec, index):
        indices.append(index)
        return generate(spec, index)

    monkeypatch.setattr(data, "generate", counting)
    return indices
