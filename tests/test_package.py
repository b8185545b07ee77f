"""The package's public names: every export resolves, once."""

import cityattract


def test_every_export_resolves():
    missing = [name for name in cityattract.__all__ if not hasattr(cityattract, name)]
    assert missing == []
    assert len(set(cityattract.__all__)) == len(cityattract.__all__)
