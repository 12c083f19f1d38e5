"""The package's export list matches what it exposes."""

import types

import splitsamp


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(splitsamp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(splitsamp.__all__) == sorted(public)
