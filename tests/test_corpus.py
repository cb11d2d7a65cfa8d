"""Every frozen corpus record must reproduce from the current code."""

import pytest

from brattice import corpus


def test_every_entry_verifies():
    for entry in corpus.ENTRIES:
        results = corpus.verify(entry)
        assert results, f"{entry.name} has no records"
        bad = [(field, tag) for field, tag, ok in results if not ok]
        assert not bad, f"{entry.name} drifted: {bad}"


def test_entry_lookup():
    assert corpus.get("gicar").kind == "diagram"
    assert corpus.get("fan43").kind == "matrix"
    with pytest.raises(KeyError):
        corpus.get("no-such-entry")


def test_kind_guards():
    with pytest.raises(ValueError):
        corpus.get("fan43").diagram()
    with pytest.raises(ValueError):
        corpus.get("gicar").matrix()


def test_records_carry_their_rederivation():
    for entry in corpus.ENTRIES:
        assert callable(entry.build)
        assert all(callable(r.derive) for r in entry.records)


def test_records_carry_tags():
    tags = {r.tag for e in corpus.ENTRIES for r in e.records}
    assert tags <= {"hand-checked", "closed-form", "enumeration", "exact-solve"}
    total = sum(len(e.records) for e in corpus.ENTRIES)
    assert total >= 40
