"""The frozen CLI sweep: every line of tests/sweep.py against
tests/data/sweep.out, and a seeded sample of them as child processes."""

from concurrent.futures import ThreadPoolExecutor

import pytest
import sweep


@pytest.fixture(scope="module")
def runs():
    """The in-process records, and the sample's child records, run in a
    thread beside them."""
    with ThreadPoolExecutor(1) as pool:
        children = pool.submit(sweep.child_records)
        return sweep.records(), children.result()


def test_sweep_matches_the_frozen_file(runs):
    got = sweep.render(runs[0])
    want = sweep.FROZEN.read_text(encoding="utf-8")
    if got != want:
        pytest.fail("sweep.out differs; python tests/sweep.py --write refreezes it\n" + sweep.diff(got, want)[:6000])


def test_sampled_lines_run_alike_as_child_processes(runs):
    records, children = runs
    assert len(children) >= 2
    for key, child in children.items():
        assert child == records[key]
