"""The summary arithmetic of tools/pair.py, on fixed numbers: quartiles
by the inclusive method, wins with ties counting for neither side, the
median's relative change signed so that positive is better, the bound,
and the gain rule (nine tenths of the pairs won, medians apart by more
than the base's distance between quartiles)."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pair.py"


@pytest.fixture(scope="module")
def pair():
    spec = importlib.util.spec_from_file_location("pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_gain_on_a_higher_is_better_metric(pair):
    base = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]
    work = [110, 111, 108, 112, 109, 113, 107, 95, 111, 110]
    s = pair.summary(base, work, "higher", 0.2)
    assert s["base"] == (99, 100, 101)
    assert s["work"] == (108.25, 110, 111)
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["change"] == pytest.approx(0.1)
    assert s["within_bound"] and s["gain"]
    # one more lost pair is below nine tenths
    work[0] = 99
    assert pair.summary(base, work, "higher", 0.2)["gain"] is False


def test_ties_bounds_and_spread_on_a_lower_is_better_metric(pair):
    base, work = [10.0, 12.0, 11.0, 13.0], [10.0, 11.5, 12.0, 12.0]
    s = pair.summary(base, work, "lower", 0.2)
    assert s["base"] == (10.75, 11.5, 12.25)
    assert s["work"] == (11.125, 11.75, 12.0)
    # the tie at 10.0 counts for neither side
    assert s["wins"] == 2
    assert s["change"] == pytest.approx(-0.25 / 11.5)
    assert s["within_bound"] and not s["gain"]
    assert not pair.summary(base, work, "lower", 0.02)["within_bound"]
    # every pair won, but the medians are closer than the base's spread
    s = pair.summary([10, 14, 10, 14], [9.5, 13.5, 9.5, 13.5], "lower", 0.2)
    assert s["wins"] == 4 and not s["gain"]
    s = pair.summary([10, 11, 10, 11], [8, 9, 8, 9], "lower", 0.2)
    assert s["gain"]
