"""The stdlib metrics against the numpy ones they replace (metric_reference),
bit for bit, over every branch of numpy's pairwise sum: fewer than 8 items,
8 to 128, and above 128, where the sum splits and recurses."""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metric_reference as ref
from txf import evalharness
from txf.evalharness import EvalRow

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, math.inf, -math.inf, math.nan,
           5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e-300, 0.1]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.integers(-4, 4).map(float), st.floats())
LENGTHS = [(1, 7), (8, 128), (129, 2000)]


def _bits(x) -> bytes:
    """The float's bytes; every NaN counts as one value, since json writes
    any NaN as NaN."""
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


def _same(got, want) -> bool:
    if want is None or got is None:
        return got is want
    if isinstance(want, tuple):  # ("raises", message)
        return got == want
    if isinstance(want, np.ndarray):
        return isinstance(got, list) and [_bits(x) for x in got] == [_bits(x) for x in want.tolist()]
    return type(got) is float and _bits(got) == _bits(want)


def _outcome(fn, *args):
    with np.errstate(all="ignore"):
        try:
            return fn(*args)
        except ValueError as exc:
            return ("raises", str(exc))


@st.composite
def vectors(draw, *kinds: type):
    """Equal-length vectors, one per kind (float or bool), for one of the
    three sum branches. Vectors longer than 32 are expanded from a drawn
    palette by a drawn seed: drawing thousands of floats one by one is slow,
    and hypothesis caps the data one example may draw."""
    lo, hi = draw(st.sampled_from(LENGTHS))
    n = draw(st.integers(lo, hi))
    rng = random.Random(draw(st.integers(0, 2**32)))
    out = []
    for kind in kinds:
        element = st.booleans() if kind is bool else VALUES
        if n <= 32:
            values = draw(st.lists(element, min_size=n, max_size=n))
        else:
            palette = draw(st.lists(element, min_size=1, max_size=12))
            spread = 0.0 if kind is bool else draw(st.sampled_from([0.0, 1.0, 1e6]))
            values = [
                rng.uniform(-spread, spread) if spread and rng.random() < 0.5 else rng.choice(palette)
                for _ in range(n)
            ]
        if draw(st.booleans()):  # test_acceptance passes numpy arrays
            values = np.array(values, dtype=kind)
        out.append(values)
    return out


@settings(max_examples=150, deadline=None)
@given(vectors(float))
def test_average_ranks_matches_numpy(vs):
    [values] = vs
    assert _same(evalharness.average_ranks(values), ref.average_ranks(values))


@pytest.mark.parametrize("name", ["auroc", "auprc"])
@settings(max_examples=150, deadline=None)
@given(vs=vectors(float, bool))
def test_ranking_metric_matches_numpy(name, vs):
    assert _same(getattr(evalharness, name)(*vs), _outcome(getattr(ref, name), *vs))


@pytest.mark.parametrize("name", ["mae", "mse", "pearson", "spearman"])
@settings(max_examples=150, deadline=None)
@given(vectors(float, float))
def test_regression_metric_matches_numpy(name, vs):
    assert _same(_outcome(getattr(evalharness, name), *vs), _outcome(getattr(ref, name), *vs))


@pytest.mark.parametrize("name", ["mae", "mse", "pearson", "spearman"])
@pytest.mark.parametrize("p, t", [([], []), ([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_regression_metric_rejects_what_numpy_rejected(name, p, t):
    assert _outcome(getattr(evalharness, name), p, t) == _outcome(getattr(ref, name), p, t)


def _rows(metric: str, rng: random.Random, palette: list[float], subtasks: int) -> list[EvalRow]:
    rows = []
    for k in range(subtasks):
        for i in range(rng.randint(2, 4)):  # pearson needs two rows per subtask
            value = rng.choice(palette)
            truth = rng.random() < 0.5 if metric in ("auroc", "auprc") else rng.choice(palette)
            rows.append(EvalRow(
                record_id=f"{k}.{i}", subtask=f"s{k:04d}", target="(B)" if truth else "(A)",
                completion="", prediction=value, truth=truth, score=value, valid=True,
            ))
    return rows


@settings(max_examples=60, deadline=None)
@given(
    metric=st.sampled_from(["auroc", "auprc", "mae", "mse", "pearson", "spearman"]),
    subtasks=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 400)),
    palette=st.lists(VALUES, min_size=1, max_size=12),
    seed=st.integers(0, 2**32),
)
def test_score_rows_with_subtasks_matches_numpy(metric, subtasks, palette, seed):
    rows = _rows(metric, random.Random(seed), palette, subtasks)
    value, per, reason = evalharness.score_rows(metric, rows)
    with np.errstate(all="ignore"):
        ref_value, ref_per, ref_reason = ref.score_rows(metric, rows)
    assert _same(value, ref_value)
    assert per.keys() == ref_per.keys()
    assert all(_same(per[k], ref_per[k]) for k in per)
    assert reason == ref_reason
