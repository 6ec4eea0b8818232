"""The paper's claims, checked on the 32-pair paper grid.

Runs baseline, CDF, HDF and CMT over 4 workloads x {16, 20} OSDs x 4 seeds
at default sizing (128 configs, serially), pairs runs by (workload, OSDs,
seed), and gives each claim a verdict from a one-sided sign test at
``ALPHA`` with ties dropped.  Quick sizing is not used: it erases most of
the CMT/HDF wear difference.

Migration cost is an exact claim (an equal budget moves equal MB), so it
holds only when every pair ties; its sign test only shows which way the
differing pairs lean.

The asserted table is a measurement, not a target: a change that moves
a count or flips a verdict updates ``EXPECTED`` and says so.  Run with
``-s`` to see the table.
"""

from math import comb
from statistics import median

import pytest

from edm.engine.core import simulate
from edm.sweep import default_grid

SEEDS = (12345, 12346, 12347, 12348)
ALPHA = 0.05
LOAD_MARGIN = 1.10  # CMT's load CoV may sit at most 10% above HDF's

# (claim, metric, a, b, scale, exact): "a's metric < scale x b's", or for an
# exact claim "a's metric == b's".
CLAIMS = (
    *((f"{p} load_cov_mean < baseline", "load_cov_mean", p, "baseline", 1.0, False)
      for p in ("cdf", "hdf", "cmt")),
    ("cmt wear_spread < hdf", "wear_spread", "cmt", "hdf", 1.0, False),
    ("cmt wear_cov < hdf", "wear_cov", "cmt", "hdf", 1.0, False),
    (f"cmt load_cov_mean < {LOAD_MARGIN:.2f} x hdf", "load_cov_mean", "cmt", "hdf",
     LOAD_MARGIN, False),
    ("cmt migration_cost_mb == hdf", "migration_cost_mb", "cmt", "hdf", 1.0, True),
)

# claim -> (wins, losses, ties, holds), measured
EXPECTED = {
    "cdf load_cov_mean < baseline": (32, 0, 0, True),
    "hdf load_cov_mean < baseline": (32, 0, 0, True),
    "cmt load_cov_mean < baseline": (32, 0, 0, True),
    "cmt wear_spread < hdf": (27, 5, 0, True),
    "cmt wear_cov < hdf": (23, 9, 0, True),
    "cmt load_cov_mean < 1.10 x hdf": (25, 7, 0, True),
    "cmt migration_cost_mb == hdf": (6, 2, 24, False),
}


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: P(X >= wins) for X ~ Binomial(wins + losses, 1/2)."""
    n = wins + losses
    return sum(comb(n, k) for k in range(wins, n + 1)) / 2**n if n else 1.0


def _compare(pairs, metric, a, b, scale=1.0):
    """Count pairs where ``a``'s metric is below ``scale`` x ``b``'s."""
    wins = losses = ties = 0
    ratios = []
    for runs in pairs:
        x, y = runs[a][metric], scale * runs[b][metric]
        wins += x < y
        losses += x > y
        ties += x == y
        if runs[b][metric] > 0:
            ratios.append(runs[a][metric] / runs[b][metric])
    return wins, losses, ties, median(ratios) if ratios else float("nan")


@pytest.fixture(scope="module")
def pairs():
    grid = default_grid(policies=("baseline", "cdf", "hdf", "cmt"), seeds=SEEDS)
    runs: dict[tuple, dict] = {}
    for cfg in grid:
        key = (cfg.workload, cfg.num_osds, cfg.seed)
        runs.setdefault(key, {})[cfg.policy] = simulate(cfg)
    return [runs[k] for k in sorted(runs)]


def test_paper_claims(pairs):
    assert len(pairs) == 32
    verdicts = {}
    print(f"\n{'claim':34} {'win':>4} {'lose':>4} {'tie':>4} {'p':>9} "
          f"{'med ratio':>9}  verdict")
    for claim, metric, a, b, scale, exact in CLAIMS:
        w, l, t, ratio = _compare(pairs, metric, a, b, scale)
        p = sign_test_p(w, l)
        holds = w + l == 0 if exact else p < ALPHA
        verdicts[claim] = (w, l, t, holds)
        print(f"{claim:34} {w:4d} {l:4d} {t:4d} {p:9.2g} {ratio:9.3f}  "
              f"{'holds' if holds else 'DOES NOT HOLD'}")
    assert verdicts == EXPECTED


def test_sign_test_p():
    assert sign_test_p(32, 0) == 2.0**-32
    assert sign_test_p(0, 0) == 1.0
    assert sign_test_p(27, 5) == pytest.approx(5.65e-5, rel=1e-2)
    assert sign_test_p(4, 4) == pytest.approx(0.636719, rel=1e-5)
