"""A GP-UCB campaign's prompts and outcomes against committed values.

The GP-UCB path is pinned piece by piece against reference code
(tests/test_lml_reference.py, tests/test_lbfgsb_reference.py,
tests/test_posterior_reference.py). This pins what they add up to: the
prompts, to the bit, and the collided flags of a budget-20 `behind` BO
campaign, 18 of whose prompts GP-UCB chose. A change to the GP that moves
any prompt fails here; one that does so on purpose re-pins these values
and says so.
"""
from avstress.optimizer import SamplerConfig, run_campaign
from avstress.planner import LatticePlanner
from avstress.scenario import load_preset

PROMPTS = [
    ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
    ("0x1.8000000000000p-1", "0x1.0000000000000p-2"),
    ("0x1.cf00000000000p-2", "0x1.0a80000000000p-1"),
    ("0x1.0a3d70a3d70a4p-1", "0x1.eb851eb851eb8p-2"),
    ("0x1.0000000000000p-10", "0x1.8180000000000p-1"),
    ("0x1.fc00000000000p-1", "0x1.fc00000000000p-1"),
    ("0x1.8380000000000p-1", "0x1.fe80000000000p-1"),
    ("0x1.d680000000000p-1", "0x1.fb80000000000p-1"),
    ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("0x1.fd80000000000p-1", "0x1.7c80000000000p-1"),
    ("0x1.f880000000000p-1", "0x1.2980000000000p-1"),
    ("0x1.ff00000000000p-1", "0x1.0300000000000p-1"),
    ("0x1.0000000000000p+0", "0x1.0d3d70a3d70a4p-1"),
    ("0x1.fe00000000000p-1", "0x1.0000000000000p-8"),
    ("0x1.0000000000000p+0", "0x1.f1851eb851eb8p-2"),
    ("0x1.fa80000000000p-1", "0x1.af00000000000p-2"),
    ("0x1.0000000000000p+0", "0x1.9a851eb851eb8p-2"),
    ("0x1.0000000000000p+0", "0x1.860a3d70a3d70p-2"),
    ("0x1.1000000000000p-6", "0x1.9800000000000p-5"),
    ("0x1.a000000000000p-1", "0x1.6000000000000p-1"),
]
# no episode of this campaign collides
COLLIDED = [False] * 20


def test_behind_bo_campaign_equals_pinned_prompts_and_outcomes():
    records = run_campaign(
        load_preset("behind"), SamplerConfig(kind="bo", budget=20), LatticePlanner()
    )
    assert not any(r.failed for r in records)
    assert [tuple(v.hex() for v in r.prompt) for r in records] == PROMPTS
    assert [r.metrics.collided for r in records] == COLLIDED
