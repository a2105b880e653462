"""The leakage-kernel fast path must change nothing but the speed.

``tests/golden/leakage_parity.json`` holds the full ``compare_schemes``
output (all registered schemes, every Table 1 column) captured from the
pre-kernel implementation across three technology nodes, two static
probabilities and two crossbar radixes, plus activity corners at 45 nm
(p in {0.05, 0.77, 0.95} x t in {0.1, 0.9}) captured before the
closed-form activity coefficients.  The memoised kernel, the
allocation-free accumulator and each scheme's activity coefficients must
reproduce every number to 1e-12 relative tolerance; the committed
contract is the tolerance, not bit identity.

The second half checks the fast path is actually *fast*: bias-point
evaluations are shared across ports (a port-count sweep adds almost no
kernel misses) and the memo serves the overwhelming majority of
lookups.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import compare_schemes, paper_experiment
from repro.circuit.biasing import (
    LeakageKernel,
    kernel_for,
    kernel_totals,
    leakage_from_node_voltages,
)
from repro.circuit.leakage import LeakageAccumulator, LeakageBreakdown
from repro.core.scheme_evaluator import (
    SchemeEvaluator,
    clear_structural_cache,
    structural_cache_stats,
)
from repro.errors import CircuitError
from repro.technology import default_45nm

GOLDEN_PATH = Path(__file__).parent / "golden" / "leakage_parity.json"

#: Relative tolerance of the golden comparison (absolute for exact zeros).
PARITY_RTOL = 1e-12


def _golden_cases():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _case_id(case):
    parts = [case["technology_node"], f"p{case['static_probability']}"]
    if "toggle_activity" in case:
        parts.append(f"t{case['toggle_activity']}")
    if "crossbar.port_count" in case:
        parts.append(f"ports{case['crossbar.port_count']}")
    return "-".join(parts)


@pytest.mark.parametrize("case", _golden_cases(), ids=_case_id)
def test_compare_schemes_matches_pre_kernel_golden(case):
    """Full comparison output matches the pre-refactor numbers at 1e-12."""
    overrides = {"technology_node": case["technology_node"],
                 "static_probability": case["static_probability"]}
    for key in ("toggle_activity", "crossbar.port_count"):
        if key in case:
            overrides[key] = case[key]
    config = paper_experiment().with_overrides(**overrides)
    live = compare_schemes(config).as_records()

    golden = case["records"]
    assert len(live) == len(golden)
    for new, old in zip(live, golden):
        assert new.keys() == old.keys()
        for column, old_value in old.items():
            new_value = new[column]
            if isinstance(old_value, float):
                assert math.isclose(new_value, old_value,
                                    rel_tol=PARITY_RTOL, abs_tol=1e-30), (
                    f"{new['scheme']}.{column}: {new_value!r} != {old_value!r}"
                )
            else:
                assert new_value == old_value, f"{new['scheme']}.{column}"


def test_kernel_matches_unmemoised_function(library):
    """kernel.evaluate is value-identical to leakage_from_node_voltages."""
    kernel = kernel_for(library)
    from repro.technology.transistor import Polarity, VtFlavor

    device = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 2.0e-6)
    vdd = library.supply_voltage
    for bias in [(0.0, vdd, 0.0, 1), (vdd, vdd, 0.0, 1), (0.0, vdd, 0.0, 2),
                 (vdd, 0.3, 0.0, 1), (0.0, 0.0, 0.0, 1)]:
        direct = leakage_from_node_voltages(device, *bias[:3],
                                            series_off_devices=bias[3])
        memoised_cold = kernel.evaluate(device, *bias[:3],
                                        series_off_devices=bias[3])
        memoised_warm = kernel.evaluate(device, *bias[:3],
                                        series_off_devices=bias[3])
        assert memoised_cold == direct
        assert memoised_warm is memoised_cold  # the memo returns the object


def test_kernel_validation_and_stats(library):
    """Validation errors still fire (on first sight) and stats count."""
    from repro.technology.transistor import Polarity, VtFlavor

    kernel = LeakageKernel(max_entries=4)
    device = library.make_transistor(Polarity.PMOS, VtFlavor.HIGH, 1.0e-6)
    vdd = library.supply_voltage
    with pytest.raises(CircuitError):
        kernel.evaluate(device, 2.0 * vdd, 0.0, 0.0)  # outside the rails
    with pytest.raises(CircuitError):
        kernel.evaluate(device, 0.0, 0.0, 0.0, series_off_devices=0)
    kernel.evaluate(device, 0.0, vdd, vdd)
    kernel.evaluate(device, 0.0, vdd, vdd)
    assert kernel.stats.misses == 1
    assert kernel.stats.hits == 1
    assert kernel.stats.hit_rate == 0.5
    # The bound clears rather than grows without limit.
    for voltage in (0.1, 0.2, 0.3, 0.4, 0.5):
        kernel.evaluate(device, voltage, vdd, vdd)
    assert len(kernel) <= 4


def test_port_count_sweep_shares_bias_points():
    """A port-count sweep re-uses bias points: hit rate stays high and
    misses barely grow with the radix (the count multiplies instead)."""
    clear_structural_cache()
    base = paper_experiment()
    compare_schemes(base.with_overrides(**{"crossbar.port_count": 3}))
    # kernel_totals() returns the live counter object — snapshot the ints.
    lookups_first = kernel_totals().lookups
    misses_first = kernel_totals().misses

    for ports in (4, 5):
        compare_schemes(base.with_overrides(**{"crossbar.port_count": ports}))
    totals = kernel_totals()

    # Wider crossbars re-bias the *same* shared devices at the same rail
    # voltages: the sweep's extra unique bias points are a tiny fraction
    # of its lookups.
    sweep_lookups = totals.lookups - lookups_first
    sweep_misses = totals.misses - misses_first
    assert sweep_lookups > 0
    assert sweep_misses <= 0.05 * sweep_lookups
    assert totals.hit_rate > 0.8

    stats = structural_cache_stats()
    assert stats.kernel_hits == totals.hits
    assert stats.kernel_misses == totals.misses
    payload = stats.as_payload()
    assert payload["kernel_hits"] == totals.hits
    assert 0.0 < payload["kernel_hit_rate"] <= 1.0


def test_scheme_evaluator_exposes_kernel_stats():
    """SchemeEvaluator.kernel_stats() reports its library's counters."""
    clear_structural_cache()
    evaluator = SchemeEvaluator(paper_experiment())
    evaluator.evaluate("SC")
    stats = evaluator.kernel_stats()
    assert stats.misses > 0
    assert stats.lookups == stats.hits + stats.misses
    payload = stats.as_payload()
    assert set(payload) == {"hits", "misses", "hit_rate"}
    # A second evaluation of the same scheme evaluates no new bias point.
    before_misses = stats.misses
    evaluator.evaluate("SC")
    assert evaluator.kernel_stats().misses == before_misses

    # Clearing the structural cache zeroes BOTH the aggregate and the
    # per-library counters of kernels still alive on held libraries, so
    # a library's stats stay a consistent share of the totals.
    clear_structural_cache()
    assert kernel_totals().lookups == 0
    assert evaluator.kernel_stats().lookups == 0


def test_accumulator_matches_breakdown_arithmetic():
    """LeakageAccumulator.add/freeze is bit-identical to +/scaled chains."""
    parts = [LeakageBreakdown(1e-9, 2e-9, 3e-9),
             LeakageBreakdown(4e-9, 5e-9, 6e-9),
             LeakageBreakdown(7e-9, 8e-9, 9e-9)]
    scales = [1.0, 2.5, 640.0]

    chained = LeakageBreakdown.zero()
    for part, scale in zip(parts, scales):
        chained = chained + part.scaled(scale)

    acc = LeakageAccumulator()
    for part, scale in zip(parts, scales):
        acc.add(part, scale)
    frozen = acc.freeze()

    assert frozen == chained
    assert frozen.total == chained.total
    with pytest.raises(CircuitError):
        LeakageAccumulator().add(parts[0], -1.0)


def test_breakdown_arithmetic_still_validates_boundaries():
    """Constructor and scaled() keep their validation semantics."""
    with pytest.raises(CircuitError):
        LeakageBreakdown(subthreshold=-1e-12)
    with pytest.raises(CircuitError):
        LeakageBreakdown(1e-9, 1e-9, 1e-9).scaled(-2.0)
    total = LeakageBreakdown(1e-9, 0.0, 0.0) + LeakageBreakdown(0.0, 1e-9, 0.0)
    assert total == LeakageBreakdown(1e-9, 1e-9, 0.0)


def test_shared_transistors_per_library():
    """make_transistor memoises per (polarity, flavor, width), per library."""
    from repro.technology.transistor import Polarity, VtFlavor

    library = default_45nm()
    a = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1.0e-6)
    b = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1.0e-6)
    c = library.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 2.0e-6)
    assert a is b
    assert a is not c
    other = default_45nm()
    assert other.make_transistor(Polarity.NMOS, VtFlavor.NOMINAL, 1.0e-6) is not a
