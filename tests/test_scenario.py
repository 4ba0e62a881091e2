import dataclasses
import hashlib
import importlib.resources
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evshare.charging import instance_to_json
from evshare.scenario import (
    DEFAULT_PRICES,
    PriceFormatError,
    PriceSeries,
    ScenarioConfig,
    ScenarioError,
    _tariffs,
    energy_cost_matrix,
    generate_scenario,
    load_price_series,
    t1_instance,
)

from helpers import desk_configs, reference_tariffs, reference_travel_cost

DESK = ScenarioConfig(n_evs=4, n_chargers=2, seed=7, horizon=8,
                      earliest_start_range=(0, 4), demand_intervals=(1, 2))


def test_same_seed_is_byte_identical():
    a = generate_scenario(DESK)
    b = generate_scenario(DESK)
    assert instance_to_json(a) == instance_to_json(b)


def test_different_seed_differs():
    other = dataclasses.replace(DESK, seed=8)
    assert instance_to_json(generate_scenario(other)) != instance_to_json(generate_scenario(DESK))


def test_instance_naming():
    cfg = ScenarioConfig(n_evs=20, n_chargers=10, seed=3)
    inst = generate_scenario(cfg)
    assert inst.name == "UniEV-UniChar-20-10-seed3"
    assert len(inst.evs) == 20 and len(inst.chargers) == 10
    clu = dataclasses.replace(cfg, ev_distribution="clustered", charger_layout="centralized")
    assert generate_scenario(clu).name == "CluEV-CenChar-20-10-seed3"


def test_ownership_alternates_between_companies():
    inst = generate_scenario(DESK)
    assert [inst.owner[i] for i in inst.evs] == ["k1", "k2", "k1", "k2"]


def test_positions_stay_inside_the_area():
    for dist in ("uniform", "clustered"):
        for layout in ("uniform", "centralized"):
            cfg = dataclasses.replace(DESK, ev_distribution=dist, charger_layout=layout, seed=11)
            inst = generate_scenario(cfg)
            for xy in list(inst.ev_positions.values()) + list(inst.charger_positions.values()):
                assert 0.0 <= xy[0] <= cfg.area_km and 0.0 <= xy[1] <= cfg.area_km


def test_clustered_evs_sit_within_three_deviations_of_a_center():
    cfg = dataclasses.replace(DESK, ev_distribution="clustered", n_evs=12, seed=5)
    inst = generate_scenario(cfg)
    # the generator draws the two cluster centers first; replay that draw
    rng = np.random.default_rng(cfg.seed)
    centers = [rng.uniform(0.0, cfg.area_km, size=2) for _ in range(2)]
    dev = cfg.area_km / 10.0
    for n, i in enumerate(inst.evs):
        c = centers[n % 2]
        x, y = inst.ev_positions[i]
        assert abs(x - c[0]) <= 3 * dev + 1e-6
        assert abs(y - c[1]) <= 3 * dev + 1e-6


def test_centralized_chargers_sit_in_the_middle_half():
    cfg = dataclasses.replace(DESK, charger_layout="centralized", seed=9)
    inst = generate_scenario(cfg)
    for xy in inst.charger_positions.values():
        assert cfg.area_km / 4.0 <= xy[0] <= 3.0 * cfg.area_km / 4.0
        assert cfg.area_km / 4.0 <= xy[1] <= 3.0 * cfg.area_km / 4.0


def test_windows_and_demands_are_consistent():
    inst = generate_scenario(DESK)
    rate = DESK.charge_rate_kw
    for i in inst.evs:
        e, l = inst.window[i]
        lo, hi = inst.demand[i]
        assert lo == hi and lo % rate == 0
        need = lo // rate
        assert DESK.demand_intervals[0] <= need <= DESK.demand_intervals[1]
        assert l - e >= need
        assert l <= inst.horizon


def test_generated_fees_follow_the_price_series():
    inst = generate_scenario(DESK)
    for j in inst.chargers:
        for t in inst.intervals():
            hour = (t - 1) % 24
            assert inst.energy_fee_own[j, t] == DEFAULT_PRICES.prices[hour]
            # half of the public fee, half-up rounded
            public = DEFAULT_PRICES.prices[hour]
            assert inst.energy_fee_collab[j, t] == (public + 1) // 2


def test_price_series_validation():
    with pytest.raises(PriceFormatError):
        PriceSeries(tuple(range(23)))
    with pytest.raises(PriceFormatError):
        PriceSeries(tuple([-1] + [0] * 23))


def valid_csv(rows=24):
    lines = ["hour,price"] + [f"{h},{0.40 + h / 100:.2f}" for h in range(rows)]
    return "\n".join(lines) + "\n"


def test_load_price_series_happy_path():
    series = load_price_series(valid_csv())
    assert series.prices[0] == 40
    assert series.prices[23] == 63
    assert len(series.prices) == 24


def test_load_price_series_missing_hour():
    with pytest.raises(PriceFormatError, match="missing hour 23"):
        load_price_series(valid_csv(rows=23))


def test_load_price_series_bad_price_names_the_row():
    text = valid_csv().replace("5,0.45", "5,abc")
    with pytest.raises(PriceFormatError, match="row 7"):
        load_price_series(text)


@pytest.mark.parametrize("row, message", [
    ("5,0.45,1", "row 7: expected `hour,price`"),
    ("five,0.45", "row 7: non-integer hour 'five'"),
    ("24,0.45", "row 7: hour 24 outside 0-23"),
], ids=["three-fields", "word-hour", "hour-24"])
def test_load_price_series_refuses_a_bad_row(row, message):
    with pytest.raises(PriceFormatError, match=message):
        load_price_series(valid_csv().replace("5,0.45", row))


def test_load_price_series_duplicate_hour():
    with pytest.raises(PriceFormatError, match="duplicate hour"):
        load_price_series(valid_csv() + "3,0.50\n")


def test_load_price_series_rounds_half_up():
    text = "hour,price\n" + "\n".join(f"{h},0.005" for h in range(24))
    assert load_price_series(text).prices == tuple([1] * 24)


def test_energy_cost_matrix_examples():
    # 2.5 km at 6 SEK/km -> 15.00 SEK
    table = energy_cost_matrix({"v1": (0.0, 0.0)}, {"c1": (1.5, 2.0)}, 6.0)
    assert table["v1", "c1"] == 1500
    # coincident points cost nothing
    assert energy_cost_matrix({"v": (3.0, 4.0)}, {"c": (3.0, 4.0)}, 6.0)["v", "c"] == 0


def test_energy_cost_matrix_transpose_symmetry():
    evs = {"v1": (0.0, 0.0), "v2": (2.0, 1.0)}
    chargers = {"c1": (1.0, 1.0), "c2": (5.0, 5.0)}
    table = energy_cost_matrix(evs, chargers, 6.0)
    swapped = energy_cost_matrix(
        {c: xy for c, xy in chargers.items()}, {e: xy for e, xy in evs.items()}, 6.0)
    for i in evs:
        for j in chargers:
            assert table[i, j] == swapped[j, i]


def test_price_scale_doubles_both_tariffs_and_nothing_else():
    base = generate_scenario(DESK)
    doubled = generate_scenario(dataclasses.replace(DESK, price_scale=2.0))
    assert doubled.energy_fee_own == {k: 2 * v for k, v in base.energy_fee_own.items()}
    assert doubled.energy_fee_collab == {k: 2 * v for k, v in base.energy_fee_collab.items()}
    for field in ("evs", "chargers", "owner", "window", "demand", "rental_fee",
                  "travel_cost", "vot", "ev_positions", "charger_positions"):
        assert getattr(doubled, field) == getattr(base, field)


def test_fractional_price_scale_must_keep_whole_minor_units():
    with pytest.raises(ScenarioError, match="price_scale"):
        generate_scenario(dataclasses.replace(DESK, price_scale=1.0001))


def test_config_validation():
    for bad in (
        dict(ev_distribution="gauss"),
        dict(charger_layout="ring"),
        dict(n_evs=0),
        dict(area_km=0.0),
        dict(area_km=math.inf),
        dict(area_km=math.nan),
        dict(horizon=0),
        dict(collab_discount=0.0),
        dict(price_scale=0),
        dict(price_scale=-1),
        dict(demand_intervals=(0, 2)),
        dict(earliest_start_range=(5, 2)),
    ):
        with pytest.raises(ScenarioError):
            generate_scenario(dataclasses.replace(DESK, **bad))
    for field, value in (("seed", -1), ("seed", 1.5), ("seed", True),
                         ("vot_sek_per_hour", -1), ("vot_sek_per_hour", 2.5),
                         ("rental_fee_sek", -5), ("rental_fee_sek", False)):
        with pytest.raises(ScenarioError) as info:
            generate_scenario(dataclasses.replace(DESK, **{field: value}))
        assert str(info.value) == f"{field} must be a non-negative integer, got {value!r}"


@pytest.mark.parametrize("field, value, message", [
    ("charge_rate_kw", 0, "charge_rate_kw must be an integer of at least 1, got 0"),
    ("charge_rate_kw", -10, "charge_rate_kw must be an integer of at least 1, got -10"),
    ("charge_rate_kw", 2.5, "charge_rate_kw must be an integer of at least 1, got 2.5"),
    ("travel_sek_per_km", -1.0, "travel_sek_per_km must be non-negative, got -1.0"),
    ("travel_sek_per_km", Fraction(-1, 3),
     "travel_sek_per_km must be non-negative, got Fraction(-1, 3)"),
], ids=["rate-0", "rate-negative", "rate-fractional", "travel-negative", "travel-fraction"])
def test_config_refuses_a_rate_the_instance_cannot_carry(field, value, message):
    # A rate of 0 would give every EV demand (0, 0) whatever demand_intervals
    # asks for; a negative one fails only later, inside the instance.
    with pytest.raises(ScenarioError) as info:
        generate_scenario(dataclasses.replace(DESK, demand_intervals=(1, 2), **{field: value}))
    assert str(info.value) == message


def generated_digest(configs):
    """sha256 over each config's instance JSON, or its ScenarioError text."""
    digest = hashlib.sha256()
    for config in configs:
        try:
            text = instance_to_json(generate_scenario(config))
        except ScenarioError as exc:
            text = f"error: {exc}\n"
        digest.update(text.encode())
    return digest.hexdigest()


def paper_default_configs():
    """Every EV/charger layout combination at the paper default, seeds 1-3."""
    for dist, layout in itertools.product(("uniform", "clustered"), ("uniform", "centralized")):
        for seed in (1, 2, 3):
            yield ScenarioConfig(ev_distribution=dist, charger_layout=layout, seed=seed)


def tariff_sweep_configs():
    """Price scales (1.0001 and those that split a price refused), collaborative
    discounts, travel tariffs and areas, crossed on the 4x2 T8 config."""
    for theta, beta, travel, area in itertools.product(
            (0.25, 0.5, 1.5, 2, 3, 1.0001), (0.3333, 0.5, 0.75, 0.999, 1),
            (0, 0.35, 1.2345, 6, 17), (0.1, 10, 25)):
        yield dataclasses.replace(DESK, price_scale=theta, collab_discount=beta,
                                  travel_sek_per_km=travel, area_km=area)


# Digests of each config set's instance JSON or error text; any change to
# a generated instance or an error text moves them.
GENERATED_DIGESTS = {
    "desk": (desk_configs,
             "ec2c8e8e3dc3a272a11a86ff481c8d9a985d57e54633687a46d96f975fbce3d5"),
    "paper-default": (paper_default_configs,
                      "dfc6d73bf219280905c24251234e813cb63dd11b718c2e43e84c898153f2db80"),
    "tariff-sweep": (tariff_sweep_configs,
                     "d1904c541e49b1747d9cbe8c83c72533a16e3d9fb0b61010f1386bf492a41b61"),
}


@pytest.mark.parametrize("name", sorted(GENERATED_DIGESTS))
def test_generated_instances_are_pinned(name):
    configs, expected = GENERATED_DIGESTS[name]
    assert generated_digest(configs()) == expected


factors = st.one_of(
    st.integers(min_value=1, max_value=40_000).map(lambda n: n / 10_000),
    st.integers(min_value=1, max_value=5),
    st.fractions(min_value=Fraction(1, 100), max_value=5, max_denominator=100),
)
discounts = st.one_of(
    st.integers(min_value=1, max_value=10_000).map(lambda n: n / 10_000),
    st.just(1),
    st.fractions(min_value=Fraction(1, 100), max_value=1, max_denominator=100),
)


@given(st.sampled_from((1, 4, 100)).flatmap(lambda unit: st.lists(
           st.integers(min_value=0, max_value=200).map(lambda p: unit * p),
           min_size=24, max_size=24)),
       factors, discounts)
def test_tariffs_match_fraction_arithmetic(prices, theta, beta):
    config = ScenarioConfig(price_scale=theta, collab_discount=beta)
    expected = reference_tariffs(prices, theta, beta)
    if expected is None:
        with pytest.raises(ScenarioError, match="does not keep tariff"):
            _tariffs(config, PriceSeries(tuple(prices)), ("c1",), 24)
        return
    own, collab = _tariffs(config, PriceSeries(tuple(prices)), ("c1",), 24)
    assert [(own["c1", t], collab["c1", t]) for t in range(1, 25)] == expected


coordinates = st.floats(min_value=0, max_value=100)


@given(coordinates, coordinates, coordinates, coordinates, st.one_of(
    st.floats(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=1000)))
def test_travel_costs_match_fraction_arithmetic(x1, y1, x2, y2, sek_per_km):
    table = energy_cost_matrix({"v": (x1, y1)}, {"c": (x2, y2)}, sek_per_km)
    expected = reference_travel_cost(math.dist((x1, y1), (x2, y2)), sek_per_km)
    assert table["v", "c"] == expected


def test_impossible_draw_is_refused():
    # one charger, eight EVs that all need the same three intervals
    cramped = ScenarioConfig(n_evs=8, n_chargers=1, seed=0, horizon=3,
                             window_length_h=3, earliest_start_range=(0, 0),
                             demand_intervals=(3, 3))
    with pytest.raises(ScenarioError, match="retry budget"):
        generate_scenario(cramped)


def test_t1_reference_instance_shape():
    inst = t1_instance()
    assert inst.name == "T1"
    assert inst.horizon == 4
    assert inst.demand == {"v1": (10, 10), "v2": (10, 10)}
    assert inst.travel_cost["v1", "A"] == 100


def test_shipped_t1_golden_file_matches_the_builder():
    data = importlib.resources.files("evshare").joinpath("data/t1.json").read_text()
    assert data == instance_to_json(t1_instance())


def test_shipped_price_sample_round_trips():
    text = importlib.resources.files("evshare").joinpath("data/prices_sample.csv").read_text()
    assert load_price_series(text).prices == DEFAULT_PRICES.prices
