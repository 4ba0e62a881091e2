import dataclasses
import importlib.resources
import math

import numpy as np
import pytest

from evshare.charging import instance_to_json
from evshare.scenario import (
    DEFAULT_PRICES,
    PriceFormatError,
    PriceSeries,
    ScenarioConfig,
    ScenarioError,
    energy_cost_matrix,
    generate_scenario,
    load_price_series,
    t1_instance,
)

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
