"""Mode labels, registries, pairing rules."""

import pytest

from cvforge.lattice import (
    AncillaId,
    Field,
    LatticeConfig,
    LatticeError,
    ModeId,
    ModeRegistry,
    Nopa,
    enumerate_modes,
    pair_partner,
    rail_line,
    rail_of,
)


def test_mode_id_is_hashable_and_ordered():
    a = ModeId(Nopa.N1, Field.SIGNAL, -1, 0)
    b = ModeId(Nopa.N1, Field.SIGNAL, -1, 0)
    c = ModeId(Nopa.N1, Field.SIGNAL, 0, 0)
    assert a == b and hash(a) == hash(b)
    assert a < c
    assert len({a, b, c}) == 2


def test_mode_id_rejects_negative_bin():
    with pytest.raises(ValueError):
        ModeId(Nopa.N1, Field.SIGNAL, 0, -1)


def test_mode_id_str_roundtrip_fields():
    m = ModeId(Nopa.N2, Field.IDLER, -2, 7)
    d = m.as_dict()
    assert d["freq_index"] == -2 and d["time_bin"] == 7
    assert "n2" in str(m) and "i" in str(m)


def test_shifted_wraps_cyclically():
    m = ModeId(Nopa.N1, Field.IDLER, 1, 5)
    assert m.shifted(1, 6).time_bin == 0
    assert m.shifted(2, 6).time_bin == 1
    assert m.shifted(1, 6).freq_index == 1


def test_ancilla_distinct_from_lattice_modes():
    anc = AncillaId("input")
    m = ModeId(Nopa.N1, Field.SIGNAL, 0, 0)
    assert anc != m
    assert str(anc) == "anc:input"


def test_lattice_config_validation():
    cfg = LatticeConfig(n_max=2, n_bins=4)
    assert list(cfg.freq_indices) == [-2, -1, 0, 1, 2]
    with pytest.raises(LatticeError):
        LatticeConfig(n_max=-1, n_bins=4)
    with pytest.raises(LatticeError):
        LatticeConfig(n_max=1, n_bins=0)


def test_pair_partner_reflects_about_pump():
    assert pair_partner(3, 0) == -3
    assert pair_partner(3, 1) == -2
    assert pair_partner(-2, -1) == 1
    # the involution property: partner of the partner is the original
    for d in (-1, 0, 1):
        for n in range(-3, 4):
            assert pair_partner(pair_partner(n, d), d) == n


def test_pair_partner_range_check():
    assert pair_partner(1, 0, n_max=1) == -1
    assert pair_partner(1, 1, n_max=1) == 0
    # line whose partner leaves the window
    with pytest.raises(LatticeError):
        pair_partner(-1, 1, n_max=1)


def test_enumerate_modes_order_and_size():
    cfg = LatticeConfig(n_max=1, n_bins=2)
    reg = enumerate_modes(cfg, [Nopa.N1])
    assert reg.size == 2 * 3 * 2
    labels = reg.labels
    # signal block first, then idler; frequency outer, bin inner
    assert labels[0] == ModeId(Nopa.N1, Field.SIGNAL, -1, 0)
    assert labels[1] == ModeId(Nopa.N1, Field.SIGNAL, -1, 1)
    assert labels[6] == ModeId(Nopa.N1, Field.IDLER, -1, 0)


def test_enumerate_modes_two_sources():
    cfg = LatticeConfig(n_max=1, n_bins=2)
    reg = enumerate_modes(cfg, [Nopa.N1, Nopa.N2])
    assert reg.size == 24
    # source one's block precedes source two's
    assert reg.labels[0].nopa is Nopa.N1
    assert reg.labels[12].nopa is Nopa.N2
    with pytest.raises(LatticeError):
        enumerate_modes(cfg, [])


def test_registry_lookup_and_membership():
    cfg = LatticeConfig(n_max=0, n_bins=3)
    reg = enumerate_modes(cfg, [Nopa.N1])
    m = ModeId(Nopa.N1, Field.IDLER, 0, 2)
    assert m in reg
    assert reg.labels[reg.index_of(m)] == m
    with pytest.raises(LatticeError):
        reg.index_of(ModeId(Nopa.N2, Field.IDLER, 0, 2))


def test_registry_select_filters():
    cfg = LatticeConfig(n_max=1, n_bins=2)
    reg = enumerate_modes(cfg, [Nopa.N1])
    idlers = reg.select(field=Field.IDLER)
    assert len(idlers) == 6
    at_bin0 = reg.select(field=Field.IDLER, time_bin=0)
    assert len(at_bin0) == 3


def test_registry_without_and_with_extra():
    cfg = LatticeConfig(n_max=0, n_bins=2)
    reg = enumerate_modes(cfg, [Nopa.N1])
    anc = AncillaId("probe")
    bigger = reg.with_extra([anc])
    assert bigger.size == reg.size + 1
    assert anc in bigger
    smaller = bigger.without([anc])
    assert smaller == reg
    with pytest.raises(LatticeError):
        reg.with_extra([reg.labels[0]])  # duplicate label


def test_registry_edge_flags():
    import json

    # registry.json's edge column: idlers at bin 0, once the delay has run
    for nopas in ([Nopa.N1], [Nopa.N1, Nopa.N2]):
        reg = enumerate_modes(LatticeConfig(n_max=1, n_bins=4), nopas)
        squeezed = json.loads(reg.to_json(delayed=False))
        assert not any(row["edge"] for row in squeezed["modes"])
        full = json.loads(reg.to_json(delayed=True))
        flagged = {reg.labels[row["index"]] for row in full["modes"] if row["edge"]}
        assert flagged == {ModeId(nopa, Field.IDLER, n, 0)
                           for nopa in nopas for n in (-1, 0, 1)}


def test_registry_json_contains_indices_and_edges():
    import json

    cfg = LatticeConfig(n_max=0, n_bins=2)
    reg = enumerate_modes(cfg, [Nopa.N1]).with_extra([AncillaId("input")])
    doc = json.loads(reg.to_json(delayed=True))
    assert doc["size"] == 5
    flagged = [row for row in doc["modes"] if row["edge"]]
    assert flagged == [{"nopa": "n1", "field": "idler", "freq_index": 0,
                        "time_bin": 0, "index": 2, "edge": True}]
    assert doc["modes"][0]["index"] == 0
    assert doc["modes"][4] == {"ancilla": "input", "index": 4, "edge": False}


def test_rail_alternates_between_partner_lines():
    # a rail starting on line 1 with centered pump bounces 1, -1, 1, ...
    assert [rail_line(1, k) for k in range(4)] == [1, -1, 1, -1]
    # with pump offset the bounce reflects about the offset
    assert [rail_line(1, k, 1) for k in range(4)] == [1, 0, 1, 0]
    # rail_of inverts rail_line at every site
    for rail in (-1, 0, 1):
        for k in range(5):
            assert rail_of(rail_line(rail, k), k) == rail
