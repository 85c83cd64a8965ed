import dataclasses
import json
import math
from importlib import resources

import pytest

from pcid import specs
from pcid.specs import SpecValidationError, spec_from_dict

CONFIG_SPECS = [json.loads(p.read_text(encoding="utf-8"))["spec"]
                for p in sorted(resources.files("pcid").joinpath("configs").iterdir(),
                                key=lambda p: p.name)
                if p.name.endswith(".json")]


ALL_KINDS = ["ar1_drift", "broken_feedback_weight", "gaussian_last_tick", "polya",
             "reinforced", "state_space_cid", "uniform_coupled"]


def test_list_spec_kinds():
    assert specs.list_spec_kinds() == ALL_KINDS
    for kind in ("polya", "reinforced", "uniform_coupled", "gaussian_last_tick",
                 "state_space_cid"):
        assert kind in specs.SPEC_KINDS


@pytest.mark.parametrize("doc", [
    {"kind": "polya", "n_coords": 2, "w0": [1.0, 2.0],
     "base": [{"kind": "uniform"}, {"kind": "normal", "mean": 1.0, "var": 2.0}]},
    {"kind": "reinforced", "n_coords": 3, "w0": 0.5, "base": {"kind": "uniform"},
     "coupling": {"kind": "common_weight", "dist": {"kind": "two_point", "lo": 1, "hi": 3}}},
    {"kind": "reinforced", "n_coords": 1, "base": {"kind": "discrete", "values": [0.0, 1.0],
     "probs": [0.25, 0.75]},
     "coupling": {"kind": "independent_iid_weights",
                  "dist": {"kind": "gamma", "shape": 3.0, "scale": 0.5}}},
    {"kind": "uniform_coupled", "beta": {"kind": "harmonic"}, "w0": 1.0},
    {"kind": "uniform_coupled", "beta": {"kind": "table", "table": [1.0, 0.5, 0.25]}},
    {"kind": "gaussian_last_tick", "n_coords": 2, "mu1": [0.0, 1.0],
     "sigma2_1": [1.0, 4.0], "rate": 2.0, "t0": 0.5},
    {"kind": "state_space_cid", "theta0": 0.3, "c": 2.0, "c_prime": 1.0},
    {"kind": "ar1_drift", "phi": 0.5, "drift": 0.2},
    {"kind": "broken_feedback_weight", "n_coords": 2, "shift": 0.1},
] + CONFIG_SPECS)
def test_round_trip(doc):
    spec = spec_from_dict(doc)
    again = spec_from_dict(spec.to_dict())
    assert again == spec
    assert again.to_dict() == spec.to_dict()


@pytest.mark.parametrize("doc,field", [
    ({"kind": "nope"}, "spec.kind"),
    ({"kind": "polya", "w0": -1.0}, "w0[0]"),
    ({"kind": "polya", "base": {"kind": "uniform", "a": 2.0, "b": 1.0}}, "base[0]"),
    ({"kind": "reinforced", "coupling": {"kind": "common_weight",
      "dist": {"kind": "two_point", "lo": -1.0, "hi": 2.0}}}, "coupling.dist"),
    ({"kind": "reinforced", "coupling": {"kind": "cross_fraction"}}, "n_coords"),
    ({"kind": "reinforced", "n_coords": 2, "base": {"kind": "normal"},
      "coupling": {"kind": "cross_fraction"}}, "base[0]"),
    ({"kind": "uniform_coupled", "beta": {"kind": "table", "table": [0.5]}}, "beta"),
    ({"kind": "uniform_coupled", "beta": {"kind": "table", "table": [1.0, 1.5]}}, "beta"),
    ({"kind": "uniform_coupled", "w0": 0.0}, "w0"),
    ({"kind": "gaussian_last_tick", "sigma2_1": -1.0}, "sigma2_1[0]"),
    ({"kind": "gaussian_last_tick", "rate": 0.0}, "rate"),
    ({"kind": "gaussian_last_tick", "t0": -0.5}, "t0"),
    ({"kind": "state_space_cid", "c_prime": 2.0, "c": 1.0}, "c_prime"),
    ({"kind": "state_space_cid", "b_table": [0.6]}, "b_table"),
    ({"kind": "ar1_drift", "phi": 1.5}, "phi"),
    ({"kind": "broken_feedback_weight", "shift": 0.0}, "shift"),
    ({"kind": "reinforced", "coupling": {"kind": "common_weight"}}, "coupling.dist"),
    ({"kind": "polya", "base": {"kind": "discrete", "probs": [1.0]}}, "base.values"),
    ({"kind": "uniform_coupled", "beta": {"kind": "table", "table": 0.5}}, "beta.table"),
    ({"kind": "polya", "w0": "abc"}, "w0"),
    ({"kind": "gaussian_last_tick", "mu1": math.nan}, "mu1[0]"),
    ({"kind": "gaussian_last_tick", "n_coords": 2, "mu1": [0.0, -math.inf],
      "sigma2_1": [1.0, 1.0]}, "mu1[1]"),
    ({"kind": "gaussian_last_tick", "sigma2_1": math.inf}, "sigma2_1[0]"),
    ({"kind": "gaussian_last_tick", "rate": math.inf}, "rate"),
    ({"kind": "gaussian_last_tick", "t0": math.inf}, "t0"),
    ({"kind": "ar1_drift", "drift": math.nan}, "drift"),
    ({"kind": "ar1_drift", "drift": math.inf}, "drift"),
    ({"kind": "ar1_drift", "init_mean": -math.inf}, "init_mean"),
    ({"kind": "ar1_drift", "noise_var": math.inf}, "noise_var"),
    ({"kind": "ar1_drift", "init_var": math.inf}, "init_var"),
    ({"kind": "state_space_cid", "c": math.inf}, "c"),
    ({"kind": "broken_feedback_weight", "w0": math.inf}, "w0"),
    ({"kind": "broken_feedback_weight", "shift": math.inf}, "shift"),
    ({"kind": "broken_feedback_weight", "scale": math.inf}, "scale"),
    ({"kind": "reinforced", "coupling": {"kind": "common_weight",
      "dist": {"kind": "two_point", "lo": 1.0, "hi": math.inf}}}, "coupling.dist"),
    ({"kind": "reinforced", "coupling": {"kind": "independent_iid_weights",
      "dist": {"kind": "uniform", "a": 0.5, "b": math.inf}}}, "coupling.dist"),
    ({"kind": "reinforced", "coupling": {"kind": "common_weight",
      "dist": {"kind": "gamma", "shape": math.inf}}}, "coupling.dist"),
    ({"kind": "reinforced", "coupling": {"kind": "common_weight",
      "dist": {"kind": "gamma", "shape": 3.0, "scale": math.inf}}}, "coupling.dist"),
    ({"kind": "reinforced", "coupling": {"kind": "common_weight",
      "dist": {"kind": "gamma", "shift": math.inf}}}, "coupling.dist"),
    # the coupling of broken_feedback_weight's reinforced view, not a config block
    (specs.FeedbackWeight(scale=math.inf), "coupling"),
    (specs.FeedbackWeight(shift=math.inf), "coupling"),
    # shape and shift left at their defaults, 2 and 0
    ({"kind": "reinforced", "coupling": {"kind": "common_weight",
      "dist": {"kind": "gamma", "scale": 0.5}}}, "coupling.dist"),
    # int() read a fractional count as its truncation and a bool as 1;
    # an infinite one overflowed
    ({"kind": "polya", "n_coords": 2.5}, "n_coords"),
    ({"kind": "polya", "n_coords": 1.9}, "n_coords"),
    ({"kind": "polya", "n_coords": True}, "n_coords"),
    ({"kind": "gaussian_last_tick", "n_coords": 2.5}, "n_coords"),
    ({"kind": "gaussian_last_tick", "n_coords": True}, "n_coords"),
    ({"kind": "broken_feedback_weight", "n_coords": math.inf}, "n_coords"),
    (specs.BrokenFeedbackWeightSpec(n_coords=math.inf), "n_coords"),
    (specs.BrokenFeedbackWeightSpec(n_coords=True), "n_coords"),
    # float() would read a bool as 0.0 or 1.0
    ({"kind": "ar1_drift", "drift": True}, "drift"),
    ({"kind": "gaussian_last_tick", "sigma2_1": [True]}, "sigma2_1"),
    (specs.UniformCoupledSpec(w0=True), "w0"),
    (specs.PolyaSpec(w0=(True,)), "w0[0]"),
    (specs.ReinforcedSpec(base=(specs.NormalBase(var=True),)), "base[0]"),
])
def test_validation_names_offending_field(doc, field):
    with pytest.raises(SpecValidationError) as err:
        spec_from_dict(doc) if isinstance(doc, dict) else doc.validate()
    assert err.value.field == field


def test_gamma_weight_rejection_names_values_in_effect():
    # a config that sets only the scale is rejected for the default shape
    # and shift, so the message must name them
    with pytest.raises(SpecValidationError, match="got shape 2.0 and shift 0.0"):
        specs.GammaWeight(scale=0.5).validate()


def test_beta_schedules():
    harmonic = specs.BetaSchedule("harmonic")
    assert harmonic.value(1) == 1.0
    assert harmonic.value(9) == pytest.approx(0.2)
    assert specs.BetaSchedule("constant_one").value(17) == 1.0
    table = specs.BetaSchedule("table", (1.0, 0.5))
    assert table.value(1) == 1.0
    assert table.value(2) == 0.5
    assert table.value(99) == 0.5  # reuses the last entry


def test_base_measure_moments():
    u = specs.UniformBase(0.0, 1.0)
    assert u.raw_moment(3) == pytest.approx(0.25)
    n = specs.NormalBase(2.0, 3.0)
    assert n.raw_moment(2) == pytest.approx(7.0)
    assert n.raw_moment(4) == pytest.approx(16 + 6 * 4 * 3 + 27)
    d = specs.DiscreteBase((0.0, 1.0), (0.25, 0.75))
    assert d.mean() == pytest.approx(0.75)
    assert d.variance() == pytest.approx(0.1875)
    assert d.cdf([-0.5, 0.0, 0.5, 1.0])[1] == pytest.approx(0.25)


def test_state_space_default_schedule():
    spec = specs.StateSpaceCidSpec(c=1.0, c_prime=0.5)
    assert spec.b(0) == 0.0
    assert spec.b(1) == pytest.approx(0.25)
    assert spec.b(30) < spec.c_prime


def test_weight_draws_match_support():
    import numpy as np
    u = np.linspace(0.001, 0.999, 101)
    for dist in (specs.DegenerateWeight(2.0), specs.TwoPointWeight(1.0, 3.0, 0.5),
                 specs.UniformWeight(0.5, 1.5), specs.GammaWeight(3.0, 1.0, 0.0),
                 specs.GammaWeight(1.0, 1.0, 0.2)):
        dist.validate()
        w = dist.from_uniform(u)
        assert np.all(w > 0)


@pytest.mark.parametrize("kind", ["polya", "gaussian_last_tick", "broken_feedback_weight"])
@pytest.mark.parametrize("n_coords", [specs.MAX_COORDS + 1, 10 ** 9])
def test_coordinate_count_beyond_the_substreams_rejected_before_broadcasting(
        monkeypatch, kind, n_coords):
    # coordinate 65534 would draw from substream 0xFFFF, the verifiers',
    # and coordinate 65535 from one that overlaps the next path's; a count
    # of 10**9 once built 10**9-entry tuples before any check ran
    def no_broadcast(x, k, field_name):
        raise AssertionError(f"broadcast {field_name} to {k} entries")

    monkeypatch.setattr(specs, "_broadcast", no_broadcast)
    with pytest.raises(SpecValidationError, match=r"\[1, 65534\]") as err:
        spec_from_dict({"kind": kind, "n_coords": n_coords})
    assert err.value.field == "n_coords"


def test_coordinate_count_up_to_the_last_free_substream_accepted():
    assert specs.MAX_COORDS == 0xFFFF - 1
    spec = spec_from_dict({"kind": "broken_feedback_weight", "n_coords": specs.MAX_COORDS})
    assert spec.n_coords == specs.MAX_COORDS


def test_integer_field_reads_integral_numbers_and_decimal_strings():
    for n in (2, 2.0, "2"):
        assert spec_from_dict({"kind": "polya", "n_coords": n}).n_coords == 2


COMPONENT_CLASSES = [*specs.BASE_MEASURES.values(), *specs.WEIGHT_DISTS.values(),
                     *specs.COUPLING_RULES.values(), specs.BetaSchedule,
                     specs.FeedbackWeight, *specs.STOPPING_RULES.values()]
SPEC_CLASSES = list(specs.SPEC_KINDS.values())
NUMERIC_TYPES = {"float", "int", "float | None", "tuple[float, ...]"}
# numeric fields that only their class's _relations checks: their range
# depends on another field
RELATION_FIELDS = {(specs.BetaSchedule, "table"), (specs.BetaSchedule, "ratio"),
                   (specs.StateSpaceCidSpec, "b_table"), (specs.Ar1DriftSpec, "phi")}
# an instance that validates, for classes whose defaults do not or that
# have required fields
VALID = {
    specs.DiscreteBase: specs.DiscreteBase((0.0, 1.0), (0.5, 0.5)),
    specs.GammaWeight: specs.GammaWeight(3.0, 1.0, 0.0),
    specs.IidWeights: specs.IidWeights(specs.DegenerateWeight()),
    specs.CommonWeight: specs.CommonWeight(specs.DegenerateWeight()),
    specs.ConstantStop: specs.ConstantStop(3),
    specs.FirstExceedStop: specs.FirstExceedStop(0.5, 3),
}
# values each domain must reject: NaN, the boundaries -1, 0 and +-inf that
# lie outside it, and a bool
OUTSIDE = {
    "finite": (math.nan, -math.inf, math.inf, True),
    "positive": (math.nan, -1.0, 0.0, math.inf, True),
    "nonnegative": (math.nan, -1.0, math.inf, True),
    "unit_interval": (math.nan, -1.0, 0.0, 1.0, math.inf, True),
    "coordinates": (math.nan, -1, 0, 2.5, math.inf, True, specs.MAX_COORDS + 1),
    "count": (math.nan, -1, 2.5, math.inf, True),
}


def _domain_fields():
    for cls in SPEC_CLASSES + COMPONENT_CLASSES:
        for f in dataclasses.fields(cls):
            if "domain" in f.metadata:
                yield cls, f


def _valid(cls):
    return VALID[cls] if cls in VALID else cls()


@pytest.mark.parametrize("cls", SPEC_CLASSES + COMPONENT_CLASSES,
                         ids=lambda c: c.__name__)
def test_every_numeric_field_is_checked(cls):
    # a numeric field declares its domain or is checked by _relations; any
    # other field is a nested component or the beta schedule's kind name
    _valid(cls).validate()
    for f in dataclasses.fields(cls):
        if f.type in NUMERIC_TYPES:
            assert ("domain" in f.metadata) != ((cls, f.name) in RELATION_FIELDS), f.name
        else:
            assert "domain" not in f.metadata, f.name
            assert "kinds" in f.metadata or (cls, f.name) == (specs.BetaSchedule, "kind")


@pytest.mark.parametrize("cls,f", list(_domain_fields()),
                         ids=lambda x: getattr(x, "__name__", getattr(x, "name", "")))
def test_values_outside_a_domain_are_rejected_under_the_field(cls, f):
    valid = _valid(cls)
    old = getattr(valid, f.name)
    if cls in COMPONENT_CLASSES:
        # validated alone it names its role, in a spec its place there
        names = {None: cls.role, "base[1]": "base[1]"}
    else:
        names = {None: f"{f.name}[0]" if isinstance(old, tuple) else f.name}
    for bad in OUTSIDE[f.metadata["domain"]]:
        value = (bad,) + old[1:] if isinstance(old, tuple) else bad
        obj = dataclasses.replace(valid, **{f.name: value})
        for place, want in names.items():
            with pytest.raises(SpecValidationError) as err:
                obj.validate() if place is None else obj.validate(place)
            assert err.value.field == want, (f.name, bad, place)


# where a component of each family sits in a spec, and a spec that puts it there
_PLACES = {
    "base": ("base[1]", lambda c: {"kind": "polya", "n_coords": 2,
                                   "base": [{"kind": "uniform"}, c]}),
    "weight": ("coupling.dist", lambda c: {"kind": "reinforced", "coupling": {
        "kind": "common_weight", "dist": c}}),
    "coupling": ("coupling", lambda c: {"kind": "reinforced", "n_coords": 2, "coupling": c}),
    "beta": ("beta", lambda c: {"kind": "uniform_coupled", "beta": c}),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_undeclared_spec_key_rejected(kind):
    doc = specs.SPEC_KINDS[kind]().to_dict()
    assert spec_from_dict(doc).to_dict() == doc
    with pytest.raises(SpecValidationError, match="undeclared key") as err:
        spec_from_dict({**doc, "w_0": 5})
    assert err.value.field == "w_0"


@pytest.mark.parametrize("cls", [c for c in COMPONENT_CLASSES if c is not specs.FeedbackWeight],
                         ids=lambda c: c.__name__)
def test_undeclared_component_key_rejected_under_its_place(cls):
    # FeedbackWeight is no config block: it is broken_feedback_weight's view
    doc = _valid(cls).to_dict()
    assert cls.from_dict(doc) == _valid(cls)
    with pytest.raises(SpecValidationError, match="undeclared key") as err:
        cls.from_dict({**doc, "bb": 3}, "here")
    assert err.value.field == "here.bb"
    if cls.role in _PLACES:
        place, spec_doc = _PLACES[cls.role]
        spec_from_dict(spec_doc(doc))    # the place takes the component as it is
        with pytest.raises(SpecValidationError, match="undeclared key") as err:
            spec_from_dict(spec_doc({**doc, "bb": 3}))
        assert err.value.field == f"{place}.bb"
