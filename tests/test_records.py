"""Every tortb record is frozen, slotted, compares and hashes by value, and
rebuilds through its checks when copied, pickled or replaced."""

import copy
import inspect
import pickle
import struct
import sys
import weakref

import pytest

from tortb import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    AnchorCase,
    CalibrationResult,
    CoefficientSet,
    DriveLog,
    DriverProfile,
    EpisodeConfig,
    EpisodeOutcome,
    NdrtClass,
    ScenarioSpec,
    SchemaError,
    SolvedCoefficient,
    SummaryStats,
    TakeoverContext,
    TakeoverMetrics,
    TortbEstimate,
    UnknownCoefficient,
    estimate_tortb,
    run_episode,
)
from tortb.records import replace

DRIVER = DriverProfile(0.2, 80.0)
SCENARIO = SCENARIO_PRESETS["S1"]
CTX = TakeoverContext(NdrtClass.HANDS_FREE, 1)
SOLVED = SolvedCoefficient(UnknownCoefficient.C_NOA, 1.85, 1.9, -0.1)
CONFIG = EpisodeConfig(DRIVER, SCENARIO, CTX, response_noise=0.5)
CHANNEL = (0.0, 0.5)

# Per record class: an instance, its field names in order, and a change to
# one field that its checks accept.
RECORDS = {
    DriverProfile: (DRIVER, ("srt", "experience_km_per_week"), {"srt": 0.25}),
    ScenarioSpec: (SCENARIO, ("noa", "noj", "ego_speed", "hazard_speed", "label"),
                   {"label": "x"}),
    TakeoverContext: (CTX, ("ndrt_class", "ordinal"), {"ordinal": 2}),
    CoefficientSet: (DEFAULT_COEFFICIENTS, ("c_noa", "c_noj", "rsc_bands", "dec_bands",
                                            "dec_floor", "ndrtc_handheld", "oc_repeat"),
                     {"c_noa": 2.0}),
    TortbEstimate: (estimate_tortb(DRIVER, SCENARIO, CTX),
                    ("srt", "dec", "noa_term", "noj_term", "rsc", "ndrtc", "oc"), {"oc": 0.4}),
    AnchorCase: (AnchorCase(SCENARIO, DRIVER, CTX, 7.0, UnknownCoefficient.C_NOA),
                 ("scenario", "driver", "ctx", "known_tortb", "unknown"), {"known_tortb": 8.0}),
    SolvedCoefficient: (SOLVED, ("unknown", "raw", "rounded", "residual"), {"residual": 0.0}),
    CalibrationResult: (CalibrationResult((SOLVED,)), ("sequence",), {"sequence": ()}),
    DriveLog: (DriveLog((0.0, 0.05), CHANNEL, CHANNEL, CHANNEL, CHANNEL, tor_time=0.0),
               ("t", "lateral_displacement", "acceleration", "steering", "brake", "tor_time",
                "sample_rate"), {"tor_time": 0.05}),
    TakeoverMetrics: (TakeoverMetrics(0.5, 0.25, None, 5.5),
                      ("tot", "avg_ld", "max_acc", "takeover_time_abs"), {"tot": None}),
    EpisodeConfig: (CONFIG, ("driver", "scenario", "ctx", "coeffs", "deadline", "budget_driver",
                             "response_noise", "maneuver_duration"), {"response_noise": 0.25}),
    EpisodeOutcome: (run_episode(CONFIG), ("required_time", "deadline", "config", "seed"),
                     {"seed": 1}),
    SummaryStats: (SummaryStats(1.0, 0.0, 1.0, 1.0, 1), ("mean", "std", "min", "max", "n"),
                   {"n": 2}),
}
CASES = [(cls, *rest) for cls, rest in RECORDS.items()]
IDS = [cls.__name__ for cls in RECORDS]


def values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def test_every_record_class_is_covered():
    assert len(RECORDS) == 13
    assert all(type(obj) is cls for cls, (obj, _, _) in RECORDS.items())


@pytest.mark.parametrize("cls,obj,fields,change", CASES, ids=IDS)
def test_a_record_refuses_assignment_and_deletion_and_has_no_dict(cls, obj, fields, change):
    for name in (fields[0], "no_such_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert not hasattr(obj, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(obj)
    assert cls.__slots__ == fields
    # One pointer per field on a bare object: no dict, no weak reference list.
    assert cls.__basicsize__ == object.__basicsize__ + struct.calcsize("P") * len(fields)


@pytest.mark.parametrize("cls,obj,fields,change", CASES, ids=IDS)
def test_a_record_is_built_by_a_constructor_that_lists_its_fields(cls, obj, fields, change):
    """The constructor's signature names each field, with its default where it has one."""
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == fields
    built = cls(**{name: getattr(obj, name) for name in fields
                   if parameters[name].default is inspect.Parameter.empty})
    assert type(built) is cls
    assert all(getattr(built, name) == p.default for name, p in parameters.items()
               if p.default is not inspect.Parameter.empty)


@pytest.mark.parametrize("cls,obj,fields,change", CASES, ids=IDS)
def test_a_record_compares_and_hashes_by_its_field_values(cls, obj, fields, change):
    twin = cls(*values(obj, fields))
    assert twin == obj and twin is not obj
    assert obj != replace(obj, **change)
    # Another class never compares equal, even holding the same values.
    assert obj.__eq__(values(obj, fields)) is NotImplemented and obj != values(obj, fields)
    assert hash(twin) == hash(obj) == hash(values(obj, fields))


def test_a_calibration_result_gives_a_new_solved_dict_on_each_access():
    result = RECORDS[CalibrationResult][0]
    solved = result.solved
    assert solved == {UnknownCoefficient.C_NOA: SOLVED} and result.solved is not solved
    solved.clear()
    assert result.solved == {UnknownCoefficient.C_NOA: SOLVED}


@pytest.mark.parametrize("cls,obj,fields,change", CASES, ids=IDS)
def test_a_record_shows_each_field_in_its_repr(cls, obj, fields, change):
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(obj, fields)))
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_repr_text_is_pinned():
    assert repr(DRIVER) == "DriverProfile(srt=0.2, experience_km_per_week=80.0)"
    assert repr(CTX) == (
        "TakeoverContext(ndrt_class=<NdrtClass.HANDS_FREE: 'handsfree'>, ordinal=1)"
    )
    assert repr(RECORDS[TortbEstimate][0]) == (
        "TortbEstimate(srt=0.2, dec=1.5, noa_term=3.8, noj_term=0.0, rsc=1.0, ndrtc=0.0, oc=0.0)"
    )


@pytest.mark.parametrize("cls,obj,fields,change", CASES, ids=IDS)
def test_copies_and_pickles_of_a_record_equal_it(cls, obj, fields, change):
    for again in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(again) is cls and again == obj


@pytest.mark.parametrize("cls,obj,fields,change", CASES, ids=IDS)
def test_replace_changes_one_field_and_refuses_an_unknown_one(cls, obj, fields, change):
    (name, value), = change.items()
    changed = replace(obj, **change)
    assert getattr(changed, name) == value
    assert all(getattr(changed, f) == getattr(obj, f) for f in fields if f != name)
    with pytest.raises(TypeError, match="no_such_field"):
        replace(obj, no_such_field=1)


def test_replace_runs_the_checks_again():
    with pytest.raises(SchemaError, match="^srt must be within"):
        replace(DRIVER, srt=2.0)


def test_a_pickle_runs_the_checks_again():
    """Unpickling calls the class, so a bad value in the stream is refused, a
    band table that a CoefficientSet has already checked included."""
    forged = pickle.dumps(DRIVER, protocol=0).replace(b"F0.2\n", b"F2.0\n")
    with pytest.raises(SchemaError, match="^srt must be within"):
        pickle.loads(forged)
    forged = pickle.dumps(DEFAULT_COEFFICIENTS, protocol=0).replace(b"F0.25\n", b"F0.75\n")
    with pytest.raises(SchemaError, match="^rsc_bands values must not decrease"):
        pickle.loads(forged)


def test_replace_keeps_checked_band_tables_and_checks_a_moved_one():
    """A band table is checked once; given as the other table, it is checked again."""
    changed = replace(DEFAULT_COEFFICIENTS, c_noa=1.0)
    assert changed.rsc_bands is DEFAULT_COEFFICIENTS.rsc_bands
    assert changed.dec_bands is DEFAULT_COEFFICIENTS.dec_bands
    with pytest.raises(SchemaError, match="^dec_bands values must not increase"):
        replace(DEFAULT_COEFFICIENTS, dec_bands=DEFAULT_COEFFICIENTS.rsc_bands)
    with pytest.raises(SchemaError, match="^rsc_bands values must not decrease"):
        replace(DEFAULT_COEFFICIENTS, rsc_bands=DEFAULT_COEFFICIENTS.dec_bands)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_gives_what_replace_gives():
    for obj, _, change in RECORDS.values():
        assert copy.replace(obj, **change) == replace(obj, **change)
