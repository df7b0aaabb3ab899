"""The record contract (``pirstream.records``) over every record class of
the package: construction by position and by keyword, defaults and the
``__post_init__`` checks, refused assignment and deletion, equality,
hash and repr by the fields, and pickling of the fields alone.

A frozen ``dataclasses`` class with the same field names is the oracle
of equality, hash and repr.
"""

import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import pirstream
from pirstream import channels, cli, config, decoder, protocol, rates
from pirstream.errors import (
    InvalidParams,
    LengthMismatch,
    LocatorMismatch,
    PirstreamError,
)
from pirstream.fields import Field
from pirstream.grs import GrsCode
from pirstream.records import Record
from pirstream.recovering import RecoveringMatrix, build_A
from pirstream.seeds import derive_rng

GF13 = Field(13)
CODE = GrsCode(GF13, 6, 2, (1, 2, 3, 4, 5, 6))


def samples():
    """One record of each class, most built by the package's own calls."""
    scheme = protocol.plain_scheme(CODE, t=1, memory=1, m=2, desired=0,
                                   support=(3, 4, 5))
    files = protocol.random_files(GF13, 2, 3, 2, derive_rng(1, "files"))
    system = protocol.storage_encode(files, CODE)
    stream = protocol.run_protocol(system, scheme, 2)
    return [
        CODE,
        system,
        scheme,
        protocol.make_queries(scheme, 3),
        stream.blocks[0],
        stream,
        protocol.privacy_audit(scheme, (0,)),
        decoder.UmDistanceProfile.for_byzantine(10, 2, 2),
        decoder.recover_plain(stream, scheme),
        channels.ErasureSchedule(frozenset({2}), 3, 1, 3, 1),
        channels.ErrorSchedule(((1, 0, 5),), "manual"),
        config.ExperimentConfig(run={"seed": "1"}),
        rates.rate_report(scheme, 3),
        build_A(GF13, 2, 1, (1, 2, 3)),
        cli._check_channel({}, scheme, 3),
    ]


SAMPLES = samples()
IDS = [type(r).__name__ for r in SAMPLES]


def values(record):
    return [getattr(record, name) for name in type(record)._fields]


def twin(record):
    """A frozen dataclass of the record's class name and fields, with the
    record's values."""
    cls = type(record)
    shape = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return shape(*values(record))


def test_the_samples_cover_every_record_class():
    for info in pkgutil.iter_modules(pirstream.__path__):
        importlib.import_module(f"pirstream.{info.name}")
    assert {type(r) for r in SAMPLES} == set(Record.__subclasses__())
    assert len(SAMPLES) == 15


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    cls = type(record)
    by_position = cls(*values(record))
    by_keyword = cls(**dict(zip(cls._fields, values(record))))
    assert by_position == by_keyword == record
    assert values(by_keyword) == values(record)
    with pytest.raises(TypeError):
        cls(*values(record), None)
    with pytest.raises(TypeError):
        cls(*values(record), **{cls._fields[0]: None})


def test_fields_are_the_annotations_in_order():
    assert protocol.Block._fields == ("status", "parts")
    assert GrsCode._fields == ("field", "n", "k", "locators", "multipliers")
    assert protocol.PirScheme._fields[-2:] == ("window", "burst")
    assert cli._Channel._fields == ("kind", "mode", "b", "profile")


def test_trailing_defaults():
    code = GrsCode(GF13, 3, 1, [1, 2, 3])
    # __post_init__ fills the default multipliers and makes tuples
    assert code.multipliers == (1, 1, 1) and code.locators == (1, 2, 3)
    assert code == GrsCode(GF13, 3, 1, (1, 2, 3), (1, 1, 1))
    scheme = SAMPLES[2]
    assert (scheme.window, scheme.burst) == (None, None)
    with pytest.raises(TypeError):
        GrsCode(GF13, 3, 1)


def test_each_config_gets_its_own_dicts():
    a, b = config.ExperimentConfig(), config.ExperimentConfig()
    for name in config.ExperimentConfig._fields:
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name)
    a.run["seed"] = "1"
    assert b.run == {} and config.ExperimentConfig().run == {}
    assert config.ExperimentConfig(audit={"sets": "0"}).audit == {"sets": "0"}


@pytest.mark.parametrize("build, error", [
    (lambda: GrsCode(GF13, 3, 4, (1, 2, 3)), LengthMismatch),
    (lambda: GrsCode(GF13, 3, 1, (1, 2)), LengthMismatch),
    (lambda: GrsCode(GF13, 3, 1, (1, 1, 2)), LocatorMismatch),
    (lambda: GrsCode(GF13, 3, 1, (1, 2, 3), (1, 0, 1)), LocatorMismatch),
    (lambda: protocol.ResponseStream(6, 3, 1, 1, ()), InvalidParams),
], ids=["k>n", "short-locators", "repeated-locator", "zero-multiplier",
        "block-count"])
def test_post_init_checks_raise_typed_errors(build, error):
    with pytest.raises(error) as info:
        build()
    assert isinstance(info.value, PirstreamError)


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(record):
    name = type(record)._fields[0]
    before = values(record)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert values(record) == before


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_equality_hash_and_repr_are_the_dataclass_ones(record):
    cls = type(record)
    again = cls(*values(record))
    assert again == record and again is not record
    assert not record != again
    assert repr(record) == repr(twin(record))
    if cls is config.ExperimentConfig:
        # its fields are dicts, so it hashes as its twin does: not at all
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(again) == hash(record) == hash(twin(record))
    # another class with the same fields is never equal
    assert record != twin(record)
    first = cls._fields[0]
    changed = dict(zip(cls._fields, values(record)), **{first: object()})
    if cls is not GrsCode:         # GrsCode's checks read its field
        assert cls(**changed) != record


def test_repr_names_the_fields_in_order():
    assert repr(protocol.Block(protocol.ERASED, None)) == (
        "Block(status='erased', parts=None)")
    assert repr(protocol.AuditReport(True, 4, (0,), None)) == (
        "AuditReport(identical=True, enumerated=4, colluding=(0,), "
        "witness=None)")
    assert repr(GrsCode(GF13, 2, 1, (1, 2))) == (
        "GrsCode(field=GF(13), n=2, k=1, locators=(1, 2), "
        "multipliers=(1, 1))")


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_a_pickled_record_carries_its_fields_alone(record):
    cls = type(record)
    # build what each class keeps in a cached_property
    kept = {GrsCode: "_generator", protocol.PirScheme: "_peeling",
            decoder.UmDistanceProfile: "_budget",
            RecoveringMatrix: "rank"}.get(cls)
    if kept:
        getattr(record, kept)
        assert kept in vars(record)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and values(copy) == values(record)
    assert set(vars(copy)) == set(cls._fields)
