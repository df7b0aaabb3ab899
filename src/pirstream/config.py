"""Experiment configuration: flat key = value files with [section] groups.

Parsed with configparser, validated eagerly with precise messages so the
CLI can fail with exit code 2 before any work starts.  A run setting that
a command-line flag can also give (seed, trials, workers) is read by
``setting``, which takes the flag over the config key over the default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field as dfield

from .errors import ConfigError
from .fields import Field, parse_field_spec
from .grs import GrsCode
from .protocol import (
    BLOCK,
    BYZANTINE,
    PLAIN,
    block_scheme,
    byzantine_scheme,
    plain_scheme,
)

_VARIANTS = {"plain": PLAIN, "block-erasure": BLOCK, "byzantine": BYZANTINE}


# Every key a command reads; any other key is an error.
_KEYS = {
    "scheme": {"variant", "field", "n", "k", "t", "m", "ell", "desired",
               "locators", "memory", "support", "epsilon", "window"},
    "channel": {"kind", "mode", "b"},
    "run": {"seed", "trials", "workers"},
    "search": {"rows", "bands", "trials", "seed"},
    "rates": {"n", "k", "t", "ell"},
    "audit": {"sets"},
}


@dataclass
class ExperimentConfig:
    """Everything a command needs, already cross-validated."""

    scheme_cfg: dict = dfield(default_factory=dict)
    channel: dict = dfield(default_factory=dict)
    run: dict = dfield(default_factory=dict)
    search: dict = dfield(default_factory=dict)
    rates: dict = dfield(default_factory=dict)
    audit: dict = dfield(default_factory=dict)


def _int(section, key, raw, minimum=None):
    try:
        v = int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"[{section}] {key} = {v} must be >= {minimum}")
    return v


def setting(section, key, values, flag, default, minimum=None):
    """An integer run setting: the command-line flag ``--key`` if one was
    given, else ``[section] key`` from ``values``, else ``default``; below
    ``minimum`` it is an error that names the flag or the key."""
    if flag is None:
        return _int(section, key, values.get(key, default), minimum)
    if minimum is not None and flag < minimum:
        raise ConfigError(f"--{key} = {flag} must be >= {minimum}")
    return flag


def _int_list(section, key, raw):
    out = []
    for part in raw.replace(",", " ").split():
        out.append(_int(section, key, part))
    return out


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    cfg = ExperimentConfig()
    for section in parser.sections():
        target = {
            "scheme": cfg.scheme_cfg,
            "channel": cfg.channel,
            "run": cfg.run,
            "search": cfg.search,
            "rates": cfg.rates,
            "audit": cfg.audit,
        }.get(section)
        if target is None:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, value in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key [{section}] {key} in {path}")
            target[key] = value.strip()
    return cfg


def build_field(scheme_cfg: dict) -> Field:
    spec = scheme_cfg.get("field")
    if not spec:
        raise ConfigError("[scheme] field (e.g. 2^4 or 2^4:13) is required")
    try:
        return parse_field_spec(spec)
    except Exception as exc:
        raise ConfigError(f"[scheme] field = {spec!r}: {exc}") from exc


def build_scheme(cfg: ExperimentConfig):
    """(field, storage code, scheme, ell) from the [scheme] section."""
    sc = cfg.scheme_cfg
    variant_raw = sc.get("variant", "plain")
    variant = _VARIANTS.get(variant_raw)
    if variant is None:
        raise ConfigError(f"[scheme] variant = {variant_raw!r}; expected one of "
                          f"{sorted(_VARIANTS)}")
    field = build_field(sc)
    for key in ("n", "k", "t", "m", "ell"):
        if key not in sc:
            raise ConfigError(f"[scheme] {key} is required")
    n = _int("scheme", "n", sc["n"], 1)
    k = _int("scheme", "k", sc["k"], 1)
    t = _int("scheme", "t", sc["t"], 1)
    m = _int("scheme", "m", sc["m"], 1)
    ell = _int("scheme", "ell", sc["ell"], 1)
    desired = _int("scheme", "desired", sc.get("desired", "0"), 0)
    if "locators" in sc and sc["locators"]:
        locators = tuple(_int_list("scheme", "locators", sc["locators"]))
    else:
        if n > field.q - 1:
            raise ConfigError(f"[scheme] n = {n} needs a field with q > n")
        locators = tuple(range(1, n + 1))
    try:
        code = GrsCode(field, n, k, locators)
    except Exception as exc:
        raise ConfigError(f"[scheme] invalid storage code: {exc}") from exc
    try:
        if variant == PLAIN:
            memory = _int("scheme", "memory", sc.get("memory", "0"), 0)
            support = _support(sc, n, default_size=min(n - (k + t - 1), n))
            scheme = plain_scheme(code, t, memory, m, desired, support)
        elif variant == BLOCK:
            eps = _int("scheme", "epsilon", sc.get("epsilon", "1"), 1)
            window = _int("scheme", "window", sc.get("window", "0"), 2)
            support = _support(sc, n, default_size=None)
            scheme = block_scheme(code, t, eps, window, m, desired, support)
        else:
            scheme = byzantine_scheme(code, t, m, desired)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"[scheme] {exc}") from exc
    return field, code, scheme, ell


def _support(sc: dict, n: int, default_size):
    if "support" in sc and sc["support"]:
        support = _int_list("scheme", "support", sc["support"])
        if any(not 0 <= j < n for j in support):
            raise ConfigError(f"[scheme] support indices must be in [0, {n - 1}]")
        return tuple(support)
    if default_size is None:
        raise ConfigError("[scheme] support is required for this variant")
    return tuple(range(n - default_size, n))
