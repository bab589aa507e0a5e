"""Runtime configuration shared across the pipeline.

INI layout mirrors the dotted key names used throughout the docs::

    [dictionary]
    path = /opt/wordnet/dict

    [tf.dbscan]
    eps = 0.5          ; finite, >= 0
    min_samples = 2    ; >= 1

    [bwf]
    tab_width = 4      ; >= 1

    [model]
    lambda_l2 = 1.0    ; finite, >= 0
    inner_cv = 5       ; >= 2

A ``;`` after a value starts a comment. An unknown key of these sections
or of [lexical] (``profiles``) is an error, unless [DEFAULT] has it;
another section is ignored with a warning. A file that is not INI at all
(no section header, a section twice, a lone ``%``) raises ``ValueError``
too.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import decode_utf8

log = logging.getLogger(__name__)


def check_lambda_l2(lambda_l2: float) -> None:
    """Reject an L2 penalty the Newton fit cannot use: with NaN it runs
    every iteration and returns NaN weights."""
    if not (math.isfinite(lambda_l2) and lambda_l2 >= 0):
        raise ValueError(f"[model] lambda_l2 must be finite and >= 0, got {lambda_l2}")


@dataclass(frozen=True)
class AnalysisConfig:
    dictionary_path: str | None = None
    dbscan_eps: float = 0.5
    dbscan_min_samples: int = 2
    tab_width: int = 4
    lambda_l2: float = 1.0
    inner_cv: int = 5
    profiles_path: str | None = None

    def __post_init__(self):
        # NaN would compare false everywhere and silently zero every NOC
        if not (math.isfinite(self.dbscan_eps) and self.dbscan_eps >= 0):
            raise ValueError(f"[tf.dbscan] eps must be finite and >= 0, got {self.dbscan_eps}")
        if self.dbscan_min_samples < 1:
            raise ValueError(f"[tf.dbscan] min_samples must be >= 1, got {self.dbscan_min_samples}")
        if self.tab_width < 1:
            raise ValueError(f"[bwf] tab_width must be >= 1, got {self.tab_width}")
        check_lambda_l2(self.lambda_l2)
        # stratified_folds needs two folds at least
        if self.inner_cv < 2:
            raise ValueError(f"[model] inner_cv must be >= 2, got {self.inner_cv}")

    def to_dict(self) -> dict:
        return asdict(self)


# each section's keys: the AnalysisConfig field each sets, and its conversion
_SECTIONS = {
    "dictionary": {"path": ("dictionary_path", str)},
    "tf.dbscan": {"eps": ("dbscan_eps", float), "min_samples": ("dbscan_min_samples", int)},
    "bwf": {"tab_width": ("tab_width", int)},
    "model": {"lambda_l2": ("lambda_l2", float), "inner_cv": ("inner_cv", int)},
    "lexical": {"profiles": ("profiles_path", str)},
}


def read_ini(path: str | Path, **options) -> configparser.ConfigParser:
    """The parsed INI file (UTF-8, a BOM dropped), ``options`` going to
    ``ConfigParser``. A file it cannot parse, or a value it cannot
    interpolate (a lone ``%``), raises ``ValueError`` naming the file; an
    undecodable byte names the file and its line."""
    parser = configparser.ConfigParser(**options)
    with open(path, "rb") as fh:
        data, source = fh.read(), fh.name
    try:
        parser.read_string(decode_utf8(data, path, ValueError), source)
        for section in parser.sections():
            parser.items(section)  # interpolation errors would otherwise wait for a get
    except configparser.Error as exc:  # not a ValueError, so not a data error
        raise ValueError(f"{path}: malformed INI: {exc}") from exc
    return parser


def load_config(path: str | Path | None) -> AnalysisConfig:
    """The configuration of an INI file, or the defaults for None."""
    if path is None:
        return AnalysisConfig()
    parser = read_ini(path, inline_comment_prefixes=(";",))
    kwargs = {}
    # each value error names the file, the section and the key; the range
    # checks of AnalysisConfig name the section and the key themselves
    for section in parser.sections():
        keys = _SECTIONS.get(section)
        if keys is None:
            log.warning("%s: ignoring unknown section [%s]", path, section)
            continue
        for key in parser[section]:
            if key in keys:
                field, convert = keys[key]
                try:
                    kwargs[field] = convert(parser.get(section, key))
                except ValueError as exc:
                    raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            elif key not in parser.defaults():  # [DEFAULT] keys reach every section
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]; "
                                 f"it takes {', '.join(keys)}")
    try:
        return AnalysisConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
