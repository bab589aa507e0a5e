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

    [lexical]
    profiles = my_profiles.ini

A ``;`` after a value starts a comment, and another section is ignored
with a warning. ``read_ini`` reads this file and the profiles file under
one set of rules.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import read_utf8

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


def _malformed(path, text: str, exc: configparser.Error) -> str:
    """``<path>, line <n>: malformed INI: <what>`` for the file ``text``
    that ``ConfigParser`` rejects; no line for a value it cannot interpolate."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        line, what = exc.lineno, f"no section header before {exc.line.strip()!r}"
    elif isinstance(exc, configparser.ParsingError):  # the first line it could not parse
        line = exc.errors[0][0]
        source = text.split("\n")[line - 1].strip()
        what = f"cannot parse {source!r}"
    elif isinstance(exc, configparser.DuplicateSectionError):
        line, what = exc.lineno, f"section [{exc.section}] appears twice"
    elif isinstance(exc, configparser.DuplicateOptionError):
        line, what = exc.lineno, f"key {exc.option!r} appears twice in section [{exc.section}]"
    else:
        return f"{path}: malformed INI: {exc}"
    return f"{path}, line {line}: malformed INI: {what}"


def read_ini(path: str | Path, keys_of, **options) -> dict[str, dict[str, object]]:
    """``{section: {field: value}}`` of an INI file, ``options`` going to
    ``ConfigParser``; ``keys_of(section)`` is the section's key table
    ``{key: (field, convert)}``, or None to skip it with a warning.

    A file ``corpus.read_utf8`` cannot read, a file it cannot parse or a
    value it cannot interpolate (a lone ``%``, in any section) raises
    ``ValueError`` naming the file once, with its line where it can.
    Keys are read in order, the section's own and then [DEFAULT]'s (never
    rejected), and the first that is unknown or fails to convert raises
    ``ValueError`` naming the file, the section and the key.
    """
    parser = configparser.ConfigParser(**options)
    text = read_utf8(path, ValueError)
    try:
        parser.read_string(text, str(path))
        # every value interpolated now, so a skipped section is checked too
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:  # not a ValueError, so not a data error
        raise ValueError(_malformed(path, text, exc)) from exc
    settings = {}
    for section, values in sections.items():
        keys = keys_of(section)
        if keys is None:
            log.warning("%s: ignoring unknown section [%s]", path, section)
            continue
        fields = settings[section] = {}
        for key, raw in values.items():
            if key in keys:
                field, convert = keys[key]
                try:
                    fields[field] = convert(raw)
                except ValueError as exc:
                    raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
            elif key not in parser.defaults():  # [DEFAULT] keys reach every section
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]; "
                                 f"it takes {', '.join(keys)}")
    return settings


def load_config(path: str | Path | None) -> AnalysisConfig:
    """The configuration of an INI file, or the defaults for None."""
    if path is None:
        return AnalysisConfig()
    settings = read_ini(path, _SECTIONS.get, inline_comment_prefixes=(";",))
    try:  # the range checks name the section and the key themselves
        return AnalysisConfig(**{field: value for fields in settings.values()
                                 for field, value in fields.items()})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
