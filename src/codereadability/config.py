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
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass
from pathlib import Path


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


def load_config(path: str | Path | None) -> AnalysisConfig:
    if path is None:
        return AnalysisConfig()
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    kwargs = {}
    if parser.has_option("dictionary", "path"):
        kwargs["dictionary_path"] = parser.get("dictionary", "path")
    if parser.has_option("tf.dbscan", "eps"):
        kwargs["dbscan_eps"] = parser.getfloat("tf.dbscan", "eps")
    if parser.has_option("tf.dbscan", "min_samples"):
        kwargs["dbscan_min_samples"] = parser.getint("tf.dbscan", "min_samples")
    if parser.has_option("bwf", "tab_width"):
        kwargs["tab_width"] = parser.getint("bwf", "tab_width")
    if parser.has_option("model", "lambda_l2"):
        kwargs["lambda_l2"] = parser.getfloat("model", "lambda_l2")
    if parser.has_option("model", "inner_cv"):
        kwargs["inner_cv"] = parser.getint("model", "inner_cv")
    if parser.has_option("lexical", "profiles"):
        kwargs["profiles_path"] = parser.get("lexical", "profiles")
    return AnalysisConfig(**kwargs)
