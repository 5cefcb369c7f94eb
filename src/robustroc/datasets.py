"""Dataset file ingestion/export and the synthetic diabetes-style generator."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .models import Group, PopulationSample

PathLike = Union[str, Path]


class DatasetFormatError(ValueError):
    """Raised on malformed dataset files; message carries the line number."""


def write_dataset(path: PathLike, diseased: PopulationSample,
                  healthy: PopulationSample) -> None:
    """CSV with header group,y,x1..xp; one row per observation, '%.17g' floats."""
    if diseased.p != healthy.p:
        raise ValueError("populations must share the covariate dimension")
    p = diseased.p
    # the bytes of csv.writer: no cell needs quoting, and '%.17g' yields no
    # comma, quote or line break
    row = "%s" + ",%.17g" * (p + 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["group", "y"] + [f"x{j + 1}" for j in range(p)]) + "\r\n")
        for sample in (diseased, healthy):
            tag = sample.label.value
            fh.writelines(row % (tag, y, *xrow)
                          for y, xrow in zip(sample.y.tolist(), sample.x.tolist()))


def read_dataset(path: PathLike) -> tuple[PopulationSample, PopulationSample]:
    """Parse a dataset CSV; returns (diseased, healthy). Errors cite line numbers."""
    from math import isfinite  # local: adds nothing to the package's import
    # per group tag, the cells y, x1..xp of its rows, one row after another
    cells = {Group.DISEASED.value: [], Group.HEALTHY.value: []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("line 1: empty file, header expected") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "group" or header[1] != "y":
            raise DatasetFormatError(
                "line 1: header must start with 'group,y,x1'"
            )
        p = len(header) - 2
        if header[2:] != [f"x{j + 1}" for j in range(p)]:
            raise DatasetFormatError("line 1: covariate columns must be x1..xp")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != p + 2:
                raise DatasetFormatError(
                    f"line {lineno}: expected {p + 2} cells, found {len(row)}"
                )
            tag = row[0].strip()
            dest = cells.get(tag)
            if dest is None:
                raise DatasetFormatError(
                    f"line {lineno}: group must be 'D' or 'H', found {tag!r}"
                )
            try:
                vals = list(map(float, row[1:]))
            except ValueError:
                raise DatasetFormatError(
                    f"line {lineno}: non-numeric cell"
                ) from None
            if not all(map(isfinite, vals)):
                raise DatasetFormatError(f"line {lineno}: non-finite value")
            dest += vals
    out = []
    for group in (Group.DISEASED, Group.HEALTHY):
        if not cells[group.value]:
            raise DatasetFormatError(
                f"no rows for group {group.value!r}: both groups must be present"
            )
        table = np.array(cells[group.value]).reshape(-1, p + 1)
        out.append(PopulationSample(group, table[:, 0], table[:, 1:]))
    return out[0], out[1]


@dataclass(frozen=True)
class SyntheticStudy:
    """Synthetic glucose-style study: samples plus the indices of the injected
    gross vertical outliers in the healthy group."""

    diseased: PopulationSample
    healthy: PopulationSample
    healthy_outlier_indices: np.ndarray


def make_synthetic_study(seed: int = 0, n_healthy: int = 198, n_diseased: int = 88,
                         n_outliers: int = 6) -> SyntheticStudy:
    """Generate a synthetic stand-in for a two-group glucose study.

    The latent transformed marker z = -1/sqrt(glucose) follows a linear
    location-scale model in age; n_outliers healthy observations are replaced
    by gross vertical outliers (marker pushed far above the healthy line) at
    fixed, returned indices.
    """
    if n_outliers < 0 or n_outliers > n_healthy:
        raise ValueError("outlier count must lie in [0, n_healthy]")
    rng = np.random.default_rng(seed)

    def draw(n, beta0, beta1, sigma):
        age = rng.uniform(20.0, 88.0, size=n)
        z = beta0 + beta1 * age + sigma * rng.standard_normal(n)
        return age, z

    # transformed scale: z = -1/sqrt(glucose); glucose = 1/z^2 with z < 0
    age_h, z_h = draw(n_healthy, -0.11, 0.00012, 0.0045)
    age_d, z_d = draw(n_diseased, -0.085, 0.00020, 0.0120)

    if n_outliers:
        idx = rng.choice(n_healthy, size=n_outliers, replace=False)
        idx.sort()
        # gross vertical outliers: 10-15 healthy scales above the line, while
        # keeping z negative so the -1/sqrt(glucose) transform round-trips
        z_h[idx] += 0.0045 * rng.uniform(10.0, 15.0, size=n_outliers)
    else:
        idx = np.empty(0, dtype=int)

    glucose_h = 1.0 / np.square(z_h)
    glucose_d = 1.0 / np.square(z_d)
    healthy = PopulationSample(Group.HEALTHY, glucose_h, age_h)
    diseased = PopulationSample(Group.DISEASED, glucose_d, age_d)
    out_idx = np.asarray(idx, dtype=int)
    out_idx.flags.writeable = False
    return SyntheticStudy(diseased=diseased, healthy=healthy,
                          healthy_outlier_indices=out_idx)
