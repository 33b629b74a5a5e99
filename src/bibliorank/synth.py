"""Seeded synthetic corpus generator for desk-scale experiments and tests.

Universities get a latent quality factor that drives publication rates,
citation levels and peer-review outcomes.  A configurable share of the
latitude signal tracks quality (``gradient_strength`` 0 = independent,
1 = fully quality-driven), and ``peer_noise`` perturbs the peer-review
target rating before grade counts are realized, so the noiseless limit
rates universities in exact latent-quality order.

Citations are drawn from a floored lognormal, a discrete heavy-tailed
family that leaves some (year, category) cells with median 0 and thereby
exercises the zero-median divisor fallback.  All emitted files follow the
corpus CSV schemas; the latent quality itself is emitted as the QUALITY
indicator so experiments can correlate computed scores against ground
truth.  A fixed seed reproduces the corpus byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import HIGHER_IS_BETTER, CorpusPaths, write_csv
from .errors import ValidationError


@dataclass(frozen=True)
class SynthParams:
    seed: int
    universities: int = 20
    udas: int = 3
    sds_per_uda: int = 3
    life_science_udas: int = 1
    window: tuple[int, int] = (2001, 2003)
    staff_presence: float = 0.7
    staff_min: int = 2
    staff_max: int = 6
    pubs_per_fte: float = 1.5
    multi_category_rate: float = 0.25
    cross_university_rate: float = 0.3
    external_listed_rate: float = 0.2
    max_external_authors: int = 6
    citation_sigma: float = 1.0
    gradient_strength: float = 0.6
    peer_noise: float = 0.1

    def validate(self) -> None:
        if self.universities < 2:
            raise ValidationError("synth: need at least 2 universities")
        if self.udas < 1 or self.sds_per_uda < 1:
            raise ValidationError("synth: need at least one UDA and one SDS per UDA")
        if not 0 <= self.life_science_udas <= self.udas:
            raise ValidationError("synth: life_science_udas out of range")
        if self.window[1] < self.window[0]:
            raise ValidationError("synth: window end precedes start")
        if not 0 < self.staff_min <= self.staff_max:
            raise ValidationError("synth: staff_min/staff_max out of range")
        for name in ("staff_presence", "multi_category_rate", "cross_university_rate",
                     "external_listed_rate", "gradient_strength"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValidationError(f"synth: {name} must be in [0, 1], got {value}")
        if self.pubs_per_fte < 0 or self.peer_noise < 0 or self.citation_sigma <= 0:
            raise ValidationError("synth: rate/noise parameters out of range")


@dataclass
class SynthData:
    """Generated rows in corpus CSV schemas, plus the latent ground truth."""

    params: SynthParams
    quality: dict[str, float]
    publications: list[tuple] = field(default_factory=list)
    pub_categories: list[tuple] = field(default_factory=list)
    pub_authors: list[tuple] = field(default_factory=list)
    staff: list[tuple] = field(default_factory=list)
    taxonomy: list[tuple] = field(default_factory=list)
    macro_map: list[tuple] = field(default_factory=list)
    categories: list[tuple] = field(default_factory=list)
    peer_outcomes: list[tuple] = field(default_factory=list)
    indicators: list[tuple] = field(default_factory=list)


def _grade_counts(target_rating: float, total: int) -> tuple[int, int, int, int]:
    """Closest integer grade counts (E, G, A, L) realizing a target rating.

    Works in units of 0.2: an output contributes 5 (E), 4 (G), 3 (A) or
    1 (L) units, so the target is ``round(5 * rating * total)`` units with
    a floor of one unit per output.
    """
    target_units = round(5.0 * target_rating * total)
    target_units = max(total, min(5 * total, target_units))
    extra = target_units - total  # units above the all-limited floor, 0..4T
    excellent, good, acceptable = extra // 4, 0, 0
    remainder = extra % 4
    if remainder == 3:
        good = 1
    elif remainder == 2:
        acceptable = 1
    elif remainder == 1:
        if excellent >= 1:
            excellent -= 1
            good = 1
            acceptable = 1
        else:
            acceptable = 1  # overshoot by one unit, nearest achievable
    limited = total - excellent - good - acceptable
    return excellent, good, acceptable, limited


def generate(params: SynthParams) -> SynthData:
    """Generate a full synthetic corpus; deterministic for a fixed seed."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    start_year, end_year = params.window
    window_len = end_year - start_year + 1

    universities = [f"U{i + 1:03d}" for i in range(params.universities)]
    quality_draw = rng.gamma(shape=6.0, scale=1.0 / 6.0, size=params.universities)
    quality = {u: float(max(0.05, q)) for u, q in zip(universities, quality_draw)}

    udas = [f"UDA{i + 1}" for i in range(params.udas)]
    sds_of_uda: dict[str, list[str]] = {}
    sds_ids: list[str] = []
    data = SynthData(params=params, quality=quality)
    for uda_index, uda in enumerate(udas):
        life = uda_index < params.life_science_udas
        members = [f"S{uda_index + 1}{j + 1:02d}" for j in range(params.sds_per_uda)]
        sds_of_uda[uda] = members
        for sds in members:
            sds_ids.append(sds)
            data.taxonomy.append((sds, uda, "true" if life else "false"))
            data.categories.append((f"C{sds[1:]}", "true" if life else "false"))
        data.macro_map.append((uda, f"M{1 + uda_index // 2}"))
    home_category = {sds: f"C{sds[1:]}" for sds in sds_ids}
    category_base = {home_category[sds]: float(rng.uniform(0.2, 5.0)) for sds in sds_ids}

    # Staff roster: each university is present in a random subset of SDSs.
    year_fractions = (1.0, 1.0, 1.0, 1.0, 2.0 / 3.0, 1.0 / 3.0)
    staff_of_pair: dict[tuple[str, str], list[str]] = {}
    pair_fte: dict[tuple[str, str], float] = {}
    researcher_serial = 0
    for university in universities:
        present = [sds for sds in sds_ids if rng.random() < params.staff_presence]
        if not present:
            present = [sds_ids[int(rng.integers(0, len(sds_ids)))]]
        for sds in sds_ids:
            if sds not in present:
                continue
            count = int(rng.integers(params.staff_min, params.staff_max + 1))
            members = []
            years_total = 0.0
            for _ in range(count):
                researcher_serial += 1
                researcher = f"R{researcher_serial:05d}"
                years = round(window_len * year_fractions[int(rng.integers(0, len(year_fractions)))], 6)
                data.staff.append((researcher, university, sds, repr(years)))
                members.append(researcher)
                years_total += years
            staff_of_pair[(university, sds)] = members
            pair_fte[(university, sds)] = years_total / window_len

    # Publications with citations; authors drawn from the staffed pair.
    # A cross-university partner is drawn uniformly from the other
    # universities staffed in the same SDS, in ``universities`` order.
    staffed_in: dict[str, list[str]] = {
        sds: [u for u in universities if (u, sds) in staff_of_pair] for sds in sds_ids
    }
    doc_types = ("article", "article", "article", "review", "proceedings")
    pub_serial = 0
    for university in universities:
        for sds in sds_ids:
            members = staff_of_pair.get((university, sds))
            if not members:
                continue
            peers = staffed_in[sds]
            home = peers.index(university)
            expected = params.pubs_per_fte * quality[university] * pair_fte[(university, sds)]
            n_pubs = int(rng.poisson(expected))
            for _ in range(n_pubs):
                pub_serial += 1
                pub_id = f"P{pub_serial:06d}"
                year = int(rng.integers(start_year, end_year + 1))
                doc_type = doc_types[int(rng.integers(0, len(doc_types)))]

                cats: list[tuple[str, float]] = [(home_category[sds], 1.0)]
                if len(sds_ids) > 1 and rng.random() < params.multi_category_rate:
                    other = sds_ids[int(rng.integers(0, len(sds_ids)))]
                    if other != sds:
                        cats = [(home_category[sds], 0.6), (home_category[other], 0.4)]

                n_home = 1 + min(int(rng.poisson(1.2)), len(members) - 1)
                cross: list[tuple[str, str]] = []
                if rng.random() < params.cross_university_rate and len(peers) > 1:
                    pick = int(rng.integers(0, len(peers) - 1))
                    partner = peers[pick + (pick >= home)]  # skip the home university
                    cross = [(partner, sds)] * (1 + int(rng.integers(0, 2)))
                n_external = int(rng.binomial(params.max_external_authors, 0.15))
                total = n_home + len(cross) + n_external

                order = rng.permutation(total) + 1  # byline positions
                slots: list[tuple[int, str, str, bool]] = []
                for index in range(n_home):
                    slots.append((int(order[index]), university, sds, True))
                for index, (partner, partner_sds) in enumerate(cross):
                    slots.append((int(order[n_home + index]), partner, partner_sds, True))
                if n_external and rng.random() < params.external_listed_rate:
                    slots.append((int(order[n_home + len(cross)]), "", "", False))

                mu = sum(w * category_base[c] for c, w in cats) * (0.35 + 0.65 * quality[university])
                citations = int(rng.lognormal(math.log(mu), params.citation_sigma))

                data.publications.append((pub_id, year, doc_type, citations, total))
                for cat, weight in cats:
                    data.pub_categories.append((pub_id, cat, repr(weight)))
                for position, author_university, author_sds, domestic in sorted(slots):
                    data.pub_authors.append(
                        (pub_id, position, "true" if domestic else "false", author_university, author_sds)
                    )

    # Peer outcomes per (university, UDA) with staff.
    q_values = [quality[u] for u in universities]
    q_min, q_max = min(q_values), max(q_values)
    spread = q_max - q_min
    for university in universities:
        for uda in udas:
            headcount = sum(
                len(staff_of_pair.get((university, sds), ())) for sds in sds_of_uda[uda]
            )
            if headcount == 0:
                continue
            total = max(1, round(headcount / 4))
            base = 0.5 if spread == 0 else (quality[university] - q_min) / spread
            noisy = base + params.peer_noise * float(rng.standard_normal())
            target = 0.2 + 0.8 * min(1.0, max(0.0, noisy))
            excellent, good, acceptable, limited = _grade_counts(target, total)
            data.peer_outcomes.append((university, uda, excellent, good, acceptable, limited))

    # Indicators: latitude gradient, derived regional economics, latent truth.
    z = (np.asarray(q_values) - np.mean(q_values)) / (np.std(q_values) or 1.0)
    mix = params.gradient_strength * z + math.sqrt(
        max(0.0, 1.0 - params.gradient_strength**2)
    ) * rng.standard_normal(len(universities))
    latitude = 41.5 + 3.0 * mix
    expenditure = 120.0 + 18.0 * (latitude - 41.5) + rng.normal(0.0, 25.0, len(universities))
    gdp = 24000.0 + 900.0 * (latitude - 41.5) + rng.normal(0.0, 2600.0, len(universities))
    for index, university in enumerate(universities):
        data.indicators.append(("LAT", HIGHER_IS_BETTER, university, repr(round(float(latitude[index]), 4))))
    for index, university in enumerate(universities):
        data.indicators.append(("EXP", HIGHER_IS_BETTER, university, repr(round(float(expenditure[index]), 2))))
    for index, university in enumerate(universities):
        data.indicators.append(("GDP", HIGHER_IS_BETTER, university, repr(round(float(gdp[index]), 2))))
    for university in universities:
        data.indicators.append(("QUALITY", HIGHER_IS_BETTER, university, repr(round(quality[university], 6))))
    return data


def write_synth(data: SynthData, out_dir: Path | str) -> None:
    """Write all generated rows as corpus CSV files under ``out_dir``."""
    paths = CorpusPaths.from_dir(Path(out_dir))
    for f in fields(CorpusPaths):
        write_csv(getattr(paths, f.name), f.name, getattr(data, f.name))


def synthesize(params: SynthParams, out_dir: Path | str) -> SynthData:
    data = generate(params)
    write_synth(data, out_dir)
    return data
