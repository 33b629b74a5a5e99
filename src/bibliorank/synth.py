"""Seeded synthetic corpus generator for desk-scale experiments and tests.

Universities get a latent quality factor that drives publication rates,
citation levels and peer-review outcomes.  A configurable share of the
latitude signal tracks quality (``gradient_strength`` 0 = independent,
1 = fully quality-driven), and ``peer_noise`` perturbs the peer-review
target rating before grade counts are realized.  A realized rating is a
multiple of 1/(5 x outputs), so cells with different output counts round
differently, and even the noiseless limit does not rate in exact
latent-quality order.  What holds at ``peer_noise`` 0 is a weak order among
cells with equal output counts: the cell of a higher-quality university
never rates lower.

Citations are drawn from a floored lognormal, a discrete heavy-tailed
family that leaves some (year, category) cells with median 0 and thereby
exercises the zero-median divisor fallback.  All emitted files follow the
corpus CSV schemas; the latent quality itself is emitted as the QUALITY
indicator so experiments can correlate computed scores against ground
truth.

Seven module constants fix the rest of the corpus's shape.  A university is
staffed in each SDS with chance ``STAFF_PRESENCE`` (one that draws none is
staffed in one drawn SDS), with ``STAFF_MIN`` to ``STAFF_MAX`` researchers
per staffed SDS.  A staffed SDS's publication count is Poisson with mean
``PUBS_PER_FTE`` x quality x its full-time equivalents.  A publication
draws a second category with chance ``MULTI_CATEGORY_RATE``, a byline
with external authors lists one of them with chance
``EXTERNAL_LISTED_RATE``, and ``CITATION_SIGMA`` is the citation
lognormal's shape.  So a Poisson mean is at most 9 x a university's
quality, a Gamma(6, 1/6) draw, and citation medians stay under 5 x
(0.35 + 0.65 x quality): far below numpy's Poisson limit (about 9.2e18)
and the corpus's ``MAX_COUNT`` (2**53), so no draw is checked against them.

``generate`` draws each file's rows into a row sink, nine lists by default.
``synthesize`` hands it nine file sinks instead, which write each row to
its file, under a temporary name in the output directory, as it is drawn,
so the corpus is never held in memory whole; ``write_synth`` then commits
the files by renaming them into place.  A run that fails after validation
leaves no file behind.

A fixed seed reproduces the corpus byte for byte under one numpy version.
numpy's ``Generator`` streams may change between releases (NEP 19), and
the package asks only for ``numpy>=1.24``.  The order and number of the
draws are part of the output: a draw added, dropped or moved changes it.
"""

from __future__ import annotations

import contextlib
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import DEFAULT_WINDOW, HIGHER_IS_BETTER, CorpusPaths, row_writer
from .errors import ValidationError

STAFF_PRESENCE = 0.7
STAFF_MIN, STAFF_MAX = 2, 6
PUBS_PER_FTE = 1.5
MULTI_CATEGORY_RATE = 0.25
EXTERNAL_LISTED_RATE = 0.2
CITATION_SIGMA = 1.0
# The most external authors a byline may draw from: above the longest real bylines (about 5,000 names), and
# small enough that numpy's binomial takes it and a byline's position list stays small.
EXTERNAL_AUTHORS_LIMIT = 10_000


class SynthParams(NamedTuple):
    seed: int
    universities: int = 20
    udas: int = 3
    sds_per_uda: int = 3
    life_science_udas: int = 1
    window: tuple[int, int] = DEFAULT_WINDOW
    cross_university_rate: float = 0.3
    max_external_authors: int = 6
    gradient_strength: float = 0.6
    peer_noise: float = 0.1

    def validate(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"synth: seed must be >= 0, got {self.seed}")
        if self.universities < 2:
            raise ValidationError("synth: need at least 2 universities")
        if self.udas < 1 or self.sds_per_uda < 1:
            raise ValidationError("synth: need at least one UDA and one SDS per UDA")
        if self.udas > 10 and self.sds_per_uda > 100:  # UDA 1's SDS 101 and UDA 11's SDS 1 would both be S1101
            raise ValidationError("synth: more than 10 UDAs with more than 100 SDSs per UDA repeat SDS ids")
        if not 0 <= self.life_science_udas <= self.udas:
            raise ValidationError("synth: life_science_udas out of range")
        if self.window[1] < self.window[0]:
            raise ValidationError("synth: window end precedes start")
        if not 0 <= self.max_external_authors <= EXTERNAL_AUTHORS_LIMIT:
            raise ValidationError(
                f"synth: max_external_authors must be in [0, {EXTERNAL_AUTHORS_LIMIT}], got {self.max_external_authors}"
            )
        for name in ("cross_university_rate", "gradient_strength"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValidationError(f"synth: {name} must be in [0, 1], got {value}")
        if not 0 <= self.peer_noise < math.inf:
            raise ValidationError(f"synth: peer_noise must be finite and >= 0, got {self.peer_noise}")


# The row sink of each corpus file, one per stem; the QUALITY indicator rows carry the latent quality.  A sink
# takes rows by append() and extend() and tells how many it took by len(): a list, or a file sink that
# synthesize() commits with write_synth().
SynthData = namedtuple("SynthData", CorpusPaths.__annotations__)


def temporary_path(path: Path) -> Path:
    """The name :func:`synthesize` writes the corpus file ``path`` under until it commits it."""
    return path.with_name(f"{path.name}.tmp")


class _FileSink:
    """Rows of one corpus file, written as they come under a temporary name until :meth:`commit`."""

    def __init__(self, temporary: Path, schema: str) -> None:
        self.path = temporary  # the file's name on disk: the temporary, then the committed path
        self.rows = 0
        self._file = open(temporary, "x", encoding="utf-8", newline="")
        self._write = row_writer(self._file, schema)  # the header only fills the file's buffer

    def __len__(self) -> int:
        return self.rows

    def extend(self, rows: Sequence[Sequence]) -> None:
        self._write(rows)
        self.rows += len(rows)

    def append(self, row: Sequence) -> None:
        self.extend((row,))

    def commit(self, path: Path) -> None:
        self._file.close()
        self.path = self.path.replace(path)

    def discard(self) -> None:
        """Close the file and remove it, whether committed or not."""
        with contextlib.suppress(OSError):
            self._file.close()
        with contextlib.suppress(OSError):
            self.path.unlink()


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


def generate(params: SynthParams, data: SynthData | None = None) -> SynthData:
    """Draw a full synthetic corpus into ``data``'s row sinks (nine new lists by default) and return it.

    Deterministic for a fixed seed.  Each sink takes its rows in file order, in one ``extend`` per
    university or per block of rows, or one ``append`` per row where the rows are few.
    """
    import numpy as np  # here, its one user, so that importing SynthParams (as cli does) loads no numpy

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
    if data is None:
        data = SynthData(*([] for _ in SynthData._fields))
    for uda_index, uda in enumerate(udas):
        life = uda_index < params.life_science_udas
        members = [f"S{uda_index + 1}{j + 1:02d}" for j in range(params.sds_per_uda)]
        sds_of_uda[uda] = members
        for sds in members:
            sds_ids.append(sds)
            data.taxonomy.append((sds, uda, life))
            data.categories.append((f"C{sds[1:]}", life))
        data.macro_map.append((uda, f"M{1 + uda_index // 2}"))
    home_category = {sds: f"C{sds[1:]}" for sds in sds_ids}
    category_base = {sds: float(rng.uniform(0.2, 5.0)) for sds in sds_ids}  # of each SDS's home category

    # Staff roster: each university is present in a random subset of SDSs.
    year_options = [round(window_len * fraction, 6) for fraction in (1.0, 1.0, 1.0, 1.0, 2.0 / 3.0, 1.0 / 3.0)]
    staff_count: dict[tuple[str, str], int] = {}  # researchers per staffed (university, SDS) pair
    pair_fte: dict[tuple[str, str], float] = {}
    researcher_serial = 0
    for university in universities:
        draws = rng.random(len(sds_ids)).tolist()  # the doubles of one scalar draw per SDS, in order
        present = [sds for sds, draw in zip(sds_ids, draws) if draw < STAFF_PRESENCE]
        if not present:
            present = [sds_ids[int(rng.integers(0, len(sds_ids)))]]
        staff = []  # this university's rows, one extend
        for sds in present:
            count = int(rng.integers(STAFF_MIN, STAFF_MAX + 1))
            years = [year_options[int(rng.integers(0, len(year_options)))] for _ in range(count)]
            members = [f"R{researcher_serial + k:05d}" for k in range(1, count + 1)]
            researcher_serial += count
            staff += [(researcher, university, sds, y) for researcher, y in zip(members, years)]
            staff_count[(university, sds)] = count
            pair_fte[(university, sds)] = sum(years) / window_len
        data.staff.extend(staff)

    # Publications with citations; authors drawn from the staffed pair.
    # A cross-university partner is drawn uniformly from the other
    # universities staffed in the same SDS, in ``universities`` order.
    staffed_in: dict[str, list[str]] = {
        sds: [u for u in universities if (u, sds) in staff_count] for sds in sds_ids
    }
    doc_types = ("article", "article", "article", "review", "proceedings")
    pub_serial = 0
    for university in universities:
        citation_scale = 0.35 + 0.65 * quality[university]
        publications, pub_categories, pub_authors = [], [], []  # this university's rows, one extend per sink
        for sds in sds_ids:
            n_staff = staff_count.get((university, sds))
            if not n_staff:
                continue
            peers = staffed_in[sds]
            home = peers.index(university)
            n_pubs = int(rng.poisson(PUBS_PER_FTE * quality[university] * pair_fte[(university, sds)]))
            for _ in range(n_pubs):
                pub_serial += 1
                pub_id = f"P{pub_serial:06d}"
                year = int(rng.integers(start_year, end_year + 1))
                doc_type = doc_types[int(rng.integers(0, len(doc_types)))]

                cats = [(pub_id, home_category[sds], 1.0)]
                citation_base = category_base[sds]
                if len(sds_ids) > 1 and rng.random() < MULTI_CATEGORY_RATE:
                    other = sds_ids[int(rng.integers(0, len(sds_ids)))]
                    if other != sds:
                        cats = [(pub_id, home_category[sds], 0.6), (pub_id, home_category[other], 0.4)]
                        citation_base = 0.6 * category_base[sds] + 0.4 * category_base[other]

                n_home = 1 + min(int(rng.poisson(1.2)), n_staff - 1)
                n_cross = 0
                if rng.random() < params.cross_university_rate and len(peers) > 1:
                    pick = int(rng.integers(0, len(peers) - 1))
                    partner = peers[pick + (pick >= home)]  # skip the home university
                    n_cross = 1 + int(rng.integers(0, 2))
                n_external = int(rng.binomial(params.max_external_authors, 0.15))
                total = n_home + n_cross + n_external

                order = list(range(1, total + 1))
                rng.shuffle(order)  # byline positions; draws exactly as rng.permutation(total) does
                authors = [(pub_id, position, True, university, sds) for position in order[:n_home]]
                if n_cross:
                    authors += [(pub_id, position, True, partner, sds) for position in order[n_home:n_home + n_cross]]
                if n_external and rng.random() < EXTERNAL_LISTED_RATE:
                    authors.append((pub_id, order[n_home + n_cross], False, "", ""))

                citations = int(rng.lognormal(math.log(citation_base * citation_scale), CITATION_SIGMA))
                publications.append((pub_id, year, doc_type, citations, total))
                pub_categories += cats
                authors.sort()
                pub_authors += authors
        data.publications.extend(publications)
        data.pub_categories.extend(pub_categories)
        data.pub_authors.extend(pub_authors)

    # Peer outcomes per (university, UDA) with staff.
    q_values = [quality[u] for u in universities]
    q_min, q_max = min(q_values), max(q_values)
    spread = q_max - q_min
    for university in universities:
        for uda in udas:
            headcount = sum(staff_count.get((university, sds), 0) for sds in sds_of_uda[uda])
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
    for name, values, digits in (("LAT", latitude, 4), ("EXP", expenditure, 2), ("GDP", gdp, 2)):
        data.indicators.extend(
            [(name, HIGHER_IS_BETTER, u, round(float(value), digits)) for u, value in zip(universities, values)]
        )
    data.indicators.extend([("QUALITY", HIGHER_IS_BETTER, u, round(quality[u], 6)) for u in universities])
    return data


def write_synth(data: SynthData, out_dir: Path | str) -> None:
    """Commit the file sinks of ``data``: close each and rename it to its corpus file under ``out_dir``."""
    for sink, path in zip(data, vars(CorpusPaths.from_dir(out_dir)).values()):
        sink.commit(path)


def synthesize(params: SynthParams, out_dir: Path | str) -> SynthData:
    """Write the corpus of ``params`` as its nine CSV files under ``out_dir``, all or nothing, and return the sinks.

    ``generate`` writes each row to its file as it draws it, so the rows are never all held at once; each
    file is written under a temporary name in ``out_dir`` and :func:`write_synth` renames them into place.
    On any failure after validation every file this run opened is closed and removed, committed or not, and
    so are ``out_dir`` and its parents if this run created them.
    """
    params.validate()
    out_dir = Path(out_dir)
    created = [directory for directory in (out_dir, *out_dir.parents) if not directory.exists()]  # deepest first
    out_dir.mkdir(parents=True, exist_ok=True)
    sinks: list[_FileSink] = []
    try:
        for stem, path in vars(CorpusPaths.from_dir(out_dir)).items():
            sinks.append(_FileSink(temporary_path(path), stem))
        data = generate(params, SynthData(*sinks))
        write_synth(data, out_dir)
    except BaseException:
        for sink in sinks:
            sink.discard()
        for directory in created:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    return data
