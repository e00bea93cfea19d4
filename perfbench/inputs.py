"""Seeded benchmark inputs and the answers expected from them.

Tables come from triplify's synthetic registry generator; the benchmark
then namespaces patient and treatment IDs per centre (as a federation of
registry exports would) and injects dirty cells at a fixed share. Every
expected answer here is computed from the tables with plain Python, never
from triplify, so a wrong conversion, parse, validation or query result
shows as a mismatch.
"""

from __future__ import annotations

import random
from datetime import date

import triplify as T

PATIENT_NS = "https://data.example.org/registry/patient/"
TREATMENT_NS = "https://data.example.org/registry/treatment/"
NCIT = "http://purl.obolibrary.org/obo/NCIT_"

# Share of patient rows with a NULL AGE, of patient rows with a NULL SEX,
# and of treatment rows with an impossible RT_START_DATE. Real registry
# exports carry such cells; they keep convert's skip path and the
# validator's violation path in every workload.
DIRT_SHARE = 0.01
IMPOSSIBLE_DATES = (
    "2020-02-30",
    "2021-02-29",
    "2019-04-31",
    "2022-06-31",
    "2023-09-31",
    "2022-11-31",
)

SEX_CODES = ("C16576", "C20197")
SITE_CODES = ("C12468", "C12420", "C12971")
MODALITY_CODES = ("C15402", "C104914")


def make_dirty(tables: dict[str, T.TableSource], prefix: str, seed: int) -> dict[str, T.TableSource]:
    """Namespace one centre's IDs with `prefix` and inject dirt, in place.

    `tables` are `generate_synthetic`'s output; the same tables and seed
    always give the same dirty cells.
    """
    patients = tables["PATIENT"].rows
    treatments = tables["TREATMENT"].rows
    if prefix:
        for row in patients:
            row["ID"] = prefix + row["ID"]
        for row in treatments:
            row["ID"] = prefix + row["ID"]
            row["PATIENT_ID"] = prefix + row["PATIENT_ID"]
    rng = random.Random(f"dirt-{seed}")
    for row in rng.sample(patients, _dirty_count(len(patients))):
        row["AGE"] = None
    for row in rng.sample(patients, _dirty_count(len(patients))):
        row["SEX"] = None
    for row in rng.sample(treatments, _dirty_count(len(treatments))):
        row["RT_START_DATE"] = rng.choice(IMPOSSIBLE_DATES)
    return tables


def _dirty_count(rows: int) -> int:
    return max(1, round(rows * DIRT_SHARE))


def _valid_date(text):
    if text is None:
        return None
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


class Oracle:
    """Facts about one or more centres' tables, read without triplify."""

    def __init__(self, centres: list[dict[str, T.TableSource]]):
        self.patients: dict[str, tuple] = {}  # patient IRI -> (age, sex, site)
        self.treatments: list[tuple] = []  # (treatment IRI, patient IRI, date, modality)
        self.null_age = self.null_sex = self.bad_date = 0
        self.rows = 0
        for tables in centres:
            patients = tables["PATIENT"].rows
            treatments = tables["TREATMENT"].rows
            self.rows += len(patients) + len(treatments)
            for row in patients:
                age = None if row["AGE"] is None else int(row["AGE"])
                self.null_age += age is None
                self.null_sex += row["SEX"] is None
                self.patients[PATIENT_NS + row["ID"]] = (age, row["SEX"], row["TUMOUR_SITE"])
            for row in treatments:
                day = _valid_date(row["RT_START_DATE"])
                self.bad_date += day is None
                self.treatments.append(
                    (
                        TREATMENT_NS + row["ID"],
                        PATIENT_NS + row["PATIENT_ID"],
                        day,
                        row["MODALITY_CODE"],
                    )
                )
        self.treatments_of: dict[str, list[tuple]] = {}
        for t in self.treatments:
            self.treatments_of.setdefault(t[1], []).append(t)
        self.triples = self._triples()
        self.duplicates = self._duplicates()
        # A NULL SEX skips the patient's sex edge and the sex-code subject.
        self.skipped_terms = self.null_age + 2 * self.null_sex + self.bad_date
        # Each dirty cell leaves exactly one min-count constraint unmet.
        self.violations = self.null_age + self.null_sex + self.bad_date

    # --- what the bundled mapping and shapes make of these tables -----------

    def _triples(self) -> int:
        """Distinct triples the bundled mapping yields from these tables."""
        per_patient = sum(
            4 + (age is not None) + (sex is not None) + len(self.treatments_of.get(p, ()))
            for p, (age, sex, _site) in self.patients.items()
        )
        per_treatment = sum(2 + (day is not None) for _t, _p, day, _m in self.treatments)
        return per_patient + per_treatment + len(self._codes())

    def _duplicates(self) -> int:
        """Code-class triples emitted once per row but stored once."""
        emitted = (
            sum(sex is not None for _a, sex, _s in self.patients.values())
            + len(self.patients)
            + len(self.treatments)
        )
        return emitted - len(self._codes())

    def _codes(self) -> set[tuple[str, str]]:
        codes = {("sex", sex) for _a, sex, _s in self.patients.values() if sex is not None}
        codes |= {("site", site) for _a, _x, site in self.patients.values()}
        codes |= {("modality", m) for *_rest, m in self.treatments}
        return codes

    # --- query answers, as sets of rows of IRI values / lexical forms -------

    def age_and_sex(self, p):
        age, sex, _site = self.patients[p]
        if age is None or sex is None:
            return set()
        return {(str(age), NCIT + sex)}

    def age_of(self, p):
        age = self.patients[p][0]
        return set() if age is None else {(str(age),)}

    def treatments_of_patient(self, p):
        return {(t,) for t, *_rest in self.treatments_of.get(p, ())}

    def aged_at_least(self, k):
        return {(p, str(age)) for p, (age, _s, _x) in self.patients.items() if age is not None and age >= k}

    def treated_on_or_after(self, day):
        return {(t, d.isoformat()) for t, _p, d, _m in self.treatments if d is not None and d >= day}

    def count_patients(self):
        return {(str(len(self.patients)),)}

    def count_modality(self, code):
        return {(str(sum(m == code for *_rest, m in self.treatments)),)}

    def aged_with_modality(self, k, code):
        return {
            (p, str(age))
            for p, (age, _s, _x) in self.patients.items()
            if age is not None and age >= k and any(t[3] == code for t in self.treatments_of.get(p, ()))
        }

    def modality_on_or_after(self, code, day):
        return {
            (p, t)
            for t, p, d, m in self.treatments
            if m == code and d is not None and d >= day
        }

    def sex_and_site(self, sex, site):
        return {(p,) for p, (_a, s, x) in self.patients.items() if s == sex and x == site}


def _iri(value: str) -> str:
    return f"<{value}>"


def _date_literal(day: date) -> str:
    return f'"{day.isoformat()}"^^xsd:date'


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def query_rounds(kind: str, oracle: Oracle, seed: int):
    """Endless seeded stream of query rounds for one class.

    A round is a list of (query text, expected answer), one per shape of
    the class, asked in turn:

    point: 1-2 patterns with a bound patient subject.
    scan:  one pattern over a large predicate or class bucket, with a
           numeric FILTER, a date FILTER or COUNT.
    join:  3-4 patterns joined through patient and treatment nodes.

    The shapes of a class differ in cost several-fold, so the latency of
    single queries is multi-modal and its median jumps between shapes from
    run to run; the latency of a round is not. Each shape draws its
    parameters from a fixed grid in a seeded order, so every run holds the
    same mix of selectivities; the seed changes which patients,
    thresholds and dates come when, not how hard the mix is.
    """
    rng = random.Random(f"{kind}-{seed}")
    ages = range(18, 91)
    days = [date(year, month, 1) for year in range(2019, 2024) for month in range(1, 13)]
    if kind == "point":
        patients = sorted(oracle.patients)
        while True:
            for p in _shuffled(rng, patients):
                yield [
                    (
                        f"SELECT ?age ?sex WHERE {{ {_iri(p)} roo:P100027 ?age . "
                        f"{_iri(p)} roo:P100018 ?sex . }}",
                        oracle.age_and_sex(p),
                    ),
                    (f"SELECT ?t WHERE {{ {_iri(p)} roo:P100039 ?t . }}", oracle.treatments_of_patient(p)),
                    (f"SELECT ?age WHERE {{ {_iri(p)} roo:P100027 ?age . }}", oracle.age_of(p)),
                ]
    elif kind == "scan":
        counted = [None, *MODALITY_CODES] * 24
        while True:
            for k, day, code in zip(_shuffled(rng, ages), _shuffled(rng, days), _shuffled(rng, counted)):
                if code is None:
                    count = ("SELECT (COUNT(*) AS ?n) WHERE { ?p rdf:type ncit:C16960 . }", oracle.count_patients())
                else:
                    count = (
                        f"SELECT (COUNT(*) AS ?n) WHERE {{ ?t roo:P100042 ncit:{code} . }}",
                        oracle.count_modality(code),
                    )
                yield [
                    (
                        f"SELECT ?p ?age WHERE {{ ?p roo:P100027 ?age . FILTER(?age >= {k}) }}",
                        oracle.aged_at_least(k),
                    ),
                    (
                        f"SELECT ?t ?d WHERE {{ ?t roo:P100041 ?d . FILTER(?d >= {_date_literal(day)}) }}",
                        oracle.treated_on_or_after(day),
                    ),
                    count,
                ]
    elif kind == "join":
        pairs = [(sex, site) for sex in SEX_CODES for site in SITE_CODES] * 10
        while True:
            for k, day, code, (sex, site) in zip(
                _shuffled(rng, ages),
                _shuffled(rng, days),
                _shuffled(rng, MODALITY_CODES * 36),
                _shuffled(rng, pairs),
            ):
                yield [
                    (
                        "SELECT ?p ?age WHERE { ?p rdf:type ncit:C16960 . ?p roo:P100027 ?age . "
                        f"?p roo:P100039 ?t . ?t roo:P100042 ncit:{code} . FILTER(?age >= {k}) }}",
                        oracle.aged_with_modality(k, code),
                    ),
                    (
                        f"SELECT ?p ?t WHERE {{ ?p roo:P100039 ?t . ?t roo:P100042 ncit:{code} . "
                        f"?t roo:P100041 ?d . FILTER(?d >= {_date_literal(day)}) }}",
                        oracle.modality_on_or_after(code, day),
                    ),
                    (
                        f"SELECT ?p WHERE {{ ?p roo:P100018 ncit:{sex} . ?p roo:P100008 ?n . "
                        f"?n roo:P100029 ncit:{site} . }}",
                        oracle.sex_and_site(sex, site),
                    ),
                ]
    else:
        raise ValueError(f"unknown query class {kind!r}")


def answer_rows(solution: T.Solution) -> list[tuple[str, ...]]:
    """A solution's rows as tuples of IRI values and literal lexical forms."""
    out = []
    for row in solution.rows:
        out.append(
            tuple(
                term.value if isinstance(term, T.Iri) else term.lexical
                for term in (row[v] for v in solution.variables)
            )
        )
    return out
