"""The four benchmark workloads: seeded inputs, one job each, exactness checks.

Inputs come from the benchmark's own generator (stdlib `random`, seeded from
a string, so the same seed gives the same structures on every platform), not
from `mapprox.randgen`: the program under test receives only the generated
structures.  Every mapping has one predicate `U` at density 1/4.

A job calls `mapprox` through module objects (`m.realize.pipeline(...)`), so
that the functions a traced run wraps on those modules are the ones called.
Each job checks its own output and raises `CheckFailed` when a check fails;
it returns the number of input elements it completed, the sha256 digests of
its outputs, and a few sizes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

U_DENSITY = 4  # each element is marked U with probability 1/U_DENSITY


class CheckFailed(Exception):
    """A job's output failed one of its exactness checks."""


@dataclass
class JobResult:
    elements: int
    digests: dict[str, str]
    eps_miss: Optional[bool] = None  # pipeline jobs only: report ldist.ok is false
    sizes: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    pool: int  # distinct inputs generated at set-up; a run makes whole passes over them
    make_input: Callable  # (m, rng, n) -> input
    run: Callable  # (m, input) -> JobResult
    seeded: bool = True  # False: the same fixed inputs for every benchmark seed


def random_mapping(m, rng: random.Random, n: int):
    f = tuple(rng.randrange(n) for _ in range(n))
    marked = frozenset(v for v in range(n) if rng.randrange(U_DENSITY) == 0)
    return m.structure.FiniteMapping(f=f, marks={"U": marked})


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# pipelines


def _pipeline_job(p: int, r: int, eps: Fraction):
    def run(m, F) -> JobResult:
        out, report = m.realize.pipeline(F, p, r, eps)
        text = m.mapfile.dump_map(out)
        check(out.n == report["stages"][-1]["size"], "output size != last stage size")
        entry = report["ldist"]
        check("final" in entry and isinstance(entry.get("ok"), bool), "report lacks ldist.final/ok")
        return JobResult(
            elements=F.n,
            digests={
                "map": sha(text),
                "report": sha(json.dumps(report, sort_keys=True)),
                "certificate": report["certificate"]["digest"],
            },
            eps_miss=not entry["ok"],
            sizes={"map_bytes": len(text)},
        )

    return run


# ---------------------------------------------------------------------------
# the README command chain: cut, types, measure file round trip, certificate,
# realize, map file


def _roundtrip_job(m, F) -> JobResult:
    lt = m.localtypes
    table = lt.TypeTable()
    H = m.structure.cycle_cut_product(F, 6, 3, table)
    mu = lt.type_distribution(H, 3, table)

    measure_text = json.dumps(m.mapfile.measure_to_json(mu))
    back = m.mapfile.measure_from_json(json.loads(measure_text), lt.TypeTable())
    check(len(back.entries) == len(mu.entries), "measure read back changed support size")
    check(
        [mass for _, mass in back.entries] == [mass for _, mass in mu.entries],
        "measure read back changed masses",
    )

    cert = m.fmtp.restricted_fmtp_certificate(mu, 1)
    check(isinstance(cert, m.fmtp.CompanionCertificate), f"no certificate: {cert!r}")
    check(m.fmtp.verify_certificate(mu, cert), "verify_certificate rejected the certificate")

    target = mu.project(1)
    digests = {"measure": sha(measure_text), "certificate": m.realize.certificate_digest(cert)}
    map_bytes = 0
    for multiplier in (1, 2):
        G = m.realize.realize(mu, 1, multiplier)
        text = m.mapfile.dump_map(G)
        map_bytes += len(text)
        digests[f"map_m{multiplier}"] = sha(text)
        got = lt.type_distribution(G, 1, lt.TypeTable())
        check(lt.measure_tv(got, target) == 0, f"realize(m={multiplier}) TV is not 0")
    return JobResult(
        elements=F.n,
        digests=digests,
        sizes={"measure_bytes": len(measure_text), "map_bytes": map_bytes},
    )


# ---------------------------------------------------------------------------
# statistics over pairs: type kernel without sharing, ldist, compress, EF game


def _pair(m, rng: random.Random, n: int):
    return random_mapping(m, rng, n), random_mapping(m, rng, n)


def _stats_job(m, pair) -> JobResult:
    A, B = pair
    lt = m.localtypes
    lines = []
    for r in (1, 2, 3):
        mu = lt.type_distribution(A, r, lt.TypeTable())
        lines.append(f"types r={r}: " + " ".join(str(mass) for _, mass in mu.entries))
    d = m.equivalence.ldist(A, B, 2, 1, lt.TypeTable())
    lines.append(f"ldist={d}")
    compressed = {}
    for r in (1, 2):
        C = m.compress.standard_r_approximation(A, r)
        check(C.n <= A.n, f"compressed r={r} structure is larger than its input")
        compressed[r] = C
        lines.append(f"compressed r={r}: {C.n}")
    check(m.equivalence.ef_equivalent(A, compressed[2], 2), "compressed r=2 is not 2-equivalent")
    text = m.mapfile.dump_map(compressed[2])
    return JobResult(
        elements=A.n + B.n,
        digests={"stats": sha("\n".join(lines)), "compressed": sha(text)},
        sizes={"map_bytes": len(text)},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline-r1",
            n=1000,
            pool=1,  # one job (20 to 33 s of wall time) already fills a run
            make_input=random_mapping,
            run=_pipeline_job(2, 1, Fraction(1, 10)),
        ),
        Workload(
            "pipeline-r2",
            n=8,
            # One fixed input: r=2 job time varies 4x between random inputs of
            # one size (and 2x between relabelings of one input), far more
            # than any bound a seeded median over one or two jobs could meet.
            pool=1,
            make_input=random_mapping,
            run=_pipeline_job(1, 2, Fraction(1, 4)),
            seeded=False,
        ),
        Workload(
            "realize-roundtrip",
            n=200,
            pool=2,  # a pass of 7 to 14 s of wall time: a run makes one or two
            make_input=random_mapping,
            run=_roundtrip_job,
        ),
        Workload(
            "stats",
            n=300,
            pool=2,  # a pass of 8 to 16 s of wall time: a run makes one or two
            make_input=_pair,
            run=_stats_job,
        ),
    )
}


def make_inputs(m, workload: Workload, seed: int) -> list:
    """The workload's input pool for a benchmark seed."""
    key = seed if workload.seeded else "fixed"
    return [
        workload.make_input(m, random.Random(f"{workload.name}:{key}:{i}"), workload.n)
        for i in range(workload.pool)
    ]
