"""Golden digests of pipeline map files and reports.

The digests were recorded with the implementation that typed the realized
stage and swept every element of the merged and output stages.  The
realized histogram read off the product's, and the merged and output
statistics taken from a witness of the host and min(copies, r + 1) copies,
must reproduce them byte for byte.  Every case runs in two fresh interpreters
with different string-hash seeds, so the digests hold across processes and
not only within one session.  The report digests are those of version 1;
a version 2 report is checked to lack the three constant fields version 1
carried, which are put back before hashing.  The r >= 2 digests were
recorded again when the cut length became the least multiple of the lcm of
the residual's closable short cycle lengths that is at least
max(2r + 3, 6).  Run this file as a script to print the digests of the
current code.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mapprox

CASES = {
    # name: (n, seed, densities, p, r, eps)
    "r1-p1-n12": (12, 1, None, 1, 1, Fraction(1, 8)),
    "r1-p2-n20": (20, 2, None, 2, 1, Fraction(1, 6)),
    "r1-p2-n30": (30, 3, None, 2, 1, Fraction(1, 10)),
    "r1-p1-n16-two-preds": (
        16, 7, {"U": Fraction(1, 3), "V": Fraction(1, 2)}, 1, 1, Fraction(1, 4)
    ),
    # Their residuals hold only fixed points, so they are cut at m = 7.
    "r2-p1-n4": (4, 1, None, 1, 2, Fraction(1, 4)),
    "r2-p2-n4": (4, 2, None, 2, 2, Fraction(1, 3)),
    # Its residual holds only fixed points, so it is cut at m = 9.
    "r3-p1-n6": (6, 42, {"U": Fraction(1, 4)}, 1, 3, Fraction(1, 4)),
}

# name: (sha256 of dump_map(out), sha256 of json.dumps(report, sort_keys=True))
GOLDEN = {
    "r1-p1-n12": (
        "4fe35e975890a253a6b9a5e3a4ece3e1c2809a3a7fede7c309a116e0250e7996",
        "b9896dfce36e0378b020ada9284fdf5135d97956dd1393996875893eae8b62a3",
    ),
    "r1-p2-n20": (
        "c1420062721b01d69045c3b555f564e1a31d31a2b418c897c2e22e075cd11643",
        "319554f2394f4476e12239cae2d73a31281e36a282a75b4de41f7045d1762105",
    ),
    "r1-p2-n30": (
        "3f1221b1ea5262e81db762cc46e11af66d886b240f560c49f5171a3c204f90e9",
        "57d35ba548de721375331d77ca8cb8500da8addeaf2bcdb4133ef064bfea3d03",
    ),
    "r1-p1-n16-two-preds": (
        "f414ef3119873c2bd74112663dc5ee168ea66ca691f4188902d254115774b6a0",
        "1e17c21e33982967d414087383e4430f109167c2802f2e8dfb2e6f763abdbc39",
    ),
    "r2-p1-n4": (
        "beae75a5bd6960c7552d82bf2a42e73d6f638ce8887ad62186dc80652851277c",
        "1bd96766c1de5e6675d216a09745d09f3ef451cb57a01f61b2b877494c8e188a",
    ),
    "r2-p2-n4": (
        "fe7896c831cce1177afa580e75b5d8143ef32c9ba3368ccebf19fbf1f8449775",
        "55b5a7c3b4c1899ce636106d2efc7b474d602216d054e48756238dfef84153e8",
    ),
    "r3-p1-n6": (
        "b9f47f10ee7bde1eef4001989cd980695a6200f5fc527e2efc3ef22f97ad5fa7",
        "549e5a4b255b5171244aba74d0013ef24283580e64e797c165c4884061897609",
    ),
}

HASH_SEEDS = ("0", "1")


def as_version_1(report: dict, r: int, eps: Fraction) -> dict:
    """The version 1 form of a version 2 report: version 1 also carried
    eps_f1 = eps, eps_mu = eps/4 and elementary_rank = r."""
    assert report["version"] == 2
    parameters = report["parameters"]
    assert set(parameters["epsilons"]) == {"eps", "eps_res"}
    assert set(parameters["schedule"]) == {"r", "rr", "clean_rank", "cut_length"}
    epsilons = {**parameters["epsilons"], "eps_f1": str(eps), "eps_mu": str(eps / 4)}
    schedule = {**parameters["schedule"], "elementary_rank": r}
    return {
        **report,
        "version": 1,
        "parameters": {**parameters, "epsilons": epsilons, "schedule": schedule},
    }


def digests() -> dict[str, list[str]]:
    from helpers import seeded
    from mapprox.mapfile import dump_map
    from mapprox.randgen import random_mapping
    from mapprox.realize import pipeline

    out = {}
    for name, (n, seed, densities, p, r, eps) in CASES.items():
        F = seeded(n, seed) if densities is None else random_mapping(n, seed, densities)
        result, report = pipeline(F, p, r, eps)
        out[name] = [
            hashlib.sha256(dump_map(result).encode()).hexdigest(),
            hashlib.sha256(
                json.dumps(as_version_1(report, r, eps), sort_keys=True).encode()
            ).hexdigest(),
        ]
    return out


def test_map_and_report_digests_hold_under_two_hash_seeds():
    paths = [str(Path(mapprox.__file__).parent.parent), str(Path(__file__).parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    pythonpath = os.pathsep.join(paths)
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in HASH_SEEDS
    ]
    try:
        for seed, run in zip(HASH_SEEDS, runs):
            stdout, stderr = run.communicate(timeout=300)
            assert run.returncode == 0, stderr
            got = {name: tuple(pair) for name, pair in json.loads(stdout).items()}
            assert got == GOLDEN, f"PYTHONHASHSEED={seed}"
    finally:
        for run in runs:
            run.kill()


if __name__ == "__main__":
    print(json.dumps(digests()))
