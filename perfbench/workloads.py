"""Workload definitions and output verification for the pdbell benchmark.

A workload is a list of job slots.  Each slot has a small menu of ``pdbell``
invocations that cost about the same; the first entry of every menu is the
reference job.  Seed 0 runs the reference jobs, any other seed draws one
entry per slot with ``random.Random(seed)``.

A job passes when it exits with the recorded code and the sha256 of its
standard output equals the recorded digest.  ``check`` jobs print JSON whose
``ms`` fields are timings, so those fields are removed before hashing.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # The identity suite: polynomial arithmetic, Bernoulli-weighted Fraction
    # sums and many small warm kernel queries.  The tolerance only changes
    # how far the two series checks certify their tails.
    "suite": (
        (
            "check --max-n 32 --format json",
            "check --max-n 32 --format json --tol 1e-10",
            "check --max-n 32 --format json --tol 1e-11",
        ),
    ),
    # Cold, wide big-integer tables and heavy rendering.  Table sizes move by
    # one row either way, so every seed costs about the same; output formats
    # do not, and would also change peak memory.
    "tables": (
        (
            "table pdb --max-n 180 --format json",
            "table pdb --max-n 179 --format json",
            "table pdb --max-n 181 --format json",
        ),
        (
            "table pdb_poly --max-n 60",
            "table pdb_poly --max-n 59",
            "table pdb_poly --max-n 61",
        ),
        (
            "table stirling2 --max-n 300 --format csv",
            "table stirling2 --max-n 299 --format csv",
            "table stirling2 --max-n 301 --format csv",
        ),
    ),
    # A few high-order Fraction series, almost no kernel work.  Rendering is
    # a small part of an egf job, so formats are interchangeable there; orders
    # move by one either way.
    "series": (
        (
            "egf deranged_bell --order 256",
            "egf deranged_bell --order 256 --format json",
            "egf deranged_bell --order 256 --format csv",
        ),
        (
            "egf ordered_bell --order 256",
            "egf ordered_bell --order 256 --format json",
            "egf ordered_bell --order 256 --format csv",
        ),
        (
            "egf pdb --r 2 --order 128",
            "egf pdb --r 1 --order 128",
            "egf pdb --r 3 --order 128",
        ),
        (
            "egf higher_bernoulli --r 3 --order 128",
            "egf higher_bernoulli --r 3 --order 127",
            "egf higher_bernoulli --r 3 --order 129",
        ),
        (
            "egf stirling_column --r 4 --order 192",
            "egf stirling_column --r 4 --order 191",
            "egf stirling_column --r 4 --order 193",
        ),
    ),
}


def jobs_for(workload: str, seed: int) -> list[str]:
    """The job list a seed selects; seed 0 gives the reference jobs."""
    menus = WORKLOADS[workload]
    if seed == 0:
        return [menu[0] for menu in menus]
    rng = random.Random(seed)
    return [menu[rng.randrange(len(menu))] for menu in menus]


def all_jobs() -> list[str]:
    """Every menu entry of every workload, each once."""
    return sorted({job for menus in WORKLOADS.values() for menu in menus for job in menu})


def _canonical(report: object) -> bytes:
    """The form in which ``pdbell check --format json`` prints its report."""
    return (json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n").encode("ascii")


def strip_ms(output: bytes) -> tuple[bytes, dict[str, int]]:
    """``check`` JSON without its ``ms`` fields, and the removed fields by
    check id.

    Raises ValueError unless ``output`` is exactly the canonical form of what
    it parses to, so that the digest of the stripped form still covers every
    byte of the output apart from the ``ms`` values.
    """
    report = json.loads(output)
    if _canonical(report) != output:
        raise ValueError("check output is not in canonical JSON form")
    timings = {result["id"]: result.pop("ms") for result in report["results"]}
    return _canonical(report), timings


class OutputDigest:
    """sha256 of a job's standard output, fed in chunks.

    Output of a ``check`` job is kept (it is a few kilobytes) so that the
    ``ms`` fields can be removed first; any other output is hashed as it
    arrives, so the benchmark's own memory stays small.
    """

    def __init__(self, job: str) -> None:
        self._keep = job.split()[0] == "check"
        self._chunks: list[bytes] = []
        self._hash = hashlib.sha256()
        self.size = 0
        self.check_ms: dict[str, int] = {}

    def update(self, chunk: bytes) -> None:
        self.size += len(chunk)
        if self._keep:
            self._chunks.append(chunk)
        else:
            self._hash.update(chunk)

    def hexdigest(self) -> str:
        if self._keep:
            try:
                body, self.check_ms = strip_ms(b"".join(self._chunks))
            except (ValueError, KeyError, TypeError):
                # hashed with its ``ms`` fields, so it cannot match the record
                body = b"".join(self._chunks)
            return hashlib.sha256(body).hexdigest()
        return self._hash.hexdigest()


def digest_of(job: str, output: bytes) -> str:
    digest = OutputDigest(job)
    digest.update(output)
    return digest.hexdigest()


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, dict[str, object]]:
    return json.loads(path.read_text(encoding="utf-8"))


def verify(
    job: str, exit_code: int, sha256: str, digests: dict[str, dict[str, object]]
) -> str | None:
    """Why the job failed, or None when exit code and digest match."""
    expected = digests.get(job)
    if expected is None:
        return "no recorded digest"
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    if sha256 != expected["sha256"]:
        return "output digest mismatch"
    return None
