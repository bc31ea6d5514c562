"""The benchmark's workloads: their input documents, the CLI call that is
one op, and the check of each op's output.

Every op calls ``equihh.cli.main`` in-process and captures what it
prints.  Degree ranges are passed as ``--degrees=LO..HI``: argparse reads
``--degrees -2..0`` as an option followed by a stray ``-2..0`` and
rejects it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass

# sha256 of the canonical decompose report (sorted keys, compact
# separators, ``runtime_seconds`` removed), recorded from the commit that
# introduced this benchmark.  A change that alters any report field
# other than the runtime fails every op of that workload.
REPORT_DIGESTS = {
    "decompose-s3": "c54e854485148ff0fc2f84802860bdef3620115e9bae93b0df715b14e0eb7e2b",
    "decompose-z2-wide": "593de674c2e453baddba2afa114068f9e19073e2cf60780aafaefddd4b9a68f1",
}

CYCLIC_ORDER = 6
# Generated documents per run.  The basis order decides the pivots of the
# elimination, so one ordering can take 10% more work than another; ops
# cycle through the run's documents, so that its median does not rest on
# a single ordering.
VARIANTS = 8
CYCLIC_DIMS = {"0": 6, "-1": 0, "-2": 0, "-3": 0}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments after the document path
    example: str | None  # bundled document, or None for the seeded generator


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decompose-s3", ("decompose", "--degrees=0..0"), "E5"),
        Workload("decompose-z2-wide", ("decompose", "--degrees=-2..0"), "E1"),
        Workload("hh-cyclic", ("hh", "--degrees=-3..0"), None),
    )
}


def call_cli(cli, argv):
    """Run ``equihh.cli.main(argv)`` in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cyclic_group_algebra(seed):
    """The one-object group algebra k[Z/n], n = CYCLIC_ORDER, as a document.

    The seed picks a unit u mod n and names the element g^i "g<u*i mod n>",
    and it shuffles the basis and composition lists.  Multiplication by a unit is an
    automorphism of Z/n, so every seed describes the same algebra and has
    the same Hochschild homology.
    """
    n = CYCLIC_ORDER
    rng = random.Random(seed)
    u = rng.choice([a for a in range(1, n) if math.gcd(a, n) == 1])

    def label(i):
        j = (u * i) % n
        return "1" if j == 0 else f"g{j}"

    basis = [{"label": label(i), "degree": 0} for i in range(n)]
    rng.shuffle(basis)
    compositions = [
        {
            "source": "pt",
            "middle": "pt",
            "target": "pt",
            "first": label(a),
            "then": label(b),
            "result": {label(a + b): "1"},
        }
        for a in range(1, n)
        for b in range(1, n)
    ]
    rng.shuffle(compositions)
    return {
        "schema": "equihh-schema-1",
        "name": f"Z{n}-seed{seed}",
        "description": f"one-object group algebra k[Z/{n}], generator power unit {u}",
        "field": "q",
        "category": {
            "objects": ["pt"],
            "homs": [{"source": "pt", "target": "pt", "basis": basis}],
            "compositions": compositions,
            "units": {"pt": {"1": "1"}},
        },
        "params": {"degrees": [-3, 0]},
    }


def write_documents(cli, workload, seed, out_dir):
    """Write the workload's input documents under ``out_dir`` and return
    their paths.  A workload with a bundled example uses it unchanged and
    ignores the seed; the others get ``VARIANTS`` documents generated from
    the seed and validated in-process."""
    if workload.example is not None:
        code, text = call_cli(cli, ["examples", workload.example])
        if code != 0:
            raise RuntimeError(f"equihh examples {workload.example} exited {code}")
        path = out_dir / f"{workload.name}.json"
        path.write_text(text, encoding="utf-8")
        return [str(path)]
    rng = random.Random(seed)
    paths = []
    for i in range(VARIANTS):
        path = out_dir / f"{workload.name}-seed{seed}-{i}.json"
        doc = cyclic_group_algebra(rng.getrandbits(32))
        path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        code, out = call_cli(cli, ["validate", str(path), "--output", "json"])
        if code != 0 or not json.loads(out)["valid"]:
            raise RuntimeError(f"generated document {path} does not validate:\n{out}")
        paths.append(str(path))
    return paths


def op_argv(workload, path):
    return [workload.argv[0], path, *workload.argv[1:], "--output", "json"]


def report_digest(stdout):
    report = json.loads(stdout)
    report.pop("runtime_seconds", None)
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_output(workload, code, stdout):
    """None when the op's output is correct, else what is wrong."""
    if code != 0:
        return f"exit code {code}"
    if workload.example is None:
        result = json.loads(stdout)
        if result["certification"] != "Exact":
            return f"certification {result['certification']}"
        if result["dims"] != CYCLIC_DIMS:
            return f"dims {result['dims']}"
        return None
    digest = report_digest(stdout)
    if digest != REPORT_DIGESTS[workload.name]:
        return f"report digest {digest}"
    return None
