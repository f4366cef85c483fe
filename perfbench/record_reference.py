"""Regenerate perfbench/reference.json, the expected outputs the benchmark checks against.

Run from the repository root on a commit whose outputs are known good:

    PYTHONPATH=src python3 perfbench/record_reference.py

The committed file was recorded before any optimisation of the package, so a
later change that alters an output fails the benchmark's checks.  It holds
the per-entry verify reports (as-stated) at every catalog order the benchmark
uses, and render() digests of every theta constant the expand-deep seed can
pick.
"""

from __future__ import annotations

import io
import json

import theta5
from theta5 import CATALOG_CHARS, theta_const
from theta5.cli import run as cli_run

from workloads import REFERENCE, SIZES, catalog_module, char_key, series_digest


def main() -> None:
    ids = [e.id for e in catalog_module().catalog()]
    ref = {"theta5_version": theta5.__version__, "catalog": {}, "theta_digests": {}}
    for size in SIZES.values():
        order = size["catalog_order"]
        buf = io.StringIO()
        cli_run(["verify", "--id", *ids, "--order", str(order), "--exact-only",
                 "--format", "json"], out=buf)
        ref["catalog"][str(order)] = {d["id"]: d for d in json.loads(buf.getvalue())}
        for ch in CATALOG_CHARS:
            for m in range(4):
                key = f"{char_key(ch)}|{m}|{size['theta_order']}"
                ref["theta_digests"][key] = series_digest(
                    theta_const(ch, m, size["theta_order"]))
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
