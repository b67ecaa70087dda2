#!/usr/bin/env python3
"""Compare the key structure of two bench JSON files.

CI regenerates the perf baselines (results/BENCH_backends.json,
results/BENCH_query.json, results/BENCH_parallel.json, ...) and runs
this script against the committed copies. Values are expected to drift run to run — the machine differs —
but the *schema* must not: a missing field, a renamed query, or a
dropped backend record means a downstream consumer of the baseline
silently broke.

With --check-fingerprint the workload itself must match too: the
top-level "fingerprint" objects ({n, m, edges_fnv1a}) must be equal, so
a committed baseline measured on a different graph than the one the
code now generates fails instead of passing as a schema match. CI uses
it for the files it regenerates at full size (backends, query, steal).

Usage: bench_schema_diff.py [--check-fingerprint] COMMITTED REGENERATED
Exit 0 if the key structure (and fingerprint, when asked) matches, 1
with a diff listing otherwise.
"""

import json
import sys


def key_paths(value, prefix=""):
    """Every key path in the JSON tree. Arrays contribute the schema of
    their first element (records in one array share a shape) plus their
    identifying 'backend'/'query'/'bench'/'workload'/'runtime' values so
    a dropped record is a schema change, not just a value change."""
    paths = set()
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(child, path)
    elif isinstance(value, list):
        if value:
            paths |= key_paths(value[0], f"{prefix}[]")
        for element in value:
            if isinstance(element, dict):
                for tag in ("backend", "query", "bench", "workload", "runtime"):
                    if tag in element:
                        paths.add(f"{prefix}[].{tag}={element[tag]}")
    return paths


def main():
    args = sys.argv[1:]
    check_fingerprint = "--check-fingerprint" in args
    files = [a for a in args if a != "--check-fingerprint"]
    if len(files) != 2:
        sys.exit(__doc__.strip())
    with open(files[0]) as fh:
        committed = json.load(fh)
    with open(files[1]) as fh:
        regenerated = json.load(fh)
    want = key_paths(committed)
    got = key_paths(regenerated)
    missing = sorted(want - got)
    extra = sorted(got - want)
    failed = False
    if missing or extra:
        for path in missing:
            print(f"MISSING from regenerated: {path}")
        for path in extra:
            print(f"EXTRA in regenerated:     {path}")
        failed = True
    if check_fingerprint:
        old = committed.get("fingerprint")
        new = regenerated.get("fingerprint")
        if old is None or old != new:
            print(f"FINGERPRINT differs: committed {old}, regenerated {new}")
            failed = True
    if failed:
        sys.exit(1)
    checked = " and fingerprint" if check_fingerprint else ""
    print(f"schema{checked} OK: {len(want)} key paths match ({files[0]})")


if __name__ == "__main__":
    main()
