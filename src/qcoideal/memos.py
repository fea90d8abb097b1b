"""The process-wide memos, one dict per namespace: "cyclotomic", "factors",
"products", "strips" and "lefts" (scalars) and "datum" (the named Cartan
data by (kind, rank)).  `CartanDatum.caches` holds what is memoised per datum."""

from collections import defaultdict

MEMOS = defaultdict(dict)
