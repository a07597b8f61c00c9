"""Output checks: the benchmark fails a run whose outputs are wrong.

* ``rows_digest`` -- SHA-256 of the canonical Database rows of the first
  jobs, pinned in ``pins.json`` at the default seed;
* ``honest_flags`` -- results of honest uniform-pricing stores that the
  detector classifies as anything but "no price variation";
* ``vantage_balance`` -- every requested vantage either became a priced
  row or is counted under exactly one drop reason;
* ``cluster_points`` -- the profiles a clustering round saw, for the
  plaintext replay of the round (``lloyd_kmeans(quantize=True)``).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.detector import analyze_rows
from repro.profiles.vector import profile_from_counts

#: row ``error`` text -> drop reason
ROW_REASONS = {
    None: "priced",
    "price not found on page": "price_not_found",
    "no numeric amount": "no_numeric_amount",
    "unknown currency": "unknown_currency",
}

#: fault_report() counters -> drop reason (vantages that left no row)
FAULT_REASONS = {
    "ipc_failures": "ipc_failure",
    "ppc_dropped": "ppc_drop",
    "ppc_timeouts": "ppc_timeout",
    "ppc_corrupt": "ppc_corrupt",
}


def _job_number(job_id: str) -> int:
    return int(job_id.rsplit("-", 1)[1])


def canonical_rows(db, jobs: int = 0) -> Tuple[List[Dict], List[Dict]]:
    """Requests and responses of the first ``jobs`` jobs (0 = all), in job
    order and insertion order, without storage-assigned ids."""
    requests = sorted(db.sp_all_requests(), key=lambda r: (_job_number(r["job_id"]), r["_id"]))
    if jobs:
        keep = {r["job_id"] for r in requests[:jobs]}
        requests = requests[:jobs]
    else:
        keep = {r["job_id"] for r in requests}
    responses = sorted(
        (r for r in db.sp_all_responses() if r["job_id"] in keep),
        key=lambda r: (_job_number(r["job_id"]), r["_id"]),
    )

    def strip(rows: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
        return [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]

    return strip(requests), strip(responses)


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_digest(db, jobs: int = 0) -> str:
    requests, responses = canonical_rows(db, jobs)
    return digest({"requests": requests, "responses": responses})


#: response fields that do not depend on a quoted price.  Same-seed runs
#: agree on these but not on every price: stores mint session cookies
#: from ``secrets`` and A/B buckets are keyed on them (see NOTES.md).
OUTLINE_FIELDS = ("job_id", "kind", "proxy_id", "country", "error")


def outline_digest(db) -> str:
    """SHA-256 of every request and of each response's price-free fields."""
    requests, responses = canonical_rows(db)
    return digest({
        "requests": requests,
        "responses": [[row[f] for f in OUTLINE_FIELDS] for row in responses],
    })


def honest_flags(results, honest: Set[str], geodb) -> List[str]:
    """Job ids of honest-store checks the detector flags."""
    flagged = []
    for result in results:
        if result.domain not in honest:
            continue
        if analyze_rows(result.rows, geodb).classification != "none":
            flagged.append(result.job_id)
    return flagged


def drop_reasons(db, fault_report: Dict[str, Any], quorum_miss: int) -> Counter:
    """Every vantage outcome, counted by reason (``priced`` included)."""
    reasons: Counter = Counter()
    for row in db.sp_all_responses():
        reasons[ROW_REASONS.get(row["error"], "currency_detect_error")] += 1
    for key, reason in FAULT_REASONS.items():
        reasons[reason] += int(fault_report[key])
    reasons["quorum_miss"] += quorum_miss
    return reasons


def vantage_balance(requested: int, reasons: Counter) -> bool:
    """Requested vantages = priced rows + drops counted by reason."""
    return requested == sum(reasons.values())


def cluster_points(addons, reference: Sequence[str], quantization: int):
    """Each consenting participant's quantized profile, by peer id."""
    return {
        addon.peer_id: list(profile_from_counts(
            addon.browser.browsing_profile_counts(), reference, quantization
        ).quantized)
        for addon in addons
        if addon.consent
    }


def round_digest(outcome) -> str:
    return digest({
        "mapping": sorted(outcome.mapping.items()),
        "centroids": [list(c.quantized) for c in outcome.centroids],
    })
