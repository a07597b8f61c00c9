"""DiffStorage: store one full page per job, diffs for the rest.

App. 10.5: the Measurement server has "the DiffStorage module to
minimize the size of HTML code we store in the RDBMS by saving the full
HTML page code reported by the user's add-on and just saving the
difference for the HTML code responses from the IPCs and PPCs."

A response is stored as a line-hash diff against the job's reference
page: a sequence of *copy runs* ``(ref_lo, ref_hi)``, meaning reference
lines ``ref_lo..ref_hi-1``, and *literals*, runs of response lines that
occur nowhere in the reference.  Every line the reference contains is
copied, so only absent lines cost storage: the stored size never
exceeds what any line diff (difflib's opcodes included) would keep, and
``restore`` rebuilds the page exactly.  That lets us report the storage
saving the optimization buys (an ablation benchmark).

Matching walks the response once.  A line either continues the current
copy run or is looked up in a line → first-position index of the
reference.  The index is built at the job's first response and dropped
by :meth:`DiffStorage.release_index` when the job's fan-out ends; at
most one job's index is alive at a time.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

#: a copy run of reference lines ``[lo, hi)`` or a literal text run
_Op = Union[Tuple[int, int], str]


class _StoredDiff(NamedTuple):
    ops: Tuple[_Op, ...]
    size_chars: int


class _LineIndex(NamedTuple):
    job_id: str
    lines: List[str]
    first: Dict[str, int]


def _index(job_id: str, html: str) -> _LineIndex:
    lines = html.splitlines(keepends=True)
    # walked bottom-up, so each line keeps its first position
    first = dict(zip(reversed(lines), range(len(lines) - 1, -1, -1)))
    return _LineIndex(job_id, lines, first)


def _line_diff(ref: _LineIndex, lines: List[str]) -> _StoredDiff:
    """Copy runs for reference lines, literal runs for the rest."""
    ref_lines, first = ref.lines, ref.first
    n_ref = len(ref_lines)
    ops: List[_Op] = []
    literal: List[str] = []
    lo = hi = -1  # the open copy run, if hi >= 0
    size = 0
    for line in lines:
        if 0 <= hi < n_ref and ref_lines[hi] == line:
            hi += 1
            continue
        pos = first.get(line)
        if hi >= 0:
            ops.append((lo, hi))
            hi = -1
        if pos is None:
            literal.append(line)
            size += len(line)
            continue
        if literal:
            ops.append("".join(literal))
            literal = []
        lo, hi = pos, pos + 1
    if hi >= 0:
        ops.append((lo, hi))
    elif literal:
        ops.append("".join(literal))
    return _StoredDiff(tuple(ops), size)


class DiffStorage:
    """Per-job reference page plus per-proxy diffs."""

    def __init__(self) -> None:
        self._reference: Dict[str, str] = {}
        self._diffs: Dict[Tuple[str, str], _StoredDiff] = {}
        #: the line index of the job whose fan-out is running
        self._active: Optional[_LineIndex] = None
        #: what storing every page verbatim would have cost (ablation)
        self.naive_chars_seen = 0

    # -- writes ----------------------------------------------------------
    def store_reference(self, job_id: str, html: str) -> None:
        """Store the initiator's page verbatim (the diff baseline)."""
        self._reference[job_id] = html
        self.naive_chars_seen += len(html)

    def store_response(self, job_id: str, proxy_id: str, html: str) -> int:
        """Store a proxy's page as a diff; returns the stored size (chars)."""
        ref = self._active
        if ref is None or ref.job_id != job_id:
            reference = self._reference.get(job_id)
            if reference is None:
                raise KeyError(f"no reference page stored for job {job_id!r}")
            ref = self._active = _index(job_id, reference)
        self.naive_chars_seen += len(html)
        stored = _line_diff(ref, html.splitlines(keepends=True))
        self._diffs[(job_id, proxy_id)] = stored
        return stored.size_chars

    def release_index(self, job_id: str) -> None:
        """The job's fan-out is over: drop its reference line index."""
        active = self._active
        if active is not None and active.job_id == job_id:
            self._active = None

    # -- reads --------------------------------------------------------------
    def reference(self, job_id: str) -> Optional[str]:
        return self._reference.get(job_id)

    def restore(self, job_id: str, proxy_id: str) -> str:
        """Reconstruct a proxy's full page from its stored diff."""
        reference = self._reference.get(job_id)
        if reference is None:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        stored = self._diffs.get((job_id, proxy_id))
        if stored is None:
            raise KeyError(f"no diff stored for ({job_id!r}, {proxy_id!r})")
        ref = reference.splitlines(keepends=True)
        out: List[str] = []
        for op in stored.ops:
            if isinstance(op, str):
                out.append(op)
            else:
                out.extend(ref[op[0]:op[1]])
        return "".join(out)

    # -- accounting -----------------------------------------------------------
    def stored_chars(self) -> int:
        """Total characters actually stored (references + diffs)."""
        return sum(len(html) for html in self._reference.values()) + sum(
            d.size_chars for d in self._diffs.values()
        )

    def naive_chars(self, pages: Dict[Tuple[str, str], str]) -> int:
        """What storing every page verbatim would have cost."""
        return sum(len(html) for html in pages.values())

    def diff_count(self) -> int:
        return len(self._diffs)
