"""Extraction-engine benchmark: legacy vs single-pass fast path.

The analysis path runs once per vantage of every price check — Tags-Path
extraction over the fetched page, currency detection over the selected
string, then the cross-vantage variation report — so at million-user
scale it executes millions of times per sweep.  This workload times the
fast extraction engine of :mod:`repro.core.tagspath`
(``use_fast_extract=True``: closing-event spans recorded straight from
the page's scan events, suffix-pruned LCS, whole-extraction memo)
against the legacy
per-candidate re-walk on the same corpus of seeded store-layout variant
pages, and reports the supporting micro numbers for the compiled
currency tables and the streaming :class:`VariationAccumulator`.

Like the crypto bench, every timed sweep is paired with an **in-run
lockstep check**: both extraction modes run on the same parsed trees and
must pick the *same element* (object identity), yield the same text, and
detect the same price — fast matching that chose a different candidate
would be a correctness bug, not a speedup.

``run_parsebench`` returns a JSON-ready report; ``repro parsebench``
writes it to ``BENCH_parse.json`` and the CI perf-smoke job gates on
``gate_speedup`` (extraction, duplicate-heavy corpus) staying above 3x.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.detector import VariationAccumulator, analyze_rows
from repro.core.pricecheck import ResultRow
from repro.core.tagspath import (
    EXTRACTION_STATS,
    TagsPath,
    build_tags_path,
    clear_extraction_memo,
    extract_price_element,
    extract_price_text,
)
from repro.currency.detect import detect_price, format_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.html import find_all, parse
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore


@dataclass
class ParseBenchConfig:
    """Knobs of one benchmark run.

    The corpus is ``n_layouts × products_per_layout`` recorded paths,
    each replayed against ``n_vantages`` fetched pages of which
    ``duplicate_fraction`` are byte-identical to another vantage's page
    — the deployed mix, where only a minority of simultaneous fetches
    actually differ.  Keep the corpus below the extraction memo bound
    (:data:`repro.core.tagspath.EXTRACTION_MEMO_MAX`) so the timed fast
    pass measures the engine, not memo eviction.
    """

    seed: int = 2017
    #: distinct store layouts (each picks markup, nav, strip shapes)
    n_layouts: int = 12
    #: recorded Tags Paths per layout
    products_per_layout: int = 2
    #: fetched pages matched per recorded path
    n_vantages: int = 8
    #: fraction of vantages that saw a byte-identical page (the paper's
    #: deployment found only a minority of simultaneous fetches differ)
    duplicate_fraction: float = 0.67
    catalog_size: int = 8
    #: best-of repeats for every timed pass
    repeats: int = 3

    @classmethod
    def smoke_scale(cls) -> "ParseBenchConfig":
        """A reduced instance for CI perf-smoke and unit tests."""
        return cls(n_layouts=6, products_per_layout=2, n_vantages=6,
                   repeats=2)


@dataclass
class _Check:
    """One recorded path plus the vantage pages it is replayed on."""

    path: TagsPath
    pages: List[str] = field(default_factory=list)


def build_corpus(config: ParseBenchConfig) -> List[_Check]:
    """Seeded layout-variant pages with recorded Tags Paths."""
    geodb = GeoDatabase()
    rates = ExchangeRateProvider()
    rng = random.Random(config.seed)
    corpus: List[_Check] = []
    for layout in range(config.n_layouts):
        store = EStore(
            domain="bench.example",
            country_code="ES",
            catalog=make_catalog(
                "bench.example", size=config.catalog_size,
                rng=random.Random(config.seed + 1),
            ),
            pricing=UniformPricing(),
            geodb=geodb,
            rates=rates,
            layout_seed=config.seed * 1000 + layout,
        )

        def ctx(nonce: int) -> RequestContext:
            return RequestContext(
                time=0.0,
                location=geodb.make_location("ES", "Madrid"),
                request_nonce=nonce,
            )

        for slot in range(config.products_per_layout):
            product = store.catalog.products[slot % config.catalog_size]
            initiator = store.fetch(product.path, ctx(0))
            doc = parse(initiator.html)
            product_div = find_all(doc, cls="product")[0]
            price_el = find_all(
                product_div, tag="span", cls=store.price_class
            )[0]
            check = _Check(path=build_tags_path(doc, price_el))
            n_distinct = max(
                1,
                round(config.n_vantages * (1.0 - config.duplicate_fraction)),
            )
            distinct = [
                store.fetch(product.path, ctx(rng.randint(1, 10_000))).html
                for _ in range(n_distinct)
            ]
            for v in range(config.n_vantages):
                check.pages.append(distinct[v % n_distinct])
            corpus.append(check)
    return corpus


def _time_extraction_pass(
    corpus: List[_Check], use_fast_extract: bool
) -> Tuple[float, List[Optional[str]]]:
    """One timed sweep over every (page, path) pair of the corpus."""
    clear_extraction_memo()
    texts: List[Optional[str]] = []
    started = time.perf_counter()
    for check in corpus:
        for page in check.pages:
            texts.append(
                extract_price_text(
                    page, check.path, use_fast_extract=use_fast_extract
                )
            )
    return time.perf_counter() - started, texts


def _best_of_extraction(
    corpus: List[_Check], use_fast_extract: bool, repeats: int
) -> Tuple[float, List[Optional[str]]]:
    best = float("inf")
    texts: List[Optional[str]] = []
    for _ in range(max(1, repeats)):
        elapsed, texts = _time_extraction_pass(corpus, use_fast_extract)
        best = min(best, elapsed)
    return best, texts


def _verify_lockstep(corpus: List[_Check]) -> bool:
    """Both modes must pick the same element, text, and DetectedPrice."""
    for check in corpus:
        for page in check.pages:
            root = parse(page)
            legacy_el = extract_price_element(
                root, check.path, use_fast_extract=False
            )
            fast_el = extract_price_element(
                root, check.path, use_fast_extract=True
            )
            if fast_el is not legacy_el:
                return False
            legacy_text = extract_price_text(
                page, check.path, use_fast_extract=False
            )
            clear_extraction_memo()
            fast_text = extract_price_text(
                page, check.path, use_fast_extract=True
            )
            if fast_text != legacy_text:
                return False
            if legacy_text is not None and (
                detect_price(legacy_text) != detect_price(fast_text)
            ):
                return False
    return True


def _currency_corpus(config: ParseBenchConfig) -> List[str]:
    rng = random.Random(config.seed ^ 0xC0DE)
    styles = ("iso_tight", "iso_space", "symbol", "symbol_suffix",
              "continental", "custom")
    codes = ("USD", "EUR", "GBP", "JPY", "CZK", "SEK", "BRL", "CAD")
    return [
        format_price(
            round(rng.uniform(1, 20_000), 2),
            rng.choice(codes),
            style=rng.choice(styles),
        )
        for _ in range(400)
    ]


def _bench_currency(config: ParseBenchConfig) -> Dict[str, object]:
    """Detection throughput: cold (memo cleared) vs warm (memoized)."""
    texts = _currency_corpus(config)
    cold = warm = float("inf")
    for _ in range(max(1, config.repeats)):
        detect_price.cache_clear()
        started = time.perf_counter()
        for text in texts:
            detect_price(text)
        cold = min(cold, time.perf_counter() - started)
        started = time.perf_counter()
        for text in texts:
            detect_price(text)
        warm = min(warm, time.perf_counter() - started)
    return {
        "n_texts": len(texts),
        "cold_s": round(cold, 6),
        "warm_s": round(warm, 6),
        "cold_per_sec": round(len(texts) / max(cold, 1e-12)),
        "warm_per_sec": round(len(texts) / max(warm, 1e-12)),
    }


def _detector_rows(config: ParseBenchConfig) -> List[ResultRow]:
    rng = random.Random(config.seed ^ 0xD7C)
    countries = ("ES", "DE", "FR", "US", "GB", "IT", "SE", "PL")
    rows = []
    for i in range(240):
        amount = round(rng.uniform(50, 150), 2)
        rows.append(ResultRow(
            kind="PPC", proxy_id=f"p{i}", country=rng.choice(countries),
            region="r", city="c", original_text=None,
            detected_amount=amount, detected_currency="EUR",
            converted_value=amount, amount_eur=amount,
        ))
    return rows


def _bench_detector(config: ParseBenchConfig) -> Dict[str, object]:
    """Report-after-every-row: batch recompute vs streaming accumulator."""
    rows = _detector_rows(config)
    geodb = GeoDatabase()
    batch = streaming = float("inf")
    for _ in range(max(1, config.repeats)):
        started = time.perf_counter()
        for i in range(1, len(rows) + 1):
            batch_report = analyze_rows(rows[:i], geodb)
        batch = min(batch, time.perf_counter() - started)
        started = time.perf_counter()
        accumulator = VariationAccumulator()
        for row in rows:
            accumulator.add(row)
            streaming_report = accumulator.report(geodb)
        streaming = min(streaming, time.perf_counter() - started)
    return {
        "n_rows": len(rows),
        "batch_s": round(batch, 6),
        "streaming_s": round(streaming, 6),
        "speedup": round(batch / max(streaming, 1e-12), 2),
        "reports_identical": batch_report == streaming_report,
    }


def run_parsebench(
    config: Optional[ParseBenchConfig] = None,
) -> Dict[str, object]:
    """Run the full sweep; return the ``BENCH_parse.json`` report dict."""
    config = config if config is not None else ParseBenchConfig()
    corpus = build_corpus(config)
    n_pairs = sum(len(c.pages) for c in corpus)

    lockstep_ok = _verify_lockstep(corpus)
    legacy_s, legacy_texts = _best_of_extraction(
        corpus, use_fast_extract=False, repeats=config.repeats
    )
    EXTRACTION_STATS.reset()
    fast_s, fast_texts = _best_of_extraction(
        corpus, use_fast_extract=True, repeats=config.repeats
    )
    lockstep_ok = lockstep_ok and (legacy_texts == fast_texts)
    speedup = round(legacy_s / max(fast_s, 1e-12), 2)

    return {
        "benchmark": "tags-path extraction (legacy vs single-pass engine)",
        "config": asdict(config),
        "extraction": {
            "recorded_paths": len(corpus),
            "page_path_pairs": n_pairs,
            "legacy_s": round(legacy_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": speedup,
            "stats": EXTRACTION_STATS.snapshot(),
        },
        "currency": _bench_currency(config),
        "detector": _bench_detector(config),
        "lockstep_ok": lockstep_ok,
        "gate_speedup": speedup,
    }
