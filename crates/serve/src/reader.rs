//! `KbReader`: the concurrent, zero-copy query surface over a loaded
//! [`FusedKb`].
//!
//! One KB arena is loaded once and wrapped in an [`Arc`]; every
//! [`KbReader`] clone shares it. The KB is immutable after load, so the
//! reader is [`Sync`] by construction — no locks, no interior
//! mutability, and any number of threads can query one reader (or cheap
//! clones of it) concurrently with answers identical to a
//! single-threaded run.
//!
//! The hot read path allocates nothing: lookups are binary searches over
//! the columnar indexes, and answers are [`Copy`] row views
//! ([`TripleView`], [`ProvSupport`]) or borrowed slices of the arena
//! ([`Belief`], [`TopK`], [`Drilldown`]). Telemetry is counters
//! (`serve.query`, `serve.topk`, per-index hit/miss) — free-function
//! no-ops unless a trace is installed, so serving without a trace pays
//! one atomic-free branch per counter — plus an optional
//! [`ServeMetrics`] recorder attached with [`KbReader::with_metrics`]:
//! per-kind latency and result-size histograms recorded into
//! preallocated per-thread shards, also allocation-free.

use crate::kb::{label_from_tag, FusedKb};
use crate::metrics::{MetricTimer, QueryKind, ServeMetrics};
use kf_telemetry::add;
use kf_types::checkpoint::CheckpointError;
use kf_types::{DataItem, Label, PredicateId, ProvenanceKey, Triple};
use std::path::Path;
use std::sync::Arc;

/// A shareable, `Sync` handle over one loaded [`FusedKb`] arena.
#[derive(Debug, Clone)]
pub struct KbReader {
    kb: Arc<FusedKb>,
    metrics: Option<Arc<ServeMetrics>>,
}

/// One served triple row, copied out of the columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripleView {
    /// Row index in canonical triple order.
    pub row: u32,
    /// The triple.
    pub triple: Triple,
    /// The fuser's raw probability.
    pub raw: f64,
    /// Calibrated confidence (see [`crate::kb::calibrate`]).
    pub calibrated: f64,
    /// Gold-standard LCWA label at build time.
    pub label: Label,
    /// Distinct supporting pages.
    pub n_pages: u32,
    /// Distinct supporting extractors.
    pub n_extractors: u16,
    /// True when the probability came from the mean-accuracy fallback.
    pub fallback: bool,
}

/// The belief distribution of one `(subject, predicate)` item: its
/// triple rows, in canonical (object-ascending) order.
#[derive(Debug, Clone, Copy)]
pub struct Belief<'a> {
    kb: &'a FusedKb,
    start: usize,
    end: usize,
    best: u32,
}

/// The top-k ranked triples of one predicate, most confident first.
#[derive(Debug, Clone, Copy)]
pub struct TopK<'a> {
    kb: &'a FusedKb,
    rows: &'a [u32],
}

/// Provenance drill-down of one triple: which provenances support it,
/// at what final learned accuracy.
#[derive(Debug, Clone, Copy)]
pub struct Drilldown<'a> {
    kb: &'a FusedKb,
    row: u32,
    ids: &'a [u32],
}

/// One supporting provenance, resolved from the registry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvSupport {
    /// Dense provenance id.
    pub id: u32,
    /// The provenance key at the run's granularity.
    pub key: ProvenanceKey,
    /// Final (post-iteration) learned accuracy.
    pub accuracy: f64,
    /// Whether the accuracy was ever re-estimated from data.
    pub evaluated: bool,
}

/// Binary search: first index in `0..len` for which `less` is false.
#[inline]
fn lower_bound(len: usize, mut less: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if less(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl KbReader {
    /// Wrap an in-memory KB.
    pub fn new(kb: FusedKb) -> Self {
        KbReader {
            kb: Arc::new(kb),
            metrics: None,
        }
    }

    /// Load a KB checkpoint and wrap it.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Ok(Self::new(FusedKb::load(path)?))
    }

    /// Attach a live metrics recorder: every query records its latency,
    /// outcome and result size into `metrics`. Clones of this reader
    /// share the recorder.
    pub fn with_metrics(mut self, metrics: Arc<ServeMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached recorder, when metrics are enabled.
    pub fn metrics(&self) -> Option<&Arc<ServeMetrics>> {
        self.metrics.as_ref()
    }

    /// The underlying arena.
    pub fn kb(&self) -> &FusedKb {
        &self.kb
    }

    /// Copy out the row view at `row` (callers get rows from the index
    /// views below).
    #[inline]
    pub fn view(&self, row: u32) -> TripleView {
        view_at(&self.kb, row)
    }

    /// The belief distribution of `(subject, predicate)`, or `None` when
    /// the KB has no prediction for the item.
    ///
    /// The belief latency metric times the item lookup, which also picks
    /// up the item's precomputed best row; [`Belief::best`] afterwards is
    /// one untimed row copy. Iterating the full distribution is not
    /// timed; its length is recorded as the result size
    /// (`serve.result_size.belief`).
    pub fn belief(&self, item: DataItem) -> Option<Belief<'_>> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::Belief);
        add("serve.query", 1);
        let kb = &*self.kb;
        let key = (item.subject.0, item.predicate.0);
        let m = kb.item_subjects.len();
        let i = lower_bound(m, |j| (kb.item_subjects[j], kb.item_predicates[j]) < key);
        if i == m || (kb.item_subjects[i], kb.item_predicates[i]) != key {
            add("serve.miss.item", 1);
            timer.finish(false, 0);
            return None;
        }
        add("serve.hit.item", 1);
        let belief = Belief {
            kb,
            start: kb.item_offsets[i] as usize,
            end: kb.item_offsets[i + 1] as usize,
            best: kb.item_best[i],
        };
        timer.finish(true, belief.len() as u64);
        Some(belief)
    }

    /// The `k` most confident triples for `predicate` (calibrated
    /// descending, ties in canonical triple order), or `None` when the
    /// KB serves no triple of that predicate.
    pub fn top_k(&self, predicate: PredicateId, k: usize) -> Option<TopK<'_>> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::TopK);
        add("serve.query", 1);
        add("serve.topk", 1);
        let kb = &*self.kb;
        match kb.pred_ids.binary_search(&predicate.0) {
            Ok(i) => {
                add("serve.hit.pred", 1);
                let start = kb.pred_offsets[i] as usize;
                let end = kb.pred_offsets[i + 1] as usize;
                let end = start + k.min(end - start);
                let top = TopK {
                    kb,
                    rows: &kb.rank[start..end],
                };
                timer.finish(true, top.len() as u64);
                Some(top)
            }
            Err(_) => {
                add("serve.miss.pred", 1);
                timer.finish(false, 0);
                None
            }
        }
    }

    /// The served row for an exact triple, or `None` when the KB does
    /// not predict it.
    pub fn lookup(&self, triple: &Triple) -> Option<TripleView> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::Lookup);
        add("serve.query", 1);
        let Some(row) = self.find_row(triple) else {
            timer.finish(false, 0);
            return None;
        };
        timer.finish(true, 1);
        Some(view_at(&self.kb, row))
    }

    /// Provenance drill-down for an exact triple: every supporting
    /// provenance with its final learned accuracy.
    pub fn drilldown(&self, triple: &Triple) -> Option<Drilldown<'_>> {
        let timer = MetricTimer::start(self.metrics.as_deref(), QueryKind::Drilldown);
        add("serve.query", 1);
        add("serve.drilldown", 1);
        let Some(row) = self.find_row(triple) else {
            timer.finish(false, 0);
            return None;
        };
        let kb = &*self.kb;
        let start = kb.prov_offsets[row as usize] as usize;
        let end = kb.prov_offsets[row as usize + 1] as usize;
        let drill = Drilldown {
            kb,
            row,
            ids: &kb.prov_ids[start..end],
        };
        timer.finish(true, drill.len() as u64);
        Some(drill)
    }

    /// Extractor display name for `id`, when the KB carries one.
    pub fn extractor_name(&self, id: u32) -> Option<&str> {
        self.kb.extractor_names.get(id as usize).map(String::as_str)
    }

    fn find_row(&self, triple: &Triple) -> Option<u32> {
        let kb = &*self.kb;
        let n = kb.n_triples();
        // The object payload column is not order-preserving for negative
        // numerics, so comparisons reconstruct the typed triple.
        let i = lower_bound(n, |j| kb.triple_at(j) < *triple);
        if i < n && kb.triple_at(i) == *triple {
            add("serve.hit.triple", 1);
            Some(i as u32)
        } else {
            add("serve.miss.triple", 1);
            None
        }
    }
}

#[inline]
fn view_at(kb: &FusedKb, row: u32) -> TripleView {
    let i = row as usize;
    TripleView {
        row,
        triple: kb.triple_at(i),
        raw: kb.raw[i],
        calibrated: kb.calibrated[i],
        label: label_from_tag(kb.labels[i]).expect("validated at decode"),
        n_pages: kb.pages[i],
        n_extractors: kb.extractor_counts[i],
        fallback: kb.fallback[i] != 0,
    }
}

impl<'a> Belief<'a> {
    /// Number of candidate values for the item.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for an empty distribution (cannot occur for a belief
    /// returned by [`KbReader::belief`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row view of the `j`-th candidate, in canonical (object-ascending)
    /// order.
    pub fn get(&self, j: usize) -> TripleView {
        assert!(j < self.len(), "belief index out of range");
        view_at(self.kb, (self.start + j) as u32)
    }

    /// Iterate the distribution in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = TripleView> + 'a {
        let kb = self.kb;
        (self.start..self.end).map(move |i| view_at(kb, i as u32))
    }

    /// The most confident candidate (calibrated descending, ties in
    /// canonical order). O(1): the argmax row is precomputed per item
    /// when the KB is compiled or decoded.
    pub fn best(&self) -> TripleView {
        view_at(self.kb, self.best)
    }
}

impl<'a> TopK<'a> {
    /// Number of returned rows (≤ k).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the predicate exists but k was 0.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row view at rank `i` (0 = most confident).
    pub fn get(&self, i: usize) -> TripleView {
        view_at(self.kb, self.rows[i])
    }

    /// Iterate most-confident-first.
    pub fn iter(&self) -> impl Iterator<Item = TripleView> + 'a {
        let kb = self.kb;
        self.rows.iter().map(move |&row| view_at(kb, row))
    }
}

impl<'a> Drilldown<'a> {
    /// The row this drill-down describes.
    pub fn view(&self) -> TripleView {
        view_at(self.kb, self.row)
    }

    /// Number of supporting provenances.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the run carried no attribution.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `i`-th supporting provenance (ids ascending).
    pub fn get(&self, i: usize) -> ProvSupport {
        let id = self.ids[i];
        ProvSupport {
            id,
            key: ProvenanceKey::unpack(self.kb.prov_keys[id as usize]),
            accuracy: self.kb.prov_accuracy[id as usize],
            evaluated: self.kb.prov_evaluated[id as usize] != 0,
        }
    }

    /// Iterate supporting provenances, ids ascending.
    pub fn iter(&self) -> impl Iterator<Item = ProvSupport> + 'a {
        let kb = self.kb;
        self.ids.iter().map(move |&id| ProvSupport {
            id,
            key: ProvenanceKey::unpack(kb.prov_keys[id as usize]),
            accuracy: kb.prov_accuracy[id as usize],
            evaluated: kb.prov_evaluated[id as usize] != 0,
        })
    }

    /// Mean final accuracy across the supporting provenances (`None`
    /// when unattributed).
    pub fn mean_accuracy(&self) -> Option<f64> {
        if self.ids.is_empty() {
            return None;
        }
        let sum: f64 = self
            .ids
            .iter()
            .map(|&id| self.kb.prov_accuracy[id as usize])
            .sum();
        Some(sum / self.ids.len() as f64)
    }
}
