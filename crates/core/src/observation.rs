//! Grouping raw extractions into the structures the fusion rounds operate
//! on: per-data-item value groups and the provenance registry.
//!
//! This is Stage I's shuffle (map by data item) plus the provenance
//! dimension-reduction of §4.1 — an *(Extractor, URL)* pair (or a coarser /
//! finer key, §4.3.1) becomes a dense integer id.
//! The grouping is built with a **single** MapReduce pass
//! ([`Grouped::build`]): the mapper emits the full [`ProvenanceKey`]
//! alongside each observation, and the dense sorted ids are assigned in a
//! post-reduce renumbering step, so each extraction's provenance key is
//! projected and hashed once instead of twice (the historical two-pass
//! scheme survives only as this module's test oracle). A [`Grouped`] is
//! read-only once built: every round of a fusion run, and every run at
//! its granularity, shares it; each run keeps the provenance accuracies
//! it learns in state of its own.

use kf_mapreduce::{map_reduce_combined_with_stats, scoped_map, Emitter, JobStats, MrConfig};
use kf_types::{
    DataItem, Extraction, FxMixHashMap, FxMixHashSet, Granularity, ProvenanceKey, Triple, Value,
};

/// One candidate value of a data item with its supporting provenances.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueGroup {
    /// The candidate value.
    pub value: Value,
    /// Dense provenance ids supporting it (deduplicated, sorted).
    pub provs: Vec<u32>,
    /// Distinct extractors supporting it (Fig. 18's second axis).
    pub n_extractors: u16,
    /// Distinct pages supporting it (Fig. 7's axis).
    pub n_pages: u32,
}

/// All candidate values observed for one data item.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemGroup {
    /// The data item.
    pub item: DataItem,
    /// Candidate values, sorted by value for determinism.
    pub values: Vec<ValueGroup>,
}

impl ItemGroup {
    /// Total provenance count over all values (VOTE's denominator `n`).
    pub fn total_provenances(&self) -> usize {
        self.values.iter().map(|v| v.provs.len()).sum()
    }

    /// The triple for value index `vi`.
    pub fn triple(&self, vi: usize) -> Triple {
        Triple::new(
            self.item.subject,
            self.item.predicate,
            self.values[vi].value,
        )
    }
}

/// Registry of provenances at the configured granularity. Accuracies are
/// not here: they belong to a fusion run, not to the grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvRegistry {
    /// The keys, indexed by dense id.
    pub keys: Vec<ProvenanceKey>,
    /// Number of unique triples each provenance supports (its *coverage*
    /// in §4.3.2 terms).
    pub support: Vec<u32>,
}

impl ProvRegistry {
    /// Number of provenances.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The full grouped view of a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouped {
    /// The provenance granularity the registry was built at.
    pub granularity: Granularity,
    /// Item groups, sorted by data item.
    pub items: Vec<ItemGroup>,
    /// Provenance registry.
    pub provs: ProvRegistry,
}

impl Grouped {
    /// Build the grouped view of `batch` at `granularity` using the
    /// MapReduce engine — a single pass; see [`Grouped::build_with_stats`].
    pub fn build(batch: &[Extraction], granularity: Granularity, mr: &MrConfig) -> Grouped {
        Self::build_with_stats(batch, granularity, mr).0
    }

    /// [`Grouped::build`] variant that also returns the grouping job's
    /// execution counters (shuffle volume, peak resident records).
    ///
    /// The build is a **single** MapReduce pass: the mapper emits
    /// `(item, (value, ProvenanceKey, extractor, page))`, carrying the full
    /// provenance key through the shuffle, and the reducer deduplicates
    /// per-value support keyed by `ProvenanceKey`. Dense ids are assigned
    /// afterwards in a renumbering step over the distinct keys, sorted so
    /// the id space is deterministic — identical to what the historical
    /// two-pass build's registry pre-pass produced, but each extraction's
    /// key is projected and hashed once instead of twice.
    ///
    /// The pass registers a sort-and-deduplicate
    /// [`Combiner`](kf_mapreduce::Combiner): on the chunked/external
    /// shuffle path (`MrConfig::chunk_records` /
    /// `MrConfig::spill_threshold_records`), per-item observation buffers
    /// are sorted and exact duplicates dropped while waves merge and
    /// before partitions spill. The reducer re-sorts and deduplicates
    /// regardless, so output is byte-identical with or without the
    /// combiner — it only shrinks grouped residency and spilled bytes on
    /// duplicate-heavy corpora (the same `(triple, provenance)` seen from
    /// several pages or re-crawls).
    ///
    /// Traced as a `group` span: the job's `shuffle`/`reduce`, then `sort`
    /// (the global item sort) and `renumber` (dense ids and support).
    pub fn build_with_stats(
        batch: &[Extraction],
        granularity: Granularity,
        mr: &MrConfig,
    ) -> (Grouped, JobStats) {
        let _group = kf_telemetry::span("group");
        // ---- The single grouping pass --------------------------------------
        // The provenance key rides along with every observation in its
        // packed `u128` form (16 bytes through the shuffle instead of the
        // full Option-struct), projected and hashed once per extraction.
        type Obs = (Value, u128, u16, u32);
        /// One per-value header: `(value, start, len, n_extractors,
        /// n_pages)`, where `start..start + len` indexes the item's flat
        /// packed-key buffer. Dense ids do not exist yet.
        type RawValues = Vec<(Value, u32, u32, u16, u32)>;
        let (mut raw, stats) = map_reduce_combined_with_stats(
            mr,
            batch,
            |e: &Extraction, emit: &mut Emitter<DataItem, Obs>| {
                emit.emit(
                    e.triple.data_item(),
                    (
                        e.triple.object,
                        ProvenanceKey::at(granularity, &e.provenance, e.triple.predicate).pack(),
                        e.provenance.extractor.raw(),
                        e.provenance.page.raw(),
                    ),
                );
            },
            // Combiner: exact-duplicate observations collapse early. The
            // reducer below sorts and deduplicates anyway, so this is a
            // reducer-invariant rewrite (engine contract) — it only trims
            // the accumulators and the spill files.
            |observations: &mut Vec<Obs>| {
                observations.sort_unstable();
                observations.dedup();
            },
            |item, mut observations| {
                // Sort by (value, packed key, …): values come out sorted,
                // and each value's provenance keys form sorted runs that
                // deduplicate by adjacency — no per-value hash sets, and
                // one flat key buffer per item instead of one Vec per
                // value.
                observations.sort_unstable();
                let mut headers: RawValues = Vec::new();
                let mut flat: Vec<u128> = Vec::new();
                let mut exts: Vec<u16> = Vec::new();
                let mut pages: Vec<u32> = Vec::new();
                let mut i = 0;
                while i < observations.len() {
                    let value = observations[i].0;
                    let start = flat.len() as u32;
                    exts.clear();
                    pages.clear();
                    while i < observations.len() && observations[i].0 == value {
                        let (_, key, ext, page) = observations[i];
                        if flat.len() as u32 == start || *flat.last().unwrap() != key {
                            flat.push(key);
                        }
                        exts.push(ext);
                        pages.push(page);
                        i += 1;
                    }
                    exts.sort_unstable();
                    exts.dedup();
                    pages.sort_unstable();
                    pages.dedup();
                    headers.push((
                        value,
                        start,
                        flat.len() as u32 - start,
                        exts.len() as u16,
                        pages.len() as u32,
                    ));
                }
                vec![(*item, headers, flat)]
            },
        );
        // The engine only orders keys within a shuffle partition; sort
        // globally so output order is independent of the partition count.
        {
            let _sort = kf_telemetry::span("sort");
            raw.sort_unstable_by_key(|g| g.0);
        }

        // ---- Post-reduce renumbering ---------------------------------------
        // Distinct provenance keys, sorted, become the dense id space —
        // the same ids the registry pre-pass used to assign (packed-word
        // order equals key order within a granularity). Because id
        // assignment is monotone in key order, each group's key list
        // (sorted by packed key) maps directly to a sorted id list. Both
        // steps run parallel over contiguous item chunks (concatenated in
        // order, so the result is deterministic), mirroring the
        // parallelism the reducers had.
        let _renumber = kf_telemetry::span("renumber");
        let chunk_size = raw.len().div_ceil(mr.workers.max(1)).max(1);
        let mut sets = scoped_map(raw.chunks(chunk_size).collect(), |chunk| {
            let mut set: FxMixHashSet<u128> = FxMixHashSet::default();
            for (_, _, flat) in chunk {
                set.extend(flat.iter().copied());
            }
            set
        });
        let mut union = sets.pop().unwrap_or_default();
        for set in sets {
            union.extend(set);
        }
        let mut packed_keys: Vec<u128> = union.into_iter().collect();
        packed_keys.sort_unstable();
        let key_index: FxMixHashMap<u128, u32> = packed_keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();
        let keys: Vec<ProvenanceKey> = packed_keys
            .iter()
            .map(|&w| ProvenanceKey::unpack(w))
            .collect();
        let n = keys.len();

        // Rebuild the groups with dense ids and count support (the number
        // of unique triples each provenance contributes; the (value, prov)
        // pairs are already deduplicated) in the same sweep. Each value's
        // run in `flat` is sorted by packed key, and id assignment is
        // monotone in that order, so the mapped id lists come out sorted.
        let renumber =
            |chunk: Vec<(DataItem, RawValues, Vec<u128>)>| -> (Vec<ItemGroup>, Vec<u32>) {
                let mut support = vec![0u32; n];
                let items = chunk
                    .into_iter()
                    .map(|(item, headers, flat)| ItemGroup {
                        item,
                        values: headers
                            .into_iter()
                            .map(|(value, start, len, n_extractors, n_pages)| ValueGroup {
                                value,
                                provs: flat[start as usize..(start + len) as usize]
                                    .iter()
                                    .map(|k| {
                                        let pid = key_index[k];
                                        support[pid as usize] += 1;
                                        pid
                                    })
                                    .collect(),
                                n_extractors,
                                n_pages,
                            })
                            .collect(),
                    })
                    .collect();
                (items, support)
            };

        // Split from the back with split_off (each element moves once;
        // draining the front would shift the whole remainder per chunk).
        let mut chunks: Vec<Vec<_>> = Vec::new();
        while !raw.is_empty() {
            let at = raw.len() - chunk_size.min(raw.len());
            chunks.push(raw.split_off(at));
        }
        chunks.reverse();
        let mut parts = scoped_map(chunks, renumber).into_iter();
        let (mut items, mut support) = parts.next().unwrap_or_default();
        for (part_items, part_support) in parts {
            items.extend(part_items);
            for (total, local) in support.iter_mut().zip(part_support) {
                *total += local;
            }
        }
        let grouped = Grouped {
            granularity,
            items,
            provs: ProvRegistry { keys, support },
        };
        (grouped, stats)
    }

    /// Total number of unique triples.
    pub fn n_triples(&self) -> usize {
        self.items.iter().map(|g| g.values.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kf_mapreduce::map_reduce;
    use kf_types::{
        EntityId, ExtractorId, FxHashMap, FxHashSet, PageId, PatternId, PredicateId, Provenance,
        SiteId,
    };
    use proptest::prelude::*;

    fn ext(s: u32, p: u32, o: u32, extractor: u16, page: u32) -> Extraction {
        Extraction::new(
            Triple::new(EntityId(s), PredicateId(p), Value::Entity(EntityId(o))),
            Provenance::new(
                ExtractorId(extractor),
                PageId(page),
                SiteId(page / 10),
                PatternId::NONE,
            ),
        )
    }

    fn build(batch: &[Extraction]) -> Grouped {
        Grouped::build(batch, Granularity::ExtractorPage, &MrConfig::sequential())
    }

    /// The historical two-pass build, kept as the differential oracle: a
    /// registry pre-pass assigns dense provenance ids, then a second pass
    /// groups by data item. Its output must stay byte-identical to
    /// [`Grouped::build`].
    fn build_two_pass(batch: &[Extraction], granularity: Granularity, mr: &MrConfig) -> Grouped {
        // ---- Pass A: the provenance registry ------------------------------
        // Distinct provenance keys, sorted for dense-id determinism.
        let mut keys: Vec<ProvenanceKey> = map_reduce(
            mr,
            batch,
            |e: &Extraction, emit: &mut Emitter<ProvenanceKey, ()>| {
                emit.emit(
                    ProvenanceKey::at(granularity, &e.provenance, e.triple.predicate),
                    (),
                );
            },
            |k, _vs| vec![*k],
        );
        keys.sort_unstable();
        let key_index: FxHashMap<ProvenanceKey, u32> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, i as u32))
            .collect();

        // ---- Pass B: group by data item ------------------------------------
        // Emit (item, (value, prov_id, extractor, page)); reduce into
        // deduplicated value groups.
        type Obs = (Value, u32, u16, u32);
        let mut items: Vec<ItemGroup> = map_reduce(
            mr,
            batch,
            |e: &Extraction, emit: &mut Emitter<DataItem, Obs>| {
                let pid =
                    key_index[&ProvenanceKey::at(granularity, &e.provenance, e.triple.predicate)];
                emit.emit(
                    e.triple.data_item(),
                    (
                        e.triple.object,
                        pid,
                        e.provenance.extractor.raw(),
                        e.provenance.page.raw(),
                    ),
                );
            },
            |item, observations| {
                // Per-value (provenance ids, extractors, pages).
                type Support = (FxHashSet<u32>, FxHashSet<u16>, FxHashSet<u32>);
                let mut by_value: FxHashMap<Value, Support> = FxHashMap::default();
                for (value, pid, ext, page) in observations {
                    let slot = by_value.entry(value).or_default();
                    slot.0.insert(pid);
                    slot.1.insert(ext);
                    slot.2.insert(page);
                }
                let mut values: Vec<ValueGroup> = by_value
                    .into_iter()
                    .map(|(value, (pids, exts, pages))| {
                        let mut provs: Vec<u32> = pids.into_iter().collect();
                        provs.sort_unstable();
                        ValueGroup {
                            value,
                            provs,
                            n_extractors: exts.len() as u16,
                            n_pages: pages.len() as u32,
                        }
                    })
                    .collect();
                values.sort_unstable_by_key(|v| v.value);
                vec![ItemGroup {
                    item: *item,
                    values,
                }]
            },
        );
        items.sort_unstable_by_key(|g| g.item);

        let mut support = vec![0u32; keys.len()];
        for group in &items {
            for vg in &group.values {
                for &pid in &vg.provs {
                    support[pid as usize] += 1;
                }
            }
        }

        Grouped {
            granularity,
            items,
            provs: ProvRegistry { keys, support },
        }
    }

    #[test]
    fn groups_by_item_and_value() {
        let batch = vec![
            ext(1, 1, 10, 0, 100),
            ext(1, 1, 10, 1, 101), // same triple, second provenance
            ext(1, 1, 11, 0, 100), // conflicting value
            ext(2, 1, 10, 0, 100), // different item
        ];
        let g = build(&batch);
        assert_eq!(g.items.len(), 2);
        assert_eq!(g.n_triples(), 3);
        let first = &g.items[0];
        assert_eq!(first.item, DataItem::new(EntityId(1), PredicateId(1)));
        assert_eq!(first.values.len(), 2);
        let v10 = first
            .values
            .iter()
            .find(|v| v.value == Value::Entity(EntityId(10)))
            .unwrap();
        assert_eq!(v10.provs.len(), 2);
        assert_eq!(v10.n_extractors, 2);
        assert_eq!(v10.n_pages, 2);
        assert_eq!(first.total_provenances(), 3);
    }

    #[test]
    fn duplicate_extractions_are_deduplicated() {
        // The same (triple, provenance) seen twice counts once.
        let batch = vec![ext(1, 1, 10, 0, 100), ext(1, 1, 10, 0, 100)];
        let g = build(&batch);
        assert_eq!(g.items[0].values[0].provs.len(), 1);
        assert_eq!(g.provs.support, vec![1]);
    }

    #[test]
    fn support_counts_unique_triples() {
        // Provenance (0, page 100) supports two different triples.
        let batch = vec![ext(1, 1, 10, 0, 100), ext(2, 1, 10, 0, 100)];
        let g = build(&batch);
        assert_eq!(g.provs.len(), 1);
        assert_eq!(g.provs.support[0], 2);
    }

    #[test]
    fn granularity_merges_provenances() {
        // Two pages on the same site merge at site granularity.
        let batch = vec![ext(1, 1, 10, 0, 100), ext(1, 1, 10, 0, 101)];
        let page_g = Grouped::build(&batch, Granularity::ExtractorPage, &MrConfig::sequential());
        let site_g = Grouped::build(&batch, Granularity::ExtractorSite, &MrConfig::sequential());
        assert_eq!(page_g.provs.len(), 2);
        assert_eq!(site_g.provs.len(), 1);
        assert_eq!(page_g.items[0].values[0].provs.len(), 2);
        assert_eq!(site_g.items[0].values[0].provs.len(), 1);
        // Page-level detail (n_pages) survives the merge.
        assert_eq!(site_g.items[0].values[0].n_pages, 2);
    }

    #[test]
    fn groups_are_sorted_and_deterministic() {
        let batch: Vec<Extraction> = (0..200)
            .map(|i| ext(i % 13, i % 3, i % 7, (i % 4) as u16, i))
            .collect();
        let a = build(&batch);
        let b = Grouped::build(
            &batch,
            Granularity::ExtractorPage,
            &MrConfig::with_workers(7),
        );
        assert_eq!(a.items.len(), b.items.len());
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.item, y.item);
            assert_eq!(x.values.len(), y.values.len());
            for (vx, vy) in x.values.iter().zip(&y.values) {
                assert_eq!(vx.value, vy.value);
                assert_eq!(vx.provs, vy.provs);
            }
        }
        // Sorted by data item.
        assert!(a.items.windows(2).all(|w| w[0].item <= w[1].item));
    }

    #[test]
    fn empty_batch_builds_empty_grouping() {
        let g = build(&[]);
        assert!(g.items.is_empty());
        assert!(g.provs.is_empty());
        assert_eq!(g.n_triples(), 0);
    }

    #[test]
    fn single_pass_matches_two_pass_baseline() {
        let batch: Vec<Extraction> = (0..500)
            .map(|i| ext(i % 23, i % 5, i % 9, (i % 6) as u16, i % 70))
            .collect();
        for g in [
            Granularity::ExtractorPage,
            Granularity::ExtractorSitePredicatePattern,
            Granularity::PageOnly,
        ] {
            for mr in [MrConfig::sequential(), MrConfig::with_workers(5)] {
                let single = Grouped::build(&batch, g, &mr);
                let two = build_two_pass(&batch, g, &mr);
                assert_eq!(single, two, "granularity {g:?}, mr {mr:?}");
            }
        }
    }

    /// Arbitrary extraction batches spanning the corpus shapes that
    /// matter for grouping: few/many items, value conflicts, shared and
    /// singleton provenances, multi-site pages.
    fn arb_batch() -> impl Strategy<Value = Vec<Extraction>> {
        prop::collection::vec((0u32..20, 0u32..4, 0u32..8, 0u16..5, 0u32..40), 0..250).prop_map(
            |tuples| {
                tuples
                    .into_iter()
                    .map(|(s, p, o, extractor, page)| {
                        Extraction::new(
                            Triple::new(EntityId(s), PredicateId(p), Value::Entity(EntityId(o))),
                            Provenance::new(
                                ExtractorId(extractor),
                                PageId(page),
                                SiteId(page / 8),
                                PatternId(extractor as u32 % 3),
                            ),
                        )
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// Chunked and unchunked shuffles build identical `Grouped` output
        /// for any corpus shape, worker count and chunk quota — and both
        /// match the historical two-pass oracle.
        #[test]
        fn grouping_is_invariant_to_chunking_and_passes(
            batch in arb_batch(),
            workers in 1usize..7,
            chunk_records in 1usize..100,
        ) {
            let granularity = Granularity::ExtractorSitePredicatePattern;
            let reference = Grouped::build(&batch, granularity, &MrConfig::sequential());
            let chunked = Grouped::build(
                &batch,
                granularity,
                &MrConfig::with_workers(workers).with_chunk_records(chunk_records),
            );
            prop_assert_eq!(&reference, &chunked);
            let two_pass = build_two_pass(&batch, granularity, &MrConfig::with_workers(workers));
            prop_assert_eq!(&reference, &two_pass);
        }
    }

    #[test]
    fn chunked_build_matches_unchunked_with_bounded_peak() {
        let batch: Vec<Extraction> = (0..4_000)
            .map(|i| ext(i % 37, i % 4, i % 11, (i % 8) as u16, i % 250))
            .collect();
        let mr = MrConfig::with_workers(4);
        let (unchunked, base_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &mr);
        // Unchunked: the whole shuffle (one record per extraction) resident.
        assert_eq!(base_stats.peak_resident_records, batch.len() as u64);

        let chunked_mr = mr.with_chunk_records(512);
        let (chunked, chunk_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &chunked_mr);
        assert_eq!(unchunked, chunked);
        assert!(
            chunk_stats.peak_resident_records < base_stats.peak_resident_records,
            "peak {} not below unchunked {}",
            chunk_stats.peak_resident_records,
            base_stats.peak_resident_records
        );
        // Grouping emits exactly one record per input, so the bound is
        // tight up to one wave.
        assert!(chunk_stats.peak_resident_records <= 1_024);
    }

    #[test]
    fn spilled_build_matches_in_memory_with_bounded_grouped_peak() {
        let batch: Vec<Extraction> = (0..4_000)
            .map(|i| ext(i % 37, i % 4, i % 11, (i % 8) as u16, i % 250))
            .collect();
        let mr = MrConfig::with_workers(4);
        let (in_memory, base_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &mr);
        // Without spilling, every grouped observation waits in memory.
        assert_eq!(base_stats.peak_grouped_records, batch.len() as u64);
        assert_eq!(base_stats.spilled_bytes, 0);

        let spill_mr = mr.with_chunk_records(256).with_spill_threshold(1_024);
        let (spilled, spill_stats) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &spill_mr);
        assert_eq!(in_memory, spilled, "spilled grouping must be identical");
        assert!(spill_stats.spilled_bytes > 0, "disk path not exercised");
        // Grouping emits one record per extraction and every wave (≤ 512)
        // fits under the threshold, so the pre-merge spill holds the line.
        assert!(
            spill_stats.peak_grouped_records <= 1_024,
            "grouped peak {} above the 1024-record threshold",
            spill_stats.peak_grouped_records
        );
    }

    #[test]
    fn combiner_shrinks_duplicate_heavy_shuffles() {
        // The same (triple, provenance) extracted 50×: the dedup combiner
        // collapses the duplicates while waves merge, so grouped residency
        // stays near the number of *distinct* observations.
        let batch: Vec<Extraction> = (0..5_000).map(|i| ext(i % 5, 1, 1, 0, i % 2)).collect();
        let (in_memory, _) =
            Grouped::build_with_stats(&batch, Granularity::ExtractorPage, &MrConfig::sequential());
        let (combined, stats) = Grouped::build_with_stats(
            &batch,
            Granularity::ExtractorPage,
            &MrConfig::sequential().with_chunk_records(200),
        );
        assert_eq!(in_memory, combined);
        // 10 distinct (item, value, prov) observations; without combining
        // the grouped peak would be the full 5,000.
        assert!(
            stats.peak_grouped_records < 500,
            "dedup combiner did not shrink the accumulators (peak {})",
            stats.peak_grouped_records
        );
    }
}
