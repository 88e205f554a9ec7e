//! Property-based tests for the fusion methods: probabilistic invariants
//! that must hold for any candidate-set shape — and for the grouping
//! stage and the whole pipeline: chunked, spilled and multi-worker runs
//! must agree exactly with the sequential in-memory run for any corpus
//! shape. (The two-pass grouping oracle is private to `kf-core`, so its
//! differential proptest lives in `observation.rs`.)

use kf_core::methods::{accu, popaccu, vote};
use kf_core::{Fuser, FusionConfig, FusionOutput, Grouped};
use kf_mapreduce::MrConfig;
use kf_types::{
    DataItem, EntityId, Extraction, ExtractionBatch, ExtractorId, GoldStandard, Granularity,
    PageId, PatternId, PredicateId, Provenance, SiteId, Triple, Value,
};
use proptest::prelude::*;

/// Arbitrary extraction batches spanning the corpus shapes that matter for
/// grouping: few/many items, value conflicts, shared and singleton
/// provenances, multi-site pages.
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

/// A fusion output as raw bits: per scored triple its identity,
/// probability and fallback flag, then the per-round accuracy deltas.
type OutputBits = (Vec<(Triple, Option<u64>, bool)>, Vec<u64>);

fn bits(out: &FusionOutput) -> OutputBits {
    let scored = out
        .scored
        .iter()
        .map(|s| (s.triple, s.probability.map(f64::to_bits), s.fallback))
        .collect();
    (
        scored,
        out.round_deltas.iter().map(|d| d.to_bits()).collect(),
    )
}

/// Candidate sets: up to 8 values, each with up to 10 provenances whose
/// accuracies lie in (0, 1).
fn arb_cands() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.05f64..0.95, 1..10), 1..8)
}

proptest! {
    /// All methods produce probabilities in [0, 1] summing to ≤ 1.
    #[test]
    fn probabilities_are_valid(cands in arb_cands()) {
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();
        for probs in [
            vote(&counts),
            accu(&cands, 100.0),
            popaccu(&cands, &counts, 8),
        ] {
            prop_assert_eq!(probs.len(), cands.len());
            let mut sum = 0.0;
            for p in &probs {
                prop_assert!(p.is_finite());
                prop_assert!((0.0..=1.0 + 1e-9).contains(p), "p = {}", p);
                sum += p;
            }
            prop_assert!(sum <= 1.0 + 1e-6, "sum = {}", sum);
        }
    }

    /// Value order does not matter: permuting candidates permutes outputs.
    #[test]
    fn permutation_equivariance(cands in arb_cands()) {
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();
        let k = cands.len();
        // Rotate by one.
        let rot = |v: &Vec<Vec<f64>>| -> Vec<Vec<f64>> {
            (0..k).map(|i| v[(i + 1) % k].clone()).collect()
        };
        let rot_counts: Vec<usize> = (0..k).map(|i| counts[(i + 1) % k]).collect();

        let a = accu(&cands, 100.0);
        let b = accu(&rot(&cands), 100.0);
        for i in 0..k {
            prop_assert!((a[(i + 1) % k] - b[i]).abs() < 1e-9);
        }
        let pa = popaccu(&cands, &counts, 8);
        let pb = popaccu(&rot(&cands), &rot_counts, 8);
        for i in 0..k {
            prop_assert!((pa[(i + 1) % k] - pb[i]).abs() < 1e-9);
        }
    }

    /// Adding a provenance to a value does not decrease its probability
    /// (the monotonicity POPACCU is proved to have in [14]).
    #[test]
    fn support_monotonicity(cands in arb_cands(), extra in 0.2f64..0.9) {
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();
        let mut boosted = cands.clone();
        boosted[0].push(extra);
        let mut boosted_counts = counts.clone();
        boosted_counts[0] += 1;

        // Only sources better than chance add support.
        if extra > 0.5 {
            let a0 = accu(&cands, 100.0)[0];
            let a1 = accu(&boosted, 100.0)[0];
            prop_assert!(a1 >= a0 - 1e-9, "ACCU: {} -> {}", a0, a1);

            let p0 = popaccu(&cands, &counts, 8)[0];
            let p1 = popaccu(&boosted, &boosted_counts, 8)[0];
            prop_assert!(p1 >= p0 - 1e-6, "POPACCU: {} -> {}", p0, p1);
        }
    }

    /// The external shuffle — spilled run files, k-way merged, with the
    /// dedup combiner active — builds exactly the same `Grouped` as the
    /// fully in-memory path, for any corpus shape, worker count, chunk
    /// quota and spill threshold (order included: `Grouped` equality
    /// covers item order, value order and dense provenance ids).
    #[test]
    fn grouping_is_invariant_to_spilling(
        batch in arb_batch(),
        workers in 1usize..7,
        chunk_records in 1usize..100,
        spill_threshold in 1usize..200,
    ) {
        for granularity in [
            Granularity::ExtractorPage,
            Granularity::ExtractorSitePredicatePattern,
        ] {
            let reference = Grouped::build(&batch, granularity, &MrConfig::sequential());
            let spilled = Grouped::build(
                &batch,
                granularity,
                &MrConfig::with_workers(workers)
                    .with_chunk_records(chunk_records)
                    .with_spill_threshold(spill_threshold),
            );
            prop_assert_eq!(&reference, &spilled, "granularity {:?}", granularity);
        }
    }

    /// The whole pipeline — grouping, every Stage I/II round, every
    /// preset — is bit-identical to the sequential in-memory run under
    /// any worker count, partition count, chunk quota and spill threshold
    /// (`0` disables chunking / spilling). Probabilities, fallback flags
    /// and the per-round accuracy deltas are compared as raw bits.
    #[test]
    fn fusion_is_invariant_to_workers_partitions_and_spilling(
        batch in arb_batch(),
        workers in 1usize..7,
        partitions in 1usize..17,
        chunk_records in 0usize..100,
        spill_threshold in 0usize..200,
    ) {
        let mut gold = GoldStandard::new();
        for s in 0..20u32 {
            for p in 0..4u32 {
                gold.insert(
                    DataItem::new(EntityId(s), PredicateId(p)),
                    Value::Entity(EntityId((s + p) % 8)),
                );
            }
        }
        let mr = MrConfig { partitions, ..MrConfig::with_workers(workers) }
            .with_chunk_records(chunk_records)
            .with_spill_threshold(spill_threshold);
        let batch = ExtractionBatch::from_records(batch);
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::accu(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup(),
            FusionConfig::popaccu_plus(),
        ] {
            let reference = Fuser::new(FusionConfig { mr: MrConfig::sequential(), ..cfg })
                .run(&batch, Some(&gold));
            let varied = Fuser::new(FusionConfig { mr, ..cfg }).run(&batch, Some(&gold));
            prop_assert_eq!(bits(&reference), bits(&varied), "{:?} under {:?}", cfg.method, mr);
        }
    }

    /// The chunked grouping peak respects the quota (grouping emits one
    /// record per extraction) while the unchunked peak is the whole batch.
    #[test]
    fn grouping_peak_is_bounded_by_quota(
        batch in arb_batch(),
        chunk_records in 1usize..64,
    ) {
        let (_, unchunked) = Grouped::build_with_stats(
            &batch,
            Granularity::ExtractorPage,
            &MrConfig::sequential(),
        );
        prop_assert_eq!(unchunked.peak_resident_records, batch.len() as u64);
        let (_, chunked) = Grouped::build_with_stats(
            &batch,
            Granularity::ExtractorPage,
            &MrConfig::sequential().with_chunk_records(chunk_records),
        );
        prop_assert!(
            chunked.peak_resident_records <= (chunk_records as u64).min(batch.len() as u64)
        );
    }

    /// VOTE probabilities always sum to exactly 1 over non-empty counts.
    #[test]
    fn vote_sums_to_one(counts in prop::collection::vec(1usize..50, 1..10)) {
        let probs = vote(&counts);
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Raising a supporting source's accuracy never hurts the value it
    /// supports.
    #[test]
    fn accuracy_monotonicity(
        cands in arb_cands(),
        bump in 0.01f64..0.2,
    ) {
        let mut better = cands.clone();
        better[0][0] = (better[0][0] + bump).min(0.99);
        let counts: Vec<usize> = cands.iter().map(Vec::len).collect();

        let a0 = accu(&cands, 100.0)[0];
        let a1 = accu(&better, 100.0)[0];
        prop_assert!(a1 >= a0 - 1e-9);

        let p0 = popaccu(&cands, &counts, 12)[0];
        let p1 = popaccu(&better, &counts, 12)[0];
        prop_assert!(p1 >= p0 - 1e-6, "POPACCU: {} -> {}", p0, p1);
    }
}
