//! The three-stage iterative fusion pipeline (Fig. 8).
//!
//! * **Stage I** — per data item, compute triple probabilities from the
//!   current provenance accuracies (VOTE / ACCU / POPACCU). Grouping
//!   already partitioned the batch by data item, so each round's Stage I
//!   is a map-only pass over that partition, with no shuffle.
//! * **Stage II** — partition by provenance, re-estimate each provenance's
//!   accuracy as the mean probability of (a sample of) its triples.
//! * Iterate I ↔ II until convergence or `R` rounds (the paper forces
//!   termination at `R = 5`), then
//! * **Stage III** — output deduplicated scored triples.
//!
//! The refinements of §4.3 hook in here: granularity is applied when the
//! provenance registry is built; the coverage filter restricts round 1 to
//! multiply-supported items and drops never-evaluated provenances
//! afterwards; the accuracy threshold deactivates low-quality provenances
//! with a mean-accuracy fallback; and the gold standard can seed the
//! initial accuracies (semi-supervised POPACCU+).

use crate::config::{FusionConfig, InitAccuracy, Method};
use crate::methods;
use crate::observation::{Grouped, ItemGroup};
use crate::result::{FusionOutput, ProvenanceAttribution, ScoredTriple};
use kf_mapreduce::{
    map_reduce_with_stats, scoped_map, Emitter, IterativeDriver, JobStats, Reservoir,
};
use kf_types::{hash, ExtractionBatch, GoldStandard, Label};

/// The fusion engine. Construct with a [`FusionConfig`], then call
/// [`Fuser::run`] on a batch of extractions (optionally with a gold
/// standard for the semi-supervised initialisation), or [`Fuser::fuse`]
/// on a grouping that several runs at the same granularity share.
#[derive(Debug, Clone, Default)]
pub struct Fuser {
    config: FusionConfig,
}

/// What one fusion run writes, by provenance id; [`Grouped`] stays read-only.
struct ProvState {
    /// Current accuracy estimate.
    accuracy: Vec<f64>,
    /// Re-evaluated from data or seeded from gold. Drives refinement I.
    evaluated: Vec<bool>,
}

impl Fuser {
    /// A fuser with the given configuration.
    pub fn new(config: FusionConfig) -> Self {
        Fuser { config }
    }

    /// Access the configuration.
    pub fn config(&self) -> &FusionConfig {
        &self.config
    }

    /// Run fusion over `batch`. `gold` is only consulted when the
    /// configuration asks for gold-standard accuracy initialisation; pass
    /// `None` for fully unsupervised runs.
    pub fn run(&self, batch: &ExtractionBatch, gold: Option<&GoldStandard>) -> FusionOutput {
        self.run_grouped(batch, gold).1
    }

    /// [`Fuser::run`] that also returns the per-value
    /// [`ProvenanceAttribution`] — which provenances support each scored
    /// triple, with their final learned accuracies. Row `i` of the
    /// attribution lines up with `scored[i]`. The error-taxonomy
    /// classifiers (`kf-diagnose`) consume this; plain [`Fuser::run`]
    /// skips building it.
    pub fn run_with_attribution(
        &self,
        batch: &ExtractionBatch,
        gold: Option<&GoldStandard>,
    ) -> (FusionOutput, ProvenanceAttribution) {
        let (grouped, output, state) = self.run_grouped(batch, gold);
        let attribution = ProvenanceAttribution::new(&grouped, state.accuracy, state.evaluated);
        (output, attribution)
    }

    /// Fuse over a grouping built at this configuration's granularity
    /// (panics otherwise). The grouping is only read, so every preset
    /// at that granularity can fuse over one build. The result is
    /// [`Fuser::run`]'s, except that [`FusionOutput::stats`] and the
    /// `fuse` span leave out the grouping job.
    pub fn fuse(&self, grouped: &Grouped, gold: Option<&GoldStandard>) -> FusionOutput {
        let _fuse = kf_telemetry::span("fuse");
        self.stages(grouped, gold).0
    }

    /// [`Fuser::fuse`] that also returns the [`ProvenanceAttribution`],
    /// as [`Fuser::run_with_attribution`] does.
    pub fn fuse_with_attribution(
        &self,
        grouped: &Grouped,
        gold: Option<&GoldStandard>,
    ) -> (FusionOutput, ProvenanceAttribution) {
        let (output, state) = {
            let _fuse = kf_telemetry::span("fuse");
            self.stages(grouped, gold)
        };
        let attribution = ProvenanceAttribution::new(grouped, state.accuracy, state.evaluated);
        (output, attribution)
    }

    /// Build this configuration's grouping of `batch` and fuse over it,
    /// both inside one `fuse` span. The grouping job's counters join the
    /// output's stats.
    fn run_grouped(
        &self,
        batch: &ExtractionBatch,
        gold: Option<&GoldStandard>,
    ) -> (Grouped, FusionOutput, ProvState) {
        let cfg = &self.config;
        let _fuse = kf_telemetry::span("fuse");
        let (grouped, stats) = Grouped::build_with_stats(&batch.records, cfg.granularity, &cfg.mr);
        let (mut output, state) = self.stages(&grouped, gold);
        output.stats.merge(&stats);
        (grouped, output, state)
    }

    /// The one fusion path behind every entry point: the three stages
    /// over `grouped`, returning the output and the provenance state the
    /// run learned.
    fn stages(&self, grouped: &Grouped, gold: Option<&GoldStandard>) -> (FusionOutput, ProvState) {
        let cfg = &self.config;
        assert_eq!(grouped.granularity, cfg.granularity, "granularity");

        // ---- Accuracy initialisation (§4.3.3) -----------------------------
        let n = grouped.provs.len();
        let mut state = ProvState {
            accuracy: vec![cfg.default_accuracy; n],
            evaluated: vec![false; n],
        };
        if let (InitAccuracy::FromGold { sample_rate }, Some(gold)) = (cfg.init, gold) {
            init_accuracy_from_gold(grouped, &mut state, gold, sample_rate, cfg.seed);
        }

        // Per-(item, value) probability slots, flattened.
        let mut offsets = Vec::with_capacity(grouped.items.len() + 1);
        offsets.push(0usize);
        for g in &grouped.items {
            offsets.push(offsets.last().unwrap() + g.values.len());
        }
        let n_slots = *offsets.last().unwrap();
        let mut probs: Vec<Option<f64>> = vec![None; n_slots];
        let mut fallback: Vec<bool> = vec![false; n_slots];

        // ---- Iterate Stage I ↔ Stage II ------------------------------------
        let driver = IterativeDriver {
            max_rounds: cfg.rounds.max(1),
            tolerance: cfg.tolerance,
        };
        let mut round_deltas = Vec::with_capacity(cfg.rounds);
        let mut stats = JobStats::default();
        let outcome = driver.run(|round| {
            let _round = kf_telemetry::span("round");
            let round_start = std::time::Instant::now();
            kf_telemetry::add("fuse.rounds", 1);
            // Stage I: probabilities from current accuracies.
            {
                let _s1 = kf_telemetry::span("stage1");
                self.stage_one(grouped, &state, &offsets, round, &mut probs, &mut fallback);
            }

            // VOTE runs a single stage-I pass; no accuracy iteration.
            if !cfg.method.iterative() {
                round_deltas.push(0.0);
                kf_telemetry::push_series("fuse.round_delta", 0.0);
                kf_telemetry::record_time("fuse.round_ns", round_start.elapsed().as_nanos() as u64);
                return 0.0;
            }

            // Stage II: accuracies from probabilities.
            let (delta, s2_stats) = {
                let _s2 = kf_telemetry::span("stage2");
                self.stage_two(grouped, &mut state, &offsets, &probs, round)
            };
            stats.merge(&s2_stats);
            round_deltas.push(delta);
            kf_telemetry::push_series("fuse.round_delta", delta);
            kf_telemetry::record_time("fuse.round_ns", round_start.elapsed().as_nanos() as u64);
            delta
        });

        // ---- Stage III: deduplicated output --------------------------------
        let mut scored = Vec::with_capacity(n_slots);
        for (gi, group) in grouped.items.iter().enumerate() {
            for (vi, vg) in group.values.iter().enumerate() {
                let slot = offsets[gi] + vi;
                scored.push(ScoredTriple {
                    triple: group.triple(vi),
                    probability: probs[slot],
                    n_provenances: vg.provs.len() as u32,
                    n_extractors: vg.n_extractors,
                    n_pages: vg.n_pages,
                    fallback: fallback[slot],
                });
            }
        }

        kf_telemetry::add("fuse.provenances", n as u64);
        kf_telemetry::add("fuse.scored_triples", scored.len() as u64);
        let output = FusionOutput {
            scored,
            outcome,
            round_deltas,
            n_provenances: n,
            stats,
        };
        (output, state)
    }

    /// Stage I: compute every slot's probability and fallback flag from
    /// the current accuracies. Map-only: grouping already partitioned the
    /// batch by data item (the paper's Stage I shuffle happened once, at
    /// build time), so contiguous item ranges score in parallel, each
    /// writing its own disjoint slice of the slot arrays.
    fn stage_one(
        &self,
        grouped: &Grouped,
        state: &ProvState,
        offsets: &[usize],
        round: usize,
        mut probs: &mut [Option<f64>],
        mut fallback_flags: &mut [bool],
    ) {
        let cfg = &self.config;
        let coverage_filtering = cfg.filter_by_coverage;
        let threshold = cfg.accuracy_threshold;

        // A provenance is *active* when it survives the refinements.
        let active = |pid: u32| -> bool {
            let i = pid as usize;
            if coverage_filtering && round > 0 && !state.evaluated[i] {
                return false;
            }
            if let Some(theta) = threshold {
                // The threshold applies to evaluated accuracies; an
                // unevaluated provenance still carries the default.
                if state.accuracy[i] < theta {
                    return false;
                }
            }
            true
        };

        // Cut the items into at most `workers` contiguous ranges and split
        // the slot arrays at the matching offsets.
        let n_items = grouped.items.len();
        let per_part = n_items.div_ceil(cfg.mr.workers.max(1)).max(1);
        let mut parts = Vec::new();
        for start in (0..n_items).step_by(per_part) {
            let end = (start + per_part).min(n_items);
            let len = offsets[end] - offsets[start];
            let (p, rest_p) = std::mem::take(&mut probs).split_at_mut(len);
            let (f, rest_f) = std::mem::take(&mut fallback_flags).split_at_mut(len);
            (probs, fallback_flags) = (rest_p, rest_f);
            parts.push((start..end, p, f));
        }
        scoped_map(parts, |(items, probs, fallback_flags)| {
            let base = offsets[items.start];
            for gi in items {
                let slots = offsets[gi] - base..offsets[gi + 1] - base;
                self.score_item(
                    &grouped.items[gi],
                    state,
                    round,
                    &active,
                    &mut probs[slots.clone()],
                    &mut fallback_flags[slots],
                );
            }
        });
    }

    /// Score one data item under the configured method and filters,
    /// writing each of its values' probability and fallback flag.
    fn score_item(
        &self,
        group: &ItemGroup,
        state: &ProvState,
        round: usize,
        active: &dyn Fn(u32) -> bool,
        probs: &mut [Option<f64>],
        fallback_flags: &mut [bool],
    ) {
        let cfg = &self.config;

        // Coverage filter, round 1 (§4.3.2): only score items where at
        // least one triple has more than one provenance, so that the
        // subsequent accuracy evaluation rests on non-trivial evidence.
        // Items whose provenances already carry informative (gold-seeded)
        // accuracies are exempt — those are exactly the provenances the
        // filter exists to protect against.
        if cfg.filter_by_coverage
            && round == 0
            && cfg.method.iterative()
            && !group.values.iter().any(|v| v.provs.len() > 1)
            && !group
                .values
                .iter()
                .any(|v| v.provs.iter().any(|&p| state.evaluated[p as usize]))
        {
            probs.fill(None);
            fallback_flags.fill(false);
            return;
        }

        // Active provenance lists per value (sampled at L).
        let mut cands: Vec<Vec<f64>> = Vec::with_capacity(group.values.len());
        let mut counts: Vec<usize> = Vec::with_capacity(group.values.len());
        for vg in &group.values {
            let active_pids: Vec<u32> = vg.provs.iter().copied().filter(|&p| active(p)).collect();
            let sampled = Reservoir::sample_vec(
                active_pids,
                cfg.sample_limit,
                hash::hash_u64(group.item.encode() ^ (round as u64) ^ cfg.seed),
            );
            counts.push(sampled.len());
            cands.push(
                sampled
                    .iter()
                    .map(|&p| state.accuracy[p as usize])
                    .collect(),
            );
        }

        // With every provenance filtered there is nothing to score; each
        // value takes the fallback below.
        let probabilities = if counts.iter().all(|&c| c == 0) {
            Vec::new()
        } else {
            match cfg.method {
                Method::Vote => methods::vote(&counts),
                Method::Accu => methods::accu(&cands, cfg.n_false_values),
                Method::PopAccu => methods::popaccu(&cands, &counts, cfg.popaccu_inner_iters),
            }
        };

        for (vi, vg) in group.values.iter().enumerate() {
            (probs[vi], fallback_flags[vi]) = if counts[vi] > 0 {
                (Some(probabilities[vi]), false)
            } else if cfg.accuracy_threshold.is_some()
                && vg.provs.iter().any(|&p| state.evaluated[p as usize])
            {
                // All of this value's provenances were filtered. With an
                // accuracy threshold the paper compensates with the mean
                // accuracy of the triple's own provenances; with pure
                // coverage filtering there is no prediction.
                let sum: f64 = vg.provs.iter().map(|&p| state.accuracy[p as usize]).sum();
                (Some(sum / vg.provs.len() as f64), true)
            } else {
                (None, false)
            };
        }
    }

    /// Stage II: re-estimate provenance accuracies as the mean probability
    /// of (a sample of) their triples. Returns the mean absolute accuracy
    /// change.
    ///
    /// Deliberately runs **without** a combiner: the reducer reservoir-
    /// samples its values and accumulates `f64`s, both of which are
    /// order-sensitive, so partial pre-reduction would change the bytes
    /// of the output (see the determinism ledger in `ARCHITECTURE.md`).
    /// The external shuffle (`MrConfig::spill_threshold_records`) still
    /// bounds this stage's grouped residency by spilling the full value
    /// lists and replaying them in input order.
    fn stage_two(
        &self,
        grouped: &Grouped,
        state: &mut ProvState,
        offsets: &[usize],
        probs: &[Option<f64>],
        round: usize,
    ) -> (f64, JobStats) {
        let cfg = &self.config;
        let items = &grouped.items;
        let skip_unevaluated = cfg.filter_by_coverage && round > 0;

        let indices: Vec<usize> = (0..items.len()).collect();
        let (mut updates, stats) = map_reduce_with_stats(
            &cfg.mr,
            &indices,
            |&gi, emit: &mut Emitter<u32, f64>| {
                let group = &items[gi];
                for (vi, vg) in group.values.iter().enumerate() {
                    let Some(p) = probs[offsets[gi] + vi] else {
                        continue;
                    };
                    for &pid in &vg.provs {
                        if skip_unevaluated && !state.evaluated[pid as usize] {
                            continue;
                        }
                        emit.emit(pid, p);
                    }
                }
            },
            |pid, values| {
                let sampled = Reservoir::sample_vec(
                    values,
                    cfg.sample_limit,
                    hash::hash_u64((*pid as u64) ^ ((round as u64) << 32) ^ cfg.seed),
                );
                if sampled.is_empty() {
                    return Vec::new();
                }
                let mean = sampled.iter().sum::<f64>() / sampled.len() as f64;
                vec![(*pid, mean)]
            },
        );

        // The engine emits in partition order, and the partition count
        // follows the worker count: fold in provenance-id order so the
        // `f64` delta (and the tolerance stop it drives) is the same for
        // every `--workers`.
        updates.sort_unstable_by_key(|&(pid, _)| pid);
        let mut delta_sum = 0.0;
        let mut updated = 0usize;
        for (pid, accuracy) in updates {
            let i = pid as usize;
            delta_sum += (state.accuracy[i] - accuracy).abs();
            state.accuracy[i] = accuracy.clamp(0.0, 1.0);
            state.evaluated[i] = true;
            updated += 1;
        }
        let delta = if updated == 0 {
            0.0
        } else {
            delta_sum / updated as f64
        };
        (delta, stats)
    }
}

/// Initialise provenance accuracies from the LCWA gold standard (§4.3.3):
/// accuracy = fraction of the provenance's gold-labelled triples that are
/// labelled true, over a `sample_rate` subset of gold items; provenances
/// with no labelled triples keep the default.
fn init_accuracy_from_gold(
    grouped: &Grouped,
    state: &mut ProvState,
    gold: &GoldStandard,
    sample_rate: f64,
    seed: u64,
) {
    let n = grouped.provs.len();
    let mut true_counts = vec![0u32; n];
    let mut labelled_counts = vec![0u32; n];

    for group in &grouped.items {
        // Item-level subsampling of the gold standard, deterministic.
        if sample_rate < 1.0 {
            let h = hash::hash_u64(group.item.encode() ^ seed ^ 0x00c0_ffee);
            if (h % 1_000_000) as f64 / 1_000_000.0 >= sample_rate {
                continue;
            }
        }
        for (vi, vg) in group.values.iter().enumerate() {
            let label = gold.label(&group.triple(vi));
            let is_true = match label {
                Label::True => true,
                Label::False => false,
                Label::Unknown => continue,
            };
            for &pid in &vg.provs {
                labelled_counts[pid as usize] += 1;
                true_counts[pid as usize] += is_true as u32;
            }
        }
    }

    for i in 0..n {
        if labelled_counts[i] > 0 {
            state.accuracy[i] = true_counts[i] as f64 / labelled_counts[i] as f64;
            state.evaluated[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FusionConfig, InitAccuracy, Method};
    use kf_mapreduce::MrConfig;
    use kf_types::{
        DataItem, EntityId, Extraction, ExtractorId, PageId, PatternId, PredicateId, Provenance,
        SiteId, Triple, Value,
    };

    /// Build an extraction with distinct provenance per (extractor, page).
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

    fn seq(cfg: FusionConfig) -> Fuser {
        Fuser::new(FusionConfig {
            mr: MrConfig::sequential(),
            ..cfg
        })
    }

    /// The paper's VOTE example: 7-vs-1-vs-1-vs-1 provenances.
    #[test]
    fn vote_probabilities_are_count_fractions() {
        let mut batch = ExtractionBatch::new();
        for page in 0..7 {
            batch.push(ext(1, 1, 10, 0, page));
        }
        batch.push(ext(1, 1, 11, 0, 100));
        batch.push(ext(1, 1, 12, 0, 200));
        batch.push(ext(1, 1, 13, 0, 300));
        let out = seq(FusionConfig::vote()).run(&batch, None);
        let map = out.probability_map();
        let p10 = map[&Triple::new(EntityId(1), PredicateId(1), Value::Entity(EntityId(10)))];
        assert!((p10 - 0.7).abs() < 1e-12);
        assert_eq!(out.scored.len(), 4);
        assert_eq!(out.predicted_fraction(), 1.0);
    }

    #[test]
    fn accu_converges_and_separates_good_from_bad() {
        // Ten items; provenance "good" (pages 0..10) always agrees with the
        // majority; provenance "bad" (page 1000) always provides a lone
        // conflicting value.
        let mut batch = ExtractionBatch::new();
        for item in 0..10u32 {
            for page in 0..5u32 {
                batch.push(ext(item, 1, 100 + item, 0, page * 10)); // site-spread
            }
            batch.push(ext(item, 1, 999, 0, 1000));
        }
        let out = seq(FusionConfig::accu()).run(&batch, None);
        let map = out.probability_map();
        for item in 0..10u32 {
            let good = map[&Triple::new(
                EntityId(item),
                PredicateId(1),
                Value::Entity(EntityId(100 + item)),
            )];
            let bad =
                map[&Triple::new(EntityId(item), PredicateId(1), Value::Entity(EntityId(999)))];
            assert!(good > 0.95, "good triple {good}");
            assert!(bad < 0.05, "bad triple {bad}");
        }
        assert!(out.outcome.rounds() <= 5);
    }

    #[test]
    fn popaccu_singleton_valley_is_exactly_default_accuracy() {
        // One item with a single provenance contributing a single triple:
        // Fig. 9's valley at exactly 0.8.
        let batch = ExtractionBatch::from_records(vec![ext(1, 1, 10, 0, 0)]);
        let out = seq(FusionConfig::popaccu()).run(&batch, None);
        let p = out.scored[0].probability.unwrap();
        assert!((p - 0.8).abs() < 1e-6, "got {p}");
    }

    #[test]
    fn methods_run_in_parallel_identically() {
        let batch: ExtractionBatch = (0..2000)
            .map(|i| ext(i % 50, i % 3, i % 7, (i % 5) as u16, i % 400))
            .collect();
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::accu(),
            FusionConfig::popaccu(),
        ] {
            let a = seq(cfg).run(&batch, None);
            let b = Fuser::new(FusionConfig {
                mr: MrConfig::with_workers(8),
                ..cfg
            })
            .run(&batch, None);
            // Bit for bit: Stage I writes slots by index and Stage II
            // folds in provenance-id order, so no `f64` depends on how
            // the work was split across threads.
            assert_eq!(a.scored.len(), b.scored.len());
            for (x, y) in a.scored.iter().zip(&b.scored) {
                assert_eq!(x.triple, y.triple);
                assert_eq!(
                    x.probability.map(f64::to_bits),
                    y.probability.map(f64::to_bits),
                    "{:?}: probability of {:?}",
                    cfg.method,
                    x.triple
                );
                assert_eq!(x.fallback, y.fallback);
            }
            let bits = |deltas: &[f64]| deltas.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.round_deltas), bits(&b.round_deltas));
        }
    }

    #[test]
    fn coverage_filter_leaves_singleton_items_unpredicted() {
        // Item A: two provenances for the same value (evaluable).
        // Item B: a single lone extraction (not evaluable).
        let batch = ExtractionBatch::from_records(vec![
            ext(1, 1, 10, 0, 0),
            ext(1, 1, 10, 1, 50),
            ext(2, 1, 11, 2, 60),
        ]);
        let cfg = FusionConfig {
            filter_by_coverage: true,
            ..FusionConfig::popaccu()
        };
        let out = seq(cfg).run(&batch, None);
        let b = out
            .scored
            .iter()
            .find(|s| s.triple.subject == EntityId(2))
            .unwrap();
        assert_eq!(b.probability, None, "singleton item must be unpredicted");
        let a = out
            .scored
            .iter()
            .find(|s| s.triple.subject == EntityId(1))
            .unwrap();
        assert!(a.probability.is_some());
        assert!(out.predicted_fraction() < 1.0);
    }

    #[test]
    fn accuracy_threshold_triggers_fallback() {
        // A provenance that is always wrong drops below θ; its lone-item
        // triple then gets the mean-accuracy fallback instead of None.
        let mut batch = ExtractionBatch::new();
        // 20 items where provenance (0, page 0) conflicts with 4 agreeing
        // provenances → its accuracy crashes.
        for item in 0..20u32 {
            for page in 1..5u32 {
                batch.push(ext(item, 1, 100, 0, page * 10));
            }
            batch.push(ext(item, 1, 999, 0, 0));
        }
        // One extra item supported *only* by the bad provenance.
        batch.push(ext(77, 1, 5, 0, 0));
        let cfg = FusionConfig {
            accuracy_threshold: Some(0.5),
            ..FusionConfig::popaccu()
        };
        let out = seq(cfg).run(&batch, None);
        let lonely = out
            .scored
            .iter()
            .find(|s| s.triple.subject == EntityId(77))
            .unwrap();
        assert!(lonely.probability.is_some(), "fallback expected");
        assert!(lonely.fallback);
        // Fallback value equals the (low) accuracy of its only provenance.
        assert!(lonely.probability.unwrap() < 0.5);
    }

    #[test]
    fn gold_init_steers_accuracies() {
        // Two provenances, both singleton-per-item; gold says one is right
        // and the other wrong. With default init both triples score 0.8;
        // with gold init they separate immediately.
        let mut batch = ExtractionBatch::new();
        for item in 0..10u32 {
            batch.push(ext(item, 1, 100, 0, 0)); // provenance A claims 100
            batch.push(ext(item, 1, 200, 1, 50)); // provenance B claims 200
        }
        let mut gold = GoldStandard::new();
        for item in 0..10u32 {
            gold.insert(
                DataItem::new(EntityId(item), PredicateId(1)),
                Value::Entity(EntityId(100)),
            );
        }
        let unsup = seq(FusionConfig::popaccu()).run(&batch, None);
        let sup = seq(FusionConfig {
            init: InitAccuracy::FromGold { sample_rate: 1.0 },
            ..FusionConfig::popaccu()
        })
        .run(&batch, Some(&gold));

        let t_right = Triple::new(EntityId(0), PredicateId(1), Value::Entity(EntityId(100)));
        let t_wrong = Triple::new(EntityId(0), PredicateId(1), Value::Entity(EntityId(200)));
        let unsup_map = unsup.probability_map();
        let sup_map = sup.probability_map();
        // Unsupervised: symmetric conflict, both around 0.45.
        assert!((unsup_map[&t_right] - unsup_map[&t_wrong]).abs() < 0.05);
        // Supervised: gold breaks the tie decisively.
        assert!(sup_map[&t_right] > 0.9, "got {}", sup_map[&t_right]);
        assert!(sup_map[&t_wrong] < 0.1, "got {}", sup_map[&t_wrong]);
    }

    #[test]
    fn gold_sample_rate_zero_is_equivalent_to_default_init() {
        let batch: ExtractionBatch = (0..100)
            .map(|i| ext(i % 10, 1, i % 4, (i % 3) as u16, i))
            .collect();
        let mut gold = GoldStandard::new();
        gold.insert(
            DataItem::new(EntityId(0), PredicateId(1)),
            Value::Entity(EntityId(0)),
        );
        let a = seq(FusionConfig {
            init: InitAccuracy::FromGold { sample_rate: 0.0 },
            ..FusionConfig::popaccu()
        })
        .run(&batch, Some(&gold));
        let b = seq(FusionConfig::popaccu()).run(&batch, None);
        for (x, y) in a.scored.iter().zip(&b.scored) {
            assert_eq!(x.probability, y.probability);
        }
    }

    #[test]
    fn sample_limit_one_thousand_changes_little() {
        // Fig. 14: L = 1K behaves like L = 1M at (much larger) scale; here
        // groups are small so the outputs are identical.
        let batch: ExtractionBatch = (0..3000)
            .map(|i| ext(i % 100, i % 2, i % 5, (i % 6) as u16, i % 500))
            .collect();
        let big = seq(FusionConfig::popaccu()).run(&batch, None);
        let small = seq(FusionConfig::popaccu().with_sample_limit(1_000)).run(&batch, None);
        let map_big = big.probability_map();
        let map_small = small.probability_map();
        for (t, p) in &map_big {
            assert!((p - map_small[t]).abs() < 1e-9);
        }
    }

    #[test]
    fn spilled_pipeline_is_byte_identical_with_bounded_grouped_peak() {
        // The whole 5-round pipeline (grouping + Stages I/II per round)
        // with the external shuffle on must reproduce the in-memory run
        // exactly — including per-slot probabilities, which depend on
        // value order through reservoir sampling and f64 accumulation —
        // while `JobStats` proves the grouped envelope held.
        let batch: ExtractionBatch = (0..3000)
            .map(|i| ext(i % 120, i % 3, i % 6, (i % 7) as u16, i % 400))
            .collect();
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup(),
        ] {
            let base = seq(cfg).run(&batch, None);
            assert_eq!(base.stats.spilled_bytes, 0);
            let threshold = 512usize;
            let spilled = Fuser::new(FusionConfig {
                mr: MrConfig::sequential()
                    .with_chunk_records(128)
                    .with_spill_threshold(threshold),
                ..cfg
            })
            .run(&batch, None);
            assert_eq!(base.scored.len(), spilled.scored.len());
            for (a, b) in base.scored.iter().zip(&spilled.scored) {
                assert_eq!(a.triple, b.triple);
                assert_eq!(a.probability, b.probability, "for {:?}", a.triple);
                assert_eq!(a.fallback, b.fallback);
            }
            assert_eq!(base.round_deltas, spilled.round_deltas);
            assert!(
                spilled.stats.spilled_bytes > 0,
                "{:?}: disk path not exercised",
                cfg.method
            );
            // Every wave (≤ ~2×128 records) fits under the threshold, so
            // no round's grouped residency may cross it.
            assert!(
                spilled.stats.peak_grouped_records <= threshold as u64,
                "{:?}: grouped peak {} above the {} threshold",
                cfg.method,
                spilled.stats.peak_grouped_records,
                threshold
            );
        }
    }

    #[test]
    fn attribution_lines_up_with_scored_output() {
        let batch: ExtractionBatch = (0..1500)
            .map(|i| ext(i % 60, i % 3, i % 5, (i % 6) as u16, i % 200))
            .collect();
        let fuser = seq(FusionConfig::popaccu());
        let (out, attribution) = fuser.run_with_attribution(&batch, None);
        // Identical output to the plain run.
        let plain = fuser.run(&batch, None);
        assert_eq!(out.scored.len(), plain.scored.len());
        for (a, b) in out.scored.iter().zip(&plain.scored) {
            assert_eq!(a.triple, b.triple);
            assert_eq!(a.probability, b.probability);
        }
        // Row i attributes scored[i]: provenance count matches, extractor
        // sets match the recorded n_extractors (ExtractorPage granularity
        // keeps the extractor in the key), accuracies are final values.
        assert_eq!(attribution.len(), out.scored.len());
        assert_eq!(attribution.keys.len(), out.n_provenances);
        for (i, s) in out.scored.iter().enumerate() {
            assert_eq!(attribution.provs(i).len(), s.n_provenances as usize);
            assert_eq!(attribution.extractors(i).len(), s.n_extractors as usize);
            let mean = attribution.mean_accuracy(i).unwrap();
            assert!((0.0..=1.0).contains(&mean));
        }
        // The iterative run must have evaluated at least one provenance.
        assert!(attribution.evaluated.iter().any(|&e| e));
    }

    #[test]
    fn round_deltas_shrink() {
        let batch: ExtractionBatch = (0..5000)
            .map(|i| ext(i % 200, i % 3, i % 6, (i % 8) as u16, i % 700))
            .collect();
        let out = seq(FusionConfig::popaccu().with_rounds(5)).run(&batch, None);
        assert!(!out.round_deltas.is_empty());
        // Fig. 14: probabilities change a lot in round 1, then stabilise.
        let first = out.round_deltas[0];
        let last = *out.round_deltas.last().unwrap();
        assert!(
            last <= first,
            "deltas did not shrink: {:?}",
            out.round_deltas
        );
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let out = seq(FusionConfig::popaccu()).run(&ExtractionBatch::new(), None);
        assert!(out.scored.is_empty());
        assert_eq!(out.n_provenances, 0);
    }

    #[test]
    fn single_method_all_configs_smoke() {
        let batch: ExtractionBatch = (0..500)
            .map(|i| ext(i % 40, i % 4, i % 3, (i % 12) as u16, i % 100))
            .collect();
        for cfg in [
            FusionConfig::vote(),
            FusionConfig::accu(),
            FusionConfig::popaccu(),
            FusionConfig::popaccu_plus_unsup(),
        ] {
            let out = seq(cfg).run(&batch, None);
            assert_eq!(out.scored.len(), batch.unique_triples());
            for s in &out.scored {
                if let Some(p) = s.probability {
                    assert!((0.0..=1.0).contains(&p), "{} out of range", p);
                }
            }
        }
    }

    #[test]
    fn probabilities_per_item_sum_to_at_most_one() {
        let batch: ExtractionBatch = (0..2000)
            .map(|i| ext(i % 30, 0, i % 9, (i % 7) as u16, i % 300))
            .collect();
        for m in [Method::Vote, Method::Accu, Method::PopAccu] {
            let out = seq(FusionConfig::popaccu().with_method(m)).run(&batch, None);
            let mut by_item: std::collections::HashMap<DataItem, f64> =
                std::collections::HashMap::new();
            for s in &out.scored {
                if !s.fallback {
                    if let Some(p) = s.probability {
                        *by_item.entry(s.triple.data_item()).or_default() += p;
                    }
                }
            }
            for (item, sum) in by_item {
                assert!(sum <= 1.0 + 1e-6, "{m:?} {item:?} sums to {sum}");
            }
        }
    }
}
