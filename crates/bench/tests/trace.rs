//! The telemetry conservation law, property-tested: the deterministic
//! section of a run trace — span call counts, counters, series — must be
//! conserved *exactly* under sharding. Whatever shard split the presets
//! are fused in, merging the shard reports reassembles a combined trace
//! identical to the single-process run's, because every method's trace
//! derives only from the corpus and its own configuration (the
//! determinism ledger), never from which process happened to host it.

use kf_bench::{run_on_corpus, shard_presets, ReproOptions};
use kf_eval::{merge_reports, Preset};
use kf_synth::{Corpus, SynthConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// The strategy space is small (seed × shard count) while the vendored
/// `proptest!` always draws 100 cases; skipping repeats keeps the test
/// a property test without fusing the same corpus split twice.
fn first_visit(seed: u64, n_shards: usize) -> bool {
    static SEEN: OnceLock<Mutex<HashSet<(u64, usize)>>> = OnceLock::new();
    SEEN.get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap()
        .insert((seed, n_shards))
}

fn options(seed: u64) -> ReproOptions {
    ReproOptions {
        scale: "tiny".into(),
        seed,
        out: None,
        workers: Some(2),
        deterministic: true,
        ..Default::default()
    }
}

proptest! {
    #[test]
    fn deterministic_trace_conserves_across_shard_merge(
        seed in 0u64..6,
        n_shards in 1usize..=3,
    ) {
        if first_visit(seed, n_shards) {
            let corpus = Corpus::generate(&SynthConfig::tiny(), seed);

            // Single-process reference.
            let single = run_on_corpus(&options(seed), &corpus);

            // The same presets fused shard by shard, then merged.
            let shards: Vec<_> = (0..n_shards)
                .map(|index| {
                    let mut opts = options(seed);
                    opts.presets = shard_presets(&Preset::ALL, index, n_shards);
                    run_on_corpus(&opts, &corpus)
                })
                .collect();
            let merged = merge_reports(shards).unwrap();

            // Per-method traces are conserved verbatim...
            prop_assert_eq!(single.methods.len(), merged.methods.len());
            for (a, b) in single.methods.iter().zip(&merged.methods) {
                prop_assert_eq!(&a.name, &b.name);
                prop_assert!(a.trace.is_some(), "{} lost its trace", a.name);
                prop_assert_eq!(&a.trace, &b.trace, "{} trace drifted", a.name);
            }

            // ...and so is the combined whole-run trace (counters added,
            // series concatenated in ablation order, span calls unified).
            let single_trace = single.combined_trace().expect("combined trace");
            let merged_trace = merged.combined_trace().expect("combined trace");
            prop_assert_eq!(single_trace, merged_trace);
        }
    }

    /// The serve bench's rebased quantile math: per-client latency
    /// histograms merged bucket-wise must report every quantile within
    /// one bucket's relative error (`2^-SUB_BUCKET_BITS`) of the exact
    /// pooled-sort answer the bench used to compute — over lumpy,
    /// multi-octave latency shapes and uneven client splits.
    #[test]
    fn merged_client_histograms_agree_with_pooled_sort(
        seed in 0u64..1_000,
        clients in 1usize..=8,
    ) {
        use kf_telemetry::{HistKind, HistogramSnapshot, SUB_BUCKET_BITS};

        // Deterministic lumpy latencies: a fast mode, a slow mode and a
        // heavy tail, like a serving profile.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let samples: Vec<u64> = (0..4_000)
            .map(|_| {
                let r = next();
                match r % 10 {
                    0..=6 => 200 + r % 800,
                    7..=8 => 20_000 + r % 30_000,
                    _ => 1_000_000 + r % 9_000_000,
                }
            })
            .collect();

        // Split across clients the way the bench does (equal budgets,
        // remainder dropped), record per-client, merge.
        let per_client = samples.len() / clients;
        let mut pooled = HistogramSnapshot::empty("lat", HistKind::Time);
        for c in 0..clients {
            let mut h = HistogramSnapshot::empty("lat", HistKind::Time);
            for &v in &samples[c * per_client..(c + 1) * per_client] {
                h.record(v);
            }
            pooled.merge(&h);
        }

        let mut exact: Vec<u64> = samples[..clients * per_client].to_vec();
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((exact.len() as f64 * q) as usize).min(exact.len() - 1);
            let want = exact[rank];
            let got = pooled.quantile(q);
            prop_assert!(got >= want, "q{q}: histogram {got} under exact {want}");
            prop_assert!(
                got - want <= want >> SUB_BUCKET_BITS,
                "q{q}: histogram {got} beyond one bucket above exact {want}"
            );
        }
    }
}

/// Presets share one grouping per granularity: the order the presets run
/// in, and so which grouping is alive when and which preset built it,
/// must not reach any method's results or trace.
#[test]
fn method_results_and_traces_ignore_preset_order() {
    use kf_telemetry::{SpanNode, Trace};
    fn has_span(node: &SpanNode, name: &str) -> bool {
        node.name == name || node.children.iter().any(|c| has_span(c, name))
    }
    let corpus = Corpus::generate(&SynthConfig::tiny(), 5);
    // The two granularities alternate, so both groupings are alive at once.
    let interleaved = [
        Preset::Vote,
        Preset::PopAccuPlusUnsup,
        Preset::Accu,
        Preset::PopAccuPlus,
        Preset::PopAccu,
    ];
    for diagnose in [true, false] {
        let opts = ReproOptions {
            diagnose,
            ..options(5)
        };
        let ablation = run_on_corpus(&opts, &corpus);
        let process = Trace::with_root("run");
        let run_interleaved = |deterministic| {
            let _installed = kf_telemetry::install(&process);
            run_on_corpus(
                &ReproOptions {
                    presets: interleaved.to_vec(),
                    deterministic,
                    ..opts.clone()
                },
                &corpus,
            )
        };
        let shuffled = run_interleaved(true);
        for preset in interleaved {
            let got = shuffled.method(preset.name()).expect("preset ran");
            assert_eq!(Some(got), ablation.method(preset.name()), "{}", got.name);
            let fuse = got.trace.as_ref().and_then(|t| t.root.child("fuse"));
            let group = fuse.and_then(|f| f.child("group"));
            assert_eq!(group.map(|g| g.calls), Some(1), "{}", got.name);
        }
        // The builds leave nothing on the caller's trace.
        let spans = process.snapshot().root;
        assert!(!has_span(&spans, "group") && !has_span(&spans, "fuse"));

        // Two builds, not five: every preset of a granularity carries the
        // same share of one build's time, which separate builds would not.
        let timed = run_interleaved(false);
        let group_ns = |preset: Preset| {
            let trace = timed.method(preset.name()).and_then(|m| m.trace.as_ref());
            let group = trace.and_then(|t| t.root.child("fuse")?.child("group"));
            group.expect("group span").total_ns
        };
        assert!(group_ns(Preset::Vote) > 0);
        assert_eq!(group_ns(Preset::Vote), group_ns(Preset::Accu));
        assert_eq!(group_ns(Preset::Vote), group_ns(Preset::PopAccu));
        assert_eq!(
            group_ns(Preset::PopAccuPlus),
            group_ns(Preset::PopAccuPlusUnsup)
        );
    }
}
