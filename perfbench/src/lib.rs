//! # kf-perfbench — the repository benchmark
//!
//! Three workloads, each run from one process (plus a child for the
//! peak memory probe, which it waits for) with at most two threads busy,
//! timed from outside through the public calls of each layer:
//!
//! * `fuse-paper` — the paper's batch job: `repro --corpus snap.kfc
//!   --no-out` on a paper-scale honest checkpoint.
//! * `kb-publish` — the write side of serving: `kf-serve build --corpus
//!   --report`, then the reopen `kf-serve query` performs.
//! * `serve-zipf` — the read side: a closed loop of two clients issuing
//!   an equal mix of lookup, `belief().best()`, `top_k(pred, 8)` and
//!   drilldown over Zipf-popular items.
//!
//! A run has `SETUP_REPS` rounds. Each round builds the artifact chain
//! corpus → report → KB from `CORPUS_SEED` (the set-up, which also yields
//! pipeline, publish and short serving samples), then spends its share of
//! the timed window on the workload's own operation, so every metric's
//! samples spread over the whole run. See README.md for the metric map.

pub mod env;
pub mod ops;
pub mod serve;
pub mod stats;

use env::Fingerprint;
use kf_eval::{EvalReport, Preset};
use kf_serve::{KbReader, ServeMetrics};
use kf_synth::Corpus;
use kf_telemetry::{HistKind, HistogramSnapshot, Trace};
use serve::{Oracle, QueryPlan, WindowStats, KINDS};
use stats::{fnv1a, median, Samples};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Seed of the generated corpus: the `repro` default, fixed so that
/// runs differ only in their query streams (see README.md).
pub const CORPUS_SEED: u64 = 42;
/// Rounds of a run; each builds the set-up chain once.
pub const SETUP_REPS: usize = 5;
/// Length of one serving slice; each slice serves a freshly opened KB.
const SLICE_SECONDS: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FusePaper,
    KbPublish,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FusePaper,
        Workload::KbPublish,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FusePaper => "fuse-paper",
            Workload::KbPublish => "kb-publish",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    /// The run's seed: it picks the query streams.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Also make the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Corpus scale preset (`paper` for the benchmark, `tiny` in tests).
    pub scale: String,
    /// Scratch directory for checkpoints; removed when the run ends.
    pub work_dir: PathBuf,
    /// Flip every reference answer after set-up, so every later check
    /// must count a failure. For the benchmark's own tests.
    pub corrupt_reference: bool,
    /// The benchmark program, run with `--peak-of` to measure
    /// `peak_rss_mib` in a fresh process. Without it (library use) the
    /// run reports its own peak.
    pub peak_exe: Option<PathBuf>,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace: false,
            scale: "paper".to_string(),
            work_dir: PathBuf::from(".bench_work"),
            corrupt_reference: false,
            peak_exe: None,
        }
    }

    pub fn query_seed(&self) -> u64 {
        self.seed ^ 0x5eed_0f0e_7715
    }

    /// Serving probe after each set-up (except in `serve-zipf`), and for
    /// every non-focus measurement of the traced pass.
    fn probe_seconds(&self) -> f64 {
        (self.seconds / 8.0).min(0.4)
    }
}

/// End-to-end metrics with their units: printed by every run.
pub fn end_to_end_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("setup_s", "s"),
        ("peak_rss_mib", "MiB"),
        ("pipeline_s", "s"),
        ("publish_s", "s"),
        ("qps", "1/s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    m.extend(latency_metrics(GATED_KINDS));
    m
}

/// Query kinds whose latency quantiles are end-to-end metrics. The
/// other kinds answer in well under a microsecond, where a run's tail
/// moves with the host more than any bound allows (see README.md);
/// their quantiles are per-layer metrics.
const GATED_KINDS: &[&str] = &["belief"];

fn latency_metrics(kinds: &[&'static str]) -> Vec<(String, &'static str)> {
    kinds
        .iter()
        .flat_map(|kind| {
            [
                (format!("{kind}.p50_us"), "us"),
                (format!("{kind}.p99_us"), "us"),
            ]
        })
        .collect()
}

/// Per-layer metrics with their units: printed by every traced run.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let own = |v: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        v.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut m = own(&[
        ("corpus.load_ms", "ms"),
        ("corpus.bytes", "bytes"),
        ("support_index_ms", "ms"),
    ]);
    for prefix in [
        "diagnose_ms",
        "fuse_ms",
        "group_ms",
        "stage1_ms",
        "stage2_ms",
        "fuse_self_ms",
        "eval_ms",
    ] {
        for p in Preset::ALL {
            // VOTE has no Stage II (§4.1: it runs Stages I and III only).
            if prefix == "stage2_ms" && !p.config().method.iterative() {
                continue;
            }
            m.push((format!("{prefix}.{}", p.name()), "ms"));
        }
    }
    m.extend(own(&[
        ("group.builds", "count"),
        ("group.granularities", "count"),
        ("fuse.rounds", "count"),
        ("mr.jobs", "count"),
        ("mr.map_output", "records"),
        ("mr.reduce_keys", "count"),
        ("mr.peak_resident_records", "records"),
        ("mr.spilled_bytes", "bytes"),
        ("mr.shuffle_ms", "ms"),
        ("mr.reduce_ms", "ms"),
        ("mr.speedup", "x"),
        ("check.workers1_report_diff", "count"),
        ("report.load_ms", "ms"),
        ("kb.compile_ms", "ms"),
        ("kb.compile_fuse_ms", "ms"),
        ("kb.compile_index_ms", "ms"),
        ("kb.save_ms", "ms"),
        ("kb.open_ms", "ms"),
        ("kb.bytes", "bytes"),
    ]));
    let ungated: Vec<&'static str> = KINDS
        .into_iter()
        .filter(|k| !GATED_KINDS.contains(k))
        .collect();
    m.extend(latency_metrics(&ungated));
    for kind in KINDS {
        m.push((format!("{kind}.ops"), "count"));
        m.push((format!("{kind}.failed"), "count"));
    }
    m.extend(own(&[
        ("belief.result_size_p50", "rows"),
        ("belief.result_size_p99", "rows"),
        ("drilldown.result_size_p99", "rows"),
        ("unmetered_qps", "1/s"),
        ("client.pick_ns", "ns"),
        ("trace_overhead_pct", "%"),
    ]));
    m
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the value.
    pub samples: u64,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub fingerprint: Fingerprint,
    pub corpus_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Content hashes every repetition of the set-up must reproduce.
#[derive(Debug, Clone, Copy)]
struct Reference {
    corpus: u64,
    report: u64,
    kb: u64,
}

/// One built set-up: the opened KB and what the serving window needs.
struct Chain {
    reader: KbReader,
    plan: QueryPlan,
    oracle: Oracle,
}

/// Run-wide state: inputs, checks and samples.
struct Bench<'a> {
    opts: &'a Options,
    dir: PathBuf,
    reference: Option<Reference>,
    attempted: u64,
    failed: u64,
    e2e: Samples,
    serving: WindowStats,
    streams: u64,
    /// Peak resident memory of each fresh-process op, in MiB.
    peaks: Vec<f64>,
}

/// Removes the run's scratch directory however the run ends, and the
/// work directory too once no other run uses it.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Distinguishes runs made by one process (the benchmark's tests).
static RUNS: AtomicUsize = AtomicUsize::new(0);

fn file_hash(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|bytes| fnv1a(&bytes))
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pct_slower(measured: f64, baseline: f64) -> f64 {
    (measured / baseline - 1.0) * 100.0
}

impl<'a> Bench<'a> {
    fn corpus_path(&self) -> PathBuf {
        self.dir.join(CORPUS_FILE)
    }

    fn report_path(&self) -> PathBuf {
        self.dir.join(REPORT_FILE)
    }

    fn kb_path(&self) -> PathBuf {
        self.dir.join(KB_FILE)
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    fn reference(&self) -> Reference {
        self.reference.expect("set-up records the reference first")
    }

    /// Generate the corpus, then pipeline → report → publish → KB, and
    /// derive the query plan and oracle. The first build defines the
    /// reference hashes; every later one must reproduce them.
    fn chain(&mut self) -> Result<Chain, String> {
        let config = kf_bench::scale_config(&self.opts.scale)
            .ok_or_else(|| format!("unknown scale {:?}", self.opts.scale))?;
        let corpus_path = self.corpus_path();
        Corpus::generate(&config, CORPUS_SEED)
            .save(&corpus_path)
            .map_err(|e| format!("saving corpus: {e}"))?;
        let (report, secs) = ops::pipeline(&corpus_path, &self.opts.scale, None, None)?;
        self.e2e.push("pipeline_s", secs);
        self.check(ops::fig9_holds(&report));
        report
            .save(self.report_path())
            .map_err(|e| format!("saving report: {e}"))?;
        let published = ops::publish(&corpus_path, &self.report_path(), &self.kb_path(), None)?;
        self.e2e.push("publish_s", published.secs);
        self.check(counts_match(&published));
        let built = Reference {
            corpus: file_hash(&corpus_path)?,
            report: ops::report_hash(&report),
            kb: file_hash(&self.kb_path())?,
        };
        match self.reference {
            Some(reference) => {
                self.check(built.corpus == reference.corpus);
                self.check(built.report == reference.report);
                self.check(built.kb == reference.kb);
            }
            None if self.opts.corrupt_reference => {
                self.reference = Some(Reference {
                    corpus: built.corpus ^ 1,
                    report: built.report ^ 1,
                    kb: built.kb ^ 1,
                })
            }
            None => self.reference = Some(built),
        }
        let compiled = KbReader::new(published.compiled);
        let plan = QueryPlan::new(&compiled);
        let mut oracle = Oracle::new(&compiled, &plan, self.opts.query_seed());
        if self.opts.corrupt_reference {
            oracle.expected.iter_mut().for_each(|e| *e ^= 2);
        }
        Ok(Chain {
            reader: published.reader,
            plan,
            oracle,
        })
    }

    /// Pipeline ops, checked against the reference, until `seconds` have
    /// passed (at least one). Returns each op's seconds and the last
    /// report.
    fn pipeline_ops(
        &mut self,
        seconds: f64,
        mut layers: Option<&mut Samples>,
    ) -> Result<(Vec<f64>, EvalReport), String> {
        let start = Instant::now();
        let mut secs = Vec::new();
        loop {
            let (report, s) = ops::pipeline(
                &self.corpus_path(),
                &self.opts.scale,
                None,
                layers.as_deref_mut(),
            )?;
            secs.push(s);
            let ok =
                ops::report_hash(&report) == self.reference().report && ops::fig9_holds(&report);
            self.check(ok);
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok((secs, report));
            }
        }
    }

    /// Publish ops, checked against the reference, until `seconds` have
    /// passed (at least one).
    fn publish_ops(
        &mut self,
        seconds: f64,
        mut layers: Option<&mut Samples>,
    ) -> Result<Vec<f64>, String> {
        let start = Instant::now();
        let mut secs = Vec::new();
        loop {
            let published = ops::publish(
                &self.corpus_path(),
                &self.report_path(),
                &self.kb_path(),
                layers.as_deref_mut(),
            )?;
            secs.push(published.secs);
            let ok = counts_match(&published) && file_hash(&self.kb_path())? == self.reference().kb;
            self.check(ok);
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok(secs);
            }
        }
    }

    /// A closed-loop serving window of `seconds`, in slices of about
    /// `SLICE_SECONDS`, each followed by the oracle replay. The first slice
    /// serves the chain's reader; every later one a fresh
    /// `KbReader::open` of the same KB, so no single memory placement of
    /// the arena decides the result. With `metered`, each reader carries
    /// a live `ServeMetrics` recorder. Every query and every replayed
    /// answer is a checked op; replay mismatches are added to the kinds'
    /// failures. Returns the pooled window and, per kind, the recorders'
    /// result sizes.
    fn serve(
        &mut self,
        chain: &Chain,
        seconds: f64,
        metered: bool,
        trace: Option<&Trace>,
    ) -> Result<(WindowStats, Vec<HistogramSnapshot>), String> {
        let slices = (seconds / SLICE_SECONDS).round().max(1.0) as usize;
        let mut pooled = WindowStats::default();
        let mut sizes: Vec<HistogramSnapshot> = KINDS
            .iter()
            .map(|k| HistogramSnapshot::empty(k, HistKind::Value))
            .collect();
        for slice in 0..slices {
            let reader = match slice {
                0 => chain.reader.clone(),
                _ => KbReader::open(self.kb_path()).map_err(|e| format!("opening KB: {e}"))?,
            };
            let metrics = metered.then(|| Arc::new(ServeMetrics::new()));
            let reader = match &metrics {
                Some(m) => reader.with_metrics(m.clone()),
                None => reader,
            };
            self.streams += 1;
            let mut window = serve::window(
                &reader,
                &chain.plan,
                self.opts.query_seed(),
                self.streams,
                seconds / slices as f64,
                trace,
            );
            if let Some(m) = metrics {
                for (size, kind) in sizes.iter_mut().zip(m.snapshot().kinds) {
                    size.merge(&kind.result_size);
                }
            }
            let replayed = chain.oracle.replay(&reader);
            for (kind, (tried, wrong)) in window.kinds.iter_mut().zip(replayed) {
                self.attempted += kind.ops + tried;
                self.failed += kind.failed + wrong;
                kind.failed += wrong;
            }
            pooled.merge(&window);
        }
        Ok((pooled, sizes))
    }

    /// Peak memory of one op of the workload in a fresh process, as a
    /// user's `repro`, `kf-serve build` or `kf-serve query` process holds
    /// it. In one long-lived process the allocator keeps what earlier ops
    /// freed, so its peak grows with the number of ops run.
    fn peak_probe(&mut self) -> Result<(), String> {
        let Some(exe) = &self.opts.peak_exe else {
            self.peaks.push(peak_rss_mib());
            return Ok(());
        };
        let out = std::process::Command::new(exe)
            .arg("--peak-of")
            .arg(self.opts.workload.name())
            .arg(&self.dir)
            .arg(&self.opts.scale)
            .output()
            .map_err(|e| format!("starting the peak probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let peak = stdout
            .lines()
            .last()
            .and_then(|l| l.trim().parse::<f64>().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "peak probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })?;
        self.peaks.push(peak);
        if self.opts.workload == Workload::KbPublish {
            let ok = file_hash(&self.dir.join(PEAK_KB))? == self.reference().kb;
            self.check(ok);
        }
        Ok(())
    }

    /// `seconds` of the workload's own operation: its share of the timed
    /// window.
    fn focus(&mut self, chain: &Chain, seconds: f64) -> Result<(), String> {
        match self.opts.workload {
            Workload::FusePaper => {
                let (secs, _) = self.pipeline_ops(seconds, None)?;
                secs.into_iter()
                    .for_each(|s| self.e2e.push("pipeline_s", s));
            }
            Workload::KbPublish => {
                let secs = self.publish_ops(seconds, None)?;
                secs.into_iter().for_each(|s| self.e2e.push("publish_s", s));
            }
            Workload::ServeZipf => {
                let (window, _) = self.serve(chain, seconds, true, None)?;
                self.serving.merge(&window);
            }
        }
        Ok(())
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let sampled = |name: &str| Metric {
            name: name.to_string(),
            unit: "s",
            value: self.e2e.median(name),
            samples: self.e2e.get(name).len() as u64,
        };
        let mut out = vec![
            sampled("setup_s"),
            Metric {
                name: "peak_rss_mib".to_string(),
                unit: "MiB",
                value: median(&self.peaks),
                samples: self.peaks.len() as u64,
            },
            sampled("pipeline_s"),
            sampled("publish_s"),
            Metric {
                name: "qps".to_string(),
                unit: "1/s",
                value: median(&self.serving.qps),
                samples: self.serving.qps.len() as u64,
            },
        ];
        out.extend(self.latencies(GATED_KINDS));
        out
    }

    /// Median and 99th-percentile latency of each of `kinds` over every
    /// untraced serving window of the run.
    fn latencies(&self, kinds: &[&str]) -> Vec<Metric> {
        let mut out = Vec::new();
        for (kind, stats) in KINDS.iter().zip(&self.serving.kinds) {
            if !kinds.contains(kind) {
                continue;
            }
            for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                out.push(Metric {
                    name: format!("{kind}.{label}_us"),
                    unit: "us",
                    value: stats.latency.quantile(q) / 1e3,
                    samples: stats.latency.count(),
                });
            }
        }
        out
    }

    /// The traced pass: the workload's own operation traced for the full
    /// window, one traced op of each other kind, the single-worker
    /// baseline, an unmetered serving window and the key-sampling cost.
    fn traced(&mut self, chain: &Chain) -> Result<Vec<Metric>, String> {
        let focus = self.opts.workload;
        let focus_seconds = |w: Workload| if focus == w { self.opts.seconds } else { 0.0 };
        let fuse_window = focus_seconds(Workload::FusePaper);
        let publish_window = focus_seconds(Workload::KbPublish);
        let serve_window = focus_seconds(Workload::ServeZipf).max(self.opts.probe_seconds());
        let mut layers = Samples::default();
        let (pipeline_secs, report) = self.pipeline_ops(fuse_window, Some(&mut layers))?;
        let publish_secs = self.publish_ops(publish_window, Some(&mut layers))?;
        let trace = Trace::with_root("serve");
        let (served, sizes) = self.serve(chain, serve_window, true, Some(&trace))?;
        let (unmetered, _) = self.serve(chain, serve_window, false, None)?;

        let (single, single_secs) =
            ops::pipeline(&self.corpus_path(), &self.opts.scale, Some(1), None)?;
        let default_secs = self.e2e.median("pipeline_s");
        layers.push("mr.speedup", single_secs / default_secs);
        layers.push(
            "check.workers1_report_diff",
            ops::sections_differing(&single, &report) as f64,
        );
        for (kind, stats) in KINDS.iter().zip(&served.kinds) {
            layers.push(format!("{kind}.ops"), stats.ops as f64);
            layers.push(format!("{kind}.failed"), stats.failed as f64);
        }
        let size = |kind: &str, q: f64| {
            let i = KINDS.iter().position(|&k| k == kind).expect("a query kind");
            sizes[i].quantile(q) as f64
        };
        layers.push("belief.result_size_p50", size("belief", 0.5));
        layers.push("belief.result_size_p99", size("belief", 0.99));
        layers.push("drilldown.result_size_p99", size("drilldown", 0.99));
        layers.push("unmetered_qps", median(&unmetered.qps));
        layers.push(
            "client.pick_ns",
            serve::pick_ns(&chain.reader, &chain.plan, self.opts.query_seed()),
        );
        let overhead = match focus {
            Workload::FusePaper => pct_slower(median(&pipeline_secs), default_secs),
            Workload::KbPublish => pct_slower(median(&publish_secs), self.e2e.median("publish_s")),
            Workload::ServeZipf => pct_slower(median(&self.serving.qps), median(&served.qps)),
        };
        layers.push("trace_overhead_pct", overhead);

        let untraced = self.latencies(&KINDS);
        Ok(per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                if let Some(m) = untraced.iter().find(|m| m.name == name) {
                    return m.clone();
                }
                let values = layers.get(&name);
                Metric {
                    value: median(values),
                    samples: values.len() as u64,
                    name,
                    unit,
                }
            })
            .collect())
    }
}

/// The checkpoints a run keeps in its scratch directory.
const CORPUS_FILE: &str = "snap.kfc";
const REPORT_FILE: &str = "report.kfr";
const KB_FILE: &str = "kb.kfkb";
/// Where the peak probe of `kb-publish` saves its KB.
const PEAK_KB: &str = "kb-peak.kfkb";

/// One op of `workload` on the checkpoints a run left in `dir`, then this
/// process's peak resident memory in MiB. The benchmark program runs it
/// in a child process (`--peak-of`) for `peak_rss_mib`.
pub fn peak_of(workload: Workload, dir: &Path, scale: &str) -> Result<f64, String> {
    let corpus = dir.join(CORPUS_FILE);
    match workload {
        Workload::FusePaper => {
            ops::pipeline(&corpus, scale, None, None)?;
        }
        Workload::KbPublish => {
            ops::publish(&corpus, &dir.join(REPORT_FILE), &dir.join(PEAK_KB), None)?;
        }
        Workload::ServeZipf => {
            let reader = KbReader::open(dir.join(KB_FILE))
                .map_err(|e| format!("opening KB: {e}"))?
                .with_metrics(Arc::new(ServeMetrics::new()));
            let plan = QueryPlan::new(&reader);
            serve::window(&reader, &plan, 0, 0, SLICE_SECONDS, None);
        }
    }
    Ok(peak_rss_mib())
}

fn counts_match(p: &ops::Published) -> bool {
    p.reader.kb().n_triples() == p.compiled.n_triples()
        && p.reader.kb().n_items() == p.compiled.n_items()
}

/// Run one workload in `SETUP_REPS` rounds. Each round builds the set-up
/// chain, serves a short probe on it (except `serve-zipf`, whose own
/// window serves it) and spends its share of the timed window on the
/// workload's operation, so every metric's samples spread over the whole
/// run. When tracing, the traced pass follows.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let dir = opts.work_dir.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let _scratch = ScratchDir(dir.clone());
    let fingerprint = Fingerprint::capture();
    let mut bench = Bench {
        opts,
        dir,
        reference: None,
        attempted: 0,
        failed: 0,
        e2e: Samples::default(),
        serving: WindowStats::default(),
        streams: 0,
        peaks: Vec::new(),
    };

    let mut chain: Option<Chain> = None;
    let mut window_used = 0.0;
    for round in 1..=SETUP_REPS {
        // Free the previous build before the next one.
        drop(chain.take());
        let start = Instant::now();
        let built = bench.chain()?;
        bench.e2e.push("setup_s", start.elapsed().as_secs_f64());
        if opts.workload != Workload::ServeZipf {
            let (probe, _) = bench.serve(&built, opts.probe_seconds(), true, None)?;
            bench.serving.merge(&probe);
        }
        // A batch op that starts inside the window runs to its end; the
        // next round's share shrinks by the overrun.
        let share = opts.seconds * round as f64 / SETUP_REPS as f64 - window_used;
        if round == 1 || share > 0.0 {
            let start = Instant::now();
            bench.focus(&built, share)?;
            window_used += start.elapsed().as_secs_f64();
        }
        chain = Some(built);
    }
    let chain = chain.expect("at least one set-up");
    bench.peak_probe()?;

    let end_to_end = bench.end_to_end();
    let per_layer = if opts.trace {
        bench.traced(&chain)?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        fingerprint,
        corpus_hash: bench.reference().corpus,
        attempted: bench.attempted,
        failed: bench.failed,
        end_to_end,
        per_layer,
    })
}
