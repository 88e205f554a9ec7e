//! The batch operations, each a sequence of public calls timed from
//! outside: the pipeline (`repro --corpus snap.kfc --no-out`) and the
//! publish (`kf-serve build --corpus --report`, then the reopen of
//! `kf-serve query`). A traced op also yields its per-layer numbers.

use crate::stats::Samples;
use kf_bench::ReproOptions;
use kf_eval::{EvalReport, Json, Preset};
use kf_serve::{FusedKb, KbBuildOptions, KbReader};
use kf_synth::Corpus;
use kf_telemetry::{SpanNode, Trace, TraceReport};
use std::path::Path;
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn span_ms(node: Option<&SpanNode>) -> f64 {
    node.map_or(0.0, |n| n.total_ns as f64 / 1e6)
}

/// Depth-first search for the first span called `name`.
fn find<'a>(node: &'a SpanNode, name: &str) -> Option<&'a SpanNode> {
    if node.name == name {
        return Some(node);
    }
    node.children.iter().find_map(|c| find(c, name))
}

/// Total time of every span called `name`, at any depth.
fn sum_named(node: &SpanNode, name: &str) -> u64 {
    let own = if node.name == name { node.total_ns } else { 0 };
    own + node
        .children
        .iter()
        .map(|c| sum_named(c, name))
        .sum::<u64>()
}

fn counter(trace: &TraceReport, name: &str) -> f64 {
    trace
        .counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0.0, |c| c.value as f64)
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// One pipeline op: load the checkpoint, build the shared support index,
/// then fuse, evaluate and diagnose every preset (what
/// `kf_bench::run_on_corpus` does, with the index timed on its own).
/// Returns the report and the op's wall time in seconds.
pub fn pipeline(
    corpus_path: &Path,
    scale: &str,
    workers: Option<usize>,
    layers: Option<&mut Samples>,
) -> Result<(EvalReport, f64), String> {
    let opts = ReproOptions {
        scale: scale.to_string(),
        corpus: Some(corpus_path.display().to_string()),
        out: None,
        out_explicit: true,
        workers,
        ..ReproOptions::default()
    };
    let process = Trace::with_root("run");
    let installed = layers.is_some().then(|| kf_telemetry::install(&process));
    let start = Instant::now();
    let corpus = Corpus::load(corpus_path).map_err(|e| format!("loading corpus: {e}"))?;
    let load_ms = ms(start);
    let support_start = Instant::now();
    let diagnosis = kf_bench::build_diagnosis_context(&opts, &corpus);
    let support_ms = ms(support_start);
    let report = kf_bench::run_on_corpus_with_context(&opts, &corpus, diagnosis.as_ref());
    let secs = start.elapsed().as_secs_f64();
    drop(installed);
    if let Some(layers) = layers {
        layers.push("corpus.load_ms", load_ms);
        layers.push("corpus.bytes", file_len(corpus_path));
        layers.push("support_index_ms", support_ms);
        pipeline_layers(layers, process.snapshot(), &report);
    }
    Ok((report, secs))
}

/// Per-preset spans from each method's own trace, and the MapReduce
/// totals of the whole run (process trace plus every method trace).
fn pipeline_layers(layers: &mut Samples, mut full: TraceReport, report: &EvalReport) {
    let (mut builds, mut granularities) = (0.0, Vec::new());
    for m in &report.methods {
        let Some(trace) = &m.trace else { continue };
        let root = &trace.root;
        let p = &m.name;
        if let Some(fuse) = root.child("fuse") {
            let covered: u64 = fuse.children.iter().map(|c| c.total_ns).sum();
            let round = fuse.child("round");
            layers.push(format!("fuse_ms.{p}"), span_ms(Some(fuse)));
            layers.push(format!("group_ms.{p}"), span_ms(fuse.child("group")));
            layers.push(
                format!("stage1_ms.{p}"),
                span_ms(round.and_then(|r| r.child("stage1"))),
            );
            layers.push(
                format!("stage2_ms.{p}"),
                span_ms(round.and_then(|r| r.child("stage2"))),
            );
            layers.push(
                format!("fuse_self_ms.{p}"),
                fuse.total_ns.saturating_sub(covered) as f64 / 1e6,
            );
            builds += fuse.child("group").map_or(0, |g| g.calls) as f64;
        }
        layers.push(format!("eval_ms.{p}"), span_ms(root.child("eval")));
        layers.push(format!("diagnose_ms.{p}"), span_ms(root.child("diagnose")));
        if let Some(preset) = Preset::by_name(p) {
            let g = preset.config().granularity;
            if !granularities.contains(&g) {
                granularities.push(g);
            }
        }
        full.absorb(p, trace);
    }
    layers.push("group.builds", builds);
    layers.push("group.granularities", granularities.len() as f64);
    for name in [
        "fuse.rounds",
        "mr.jobs",
        "mr.map_output",
        "mr.reduce_keys",
        "mr.peak_resident_records",
        "mr.spilled_bytes",
    ] {
        layers.push(name, counter(&full, name));
    }
    layers.push(
        "mr.shuffle_ms",
        sum_named(&full.root, "shuffle") as f64 / 1e6,
    );
    layers.push("mr.reduce_ms", sum_named(&full.root, "reduce") as f64 / 1e6);
}

/// Content hash of a report with its wall-clock fields quarantined (the
/// `--deterministic` bytes).
pub fn report_hash(report: &EvalReport) -> u64 {
    let mut report = report.clone();
    report.quarantine_timings();
    crate::stats::fnv1a(report.to_json_string().as_bytes())
}

/// Fig. 9: POPACCU+ is at least as well calibrated as VOTE.
pub fn fig9_holds(report: &EvalReport) -> bool {
    match (report.method("popaccu_plus"), report.method("vote")) {
        (Some(plus), Some(vote)) => plus.wdev() <= vote.wdev(),
        _ => false,
    }
}

/// The report's sections, each keyed by name and holding its value in
/// every method: the top-level fields, each method field, and the
/// parts of each method's trace.
fn sections(report: &EvalReport) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Json::Obj(top) = report.to_json() else {
        return out;
    };
    for (key, value) in top {
        let Json::Arr(methods) = &value else {
            out.push((key, value.to_string_compact()));
            continue;
        };
        for method in methods {
            let Json::Obj(fields) = method else { continue };
            for (field, v) in fields {
                match (field.as_str(), v) {
                    ("trace", Json::Obj(parts)) => {
                        for (part, pv) in parts {
                            match (part.as_str(), pv) {
                                ("deterministic", Json::Obj(det)) => {
                                    for (d, dv) in det {
                                        out.push((
                                            format!("trace.deterministic.{d}"),
                                            dv.to_string_compact(),
                                        ));
                                    }
                                }
                                _ => out.push((format!("trace.{part}"), pv.to_string_compact())),
                            }
                        }
                    }
                    _ => out.push((field.clone(), v.to_string_compact())),
                }
            }
        }
    }
    out
}

/// How many named report sections differ between two reports once
/// their wall-clock fields are quarantined.
pub fn sections_differing(a: &EvalReport, b: &EvalReport) -> usize {
    let quarantined = |r: &EvalReport| {
        let mut r = r.clone();
        r.quarantine_timings();
        sections(&r)
    };
    let (a, b) = (quarantined(a), quarantined(b));
    let mut names: Vec<&String> = a.iter().chain(&b).map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    let values = |s: &[(String, String)], n: &str| -> Vec<String> {
        s.iter()
            .filter(|(k, _)| k == n)
            .map(|(_, v)| v.clone())
            .collect()
    };
    names
        .into_iter()
        .filter(|n| values(&a, n) != values(&b, n))
        .count()
}

/// What a publish op produced.
pub struct Published {
    pub compiled: FusedKb,
    pub reader: KbReader,
    pub secs: f64,
}

/// One publish op: load the corpus checkpoint and the report, compile
/// the POPACCU+ KB (which re-fuses), save it, and reopen it for serving.
pub fn publish(
    corpus_path: &Path,
    report_path: &Path,
    kb_path: &Path,
    layers: Option<&mut Samples>,
) -> Result<Published, String> {
    let process = Trace::with_root("run");
    let installed = layers.is_some().then(|| kf_telemetry::install(&process));
    let start = Instant::now();
    let corpus = Corpus::load(corpus_path).map_err(|e| format!("loading corpus: {e}"))?;
    let load_ms = ms(start);
    let t = Instant::now();
    let report = EvalReport::load(report_path).map_err(|e| format!("loading report: {e}"))?;
    let report_ms = ms(t);
    let t = Instant::now();
    let compiled = FusedKb::compile(&report, &corpus, &KbBuildOptions::default())
        .map_err(|e| format!("compiling KB: {e}"))?;
    let compile_ms = ms(t);
    let t = Instant::now();
    compiled
        .save(kb_path)
        .map_err(|e| format!("saving KB: {e}"))?;
    let save_ms = ms(t);
    let t = Instant::now();
    let reader = KbReader::open(kb_path).map_err(|e| format!("opening KB: {e}"))?;
    let open_ms = ms(t);
    let secs = start.elapsed().as_secs_f64();
    drop(installed);
    if let Some(layers) = layers {
        let trace = process.snapshot();
        let compile = find(&trace.root, "serve.compile");
        layers.push("corpus.load_ms", load_ms);
        layers.push("corpus.bytes", file_len(corpus_path));
        layers.push("report.load_ms", report_ms);
        layers.push("kb.compile_ms", compile_ms);
        layers.push(
            "kb.compile_fuse_ms",
            span_ms(compile.and_then(|c| find(c, "serve.compile.fuse"))),
        );
        layers.push(
            "kb.compile_index_ms",
            span_ms(compile.and_then(|c| find(c, "serve.compile.index"))),
        );
        layers.push("kb.save_ms", save_ms);
        layers.push("kb.open_ms", open_ms);
        layers.push("kb.bytes", file_len(kb_path));
    }
    Ok(Published {
        compiled,
        reader,
        secs,
    })
}
