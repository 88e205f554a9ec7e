//! Sustained serving throughput and tail latency for [`kf_serve::KbReader`]
//! under concurrent clients, at paper scale and 10× paper scale.
//!
//! This bench does not use the criterion shim: it needs *throughput* and
//! *p99 latency* rows, not mean-iteration time. It prints rows in the
//! same table shape the shim uses so `scripts/bench_json.py` can fold
//! them (plus a `thrpt:` variant the script also understands):
//!
//! ```text
//! serve/p99/paper/t4          time: [1.2 µs 1.4 µs 1.9 µs]  (5 windows)
//! serve/p99/paper/t4/belief   time: [0.9 µs 1.0 µs 1.1 µs]  (5 windows)
//! serve/qps/paper/t4          thrpt: [812345.0 q/s 823456.0 q/s 834567.0 q/s]  (5 windows)
//! ```
//!
//! Methodology: per (scale, client-count) cell, `WINDOWS` measurement
//! windows each issue a fixed total query budget split evenly across the
//! clients, which hammer one shared `KbReader`. Every query's wall time
//! is recorded into a per-client [`HistogramSnapshot`] preallocated
//! before the timed region (recording is a binary search over ≤1920
//! sparse buckets — no allocation once every bucket the workload
//! touches exists, and the warm-up window populates them); client
//! histograms merge bucket-wise into the window's pooled distribution,
//! whose p99 reads from the bucket upper bound (within `2^-5` relative
//! error of the exact pooled-sort p99 — asserted by a test in
//! `tests/trace.rs`). The row is min / mean / max across windows. One
//! query = one read API call; clients cycle a lookup / belief / top-k /
//! drill-down mix over strided rows. Next to the blended p99 row, each
//! cell prints one `serve/p99/<scale>/t<c>/<kind>` row per query kind,
//! so a blended tail cannot hide which kind it comes from. On a
//! single-core machine the
//! multi-client cells measure contention and scheduler fairness, not
//! parallel speedup — the interesting signal is that p99 degrades
//! gracefully and qps stays near the single-client number.
//!
//! A first non-flag CLI argument is a substring filter over row ids,
//! mirroring the criterion shim; `paper/` skips the 10× cells.

use kf_serve::{FusedKb, KbBuildOptions, KbReader};
use kf_synth::{Corpus, SynthConfig};
use kf_telemetry::{HistKind, HistogramSnapshot};
use kf_types::{DataItem, Triple};
use std::time::Instant;

const WINDOWS: usize = 5;
/// Total queries per window, split across the window's clients.
const WINDOW_QUERIES: u64 = 80_000;
const CLIENTS: [usize; 3] = [1, 4, 16];
/// Query kinds in mix order: query `q` is of kind `KINDS[q % 4]`.
const KINDS: [&str; 4] = ["lookup", "belief", "top_k", "drilldown"];

/// One query = one read API call. Returns a value to fold into a sink
/// so the optimiser cannot elide the read.
fn query(reader: &KbReader, q: u64, n_rows: u32) -> u64 {
    // Stride the row space so consecutive queries touch distant rows
    // (defeats trivially perfect locality without being adversarial).
    let row = ((q.wrapping_mul(0x9e37_79b9)) % n_rows as u64) as u32;
    let v = reader.view(row);
    let Triple {
        subject, predicate, ..
    } = v.triple;
    match q % 4 {
        0 => reader
            .lookup(&v.triple)
            .map_or(0, |t| t.calibrated.to_bits()),
        1 => reader
            .belief(DataItem { subject, predicate })
            .map_or(0, |b| b.best().raw.to_bits()),
        2 => reader.top_k(predicate, 8).map_or(0, |t| t.len() as u64),
        _ => reader.drilldown(&v.triple).map_or(0, |d| d.len() as u64),
    }
}

struct Window {
    p99_ns: f64,
    /// p99 per query kind, in [`KINDS`] order.
    kind_p99_ns: [f64; 4],
    qps: f64,
}

fn latency_hist() -> HistogramSnapshot {
    HistogramSnapshot::empty("serve.latency_ns", HistKind::Time)
}

/// Run one measurement window: `clients` threads share the reader and
/// the query budget; per-client, per-kind latency histograms merge into
/// the window's pooled distributions (the same bucket-wise algebra shard
/// traces use), whose p99s read straight from a bucket bound — no
/// pooled sample buffer, no sort.
fn run_window(reader: &KbReader, clients: usize, queries: u64) -> Window {
    let n_rows = reader.kb().n_triples() as u32;
    let per_client = queries / clients as u64;
    let start = Instant::now();
    let client_hists: Vec<[HistogramSnapshot; 4]> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let reader = reader.clone();
                scope.spawn(move || {
                    let mut hists: [HistogramSnapshot; 4] = std::array::from_fn(|_| latency_hist());
                    let mut sink = 0u64;
                    let base = c as u64 * per_client;
                    for q in base..base + per_client {
                        let t = Instant::now();
                        sink ^= query(&reader, q, n_rows);
                        hists[(q % 4) as usize].record(t.elapsed().as_nanos() as u64);
                    }
                    std::hint::black_box(sink);
                    hists
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client joins"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut by_kind: [HistogramSnapshot; 4] = std::array::from_fn(|_| latency_hist());
    for hists in &client_hists {
        for (pooled, h) in by_kind.iter_mut().zip(hists) {
            pooled.merge(h);
        }
    }
    let mut pooled = latency_hist();
    for h in &by_kind {
        pooled.merge(h);
    }
    Window {
        p99_ns: pooled.quantile(0.99) as f64,
        kind_p99_ns: std::array::from_fn(|k| by_kind[k].quantile(0.99) as f64),
        qps: pooled.count as f64 / elapsed.as_secs_f64(),
    }
}

fn print_time_row(id: &str, values: impl Iterator<Item = f64>) {
    let (min, mean, max) = stats(values);
    println!(
        "{id:<40} time: [{} {} {}]  ({WINDOWS} windows)",
        fmt_ns(min),
        fmt_ns(mean),
        fmt_ns(max),
    );
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn stats(values: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let v: Vec<f64> = values.collect();
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    (min, mean, max)
}

/// Whether a substring filter selects any row of one cell: its blended
/// p99, per-kind p99 or qps row.
fn cell_selected(filter: Option<&str>, p99_id: &str, qps_id: &str) -> bool {
    filter.is_none_or(|f| {
        qps_id.contains(f)
            || p99_id.contains(f)
            || KINDS.iter().any(|k| format!("{p99_id}/{k}").contains(f))
    })
}

fn bench_scale(label: &str, config: &SynthConfig, filter: Option<&str>) {
    let ids: Vec<(usize, String, String)> = CLIENTS
        .iter()
        .map(|&c| {
            (
                c,
                format!("serve/p99/{label}/t{c}"),
                format!("serve/qps/{label}/t{c}"),
            )
        })
        .collect();
    if !ids.iter().any(|(_, p, q)| cell_selected(filter, p, q)) {
        return;
    }

    eprintln!("[serve bench] building {label} corpus + KB …");
    let start = Instant::now();
    let corpus = Corpus::generate(config, 42);
    let kb = FusedKb::build_from_corpus(&corpus, &KbBuildOptions::default(), label)
        .expect("KB builds from a generated corpus");
    eprintln!(
        "[serve bench] {label}: {} triples, {} items, {} provenances ({:.1}s build)",
        kb.n_triples(),
        kb.n_items(),
        kb.n_provenances(),
        start.elapsed().as_secs_f64(),
    );
    let reader = KbReader::new(kb);

    for (clients, p99_id, qps_id) in ids {
        if !cell_selected(filter, &p99_id, &qps_id) {
            continue;
        }
        // Warm-up window (faults pages in, primes the branch predictors).
        run_window(&reader, clients, WINDOW_QUERIES / 4);
        let windows: Vec<Window> = (0..WINDOWS)
            .map(|_| run_window(&reader, clients, WINDOW_QUERIES))
            .collect();
        print_time_row(&p99_id, windows.iter().map(|w| w.p99_ns));
        for (k, kind) in KINDS.iter().enumerate() {
            print_time_row(
                &format!("{p99_id}/{kind}"),
                windows.iter().map(|w| w.kind_p99_ns[k]),
            );
        }
        let (q_min, q_mean, q_max) = stats(windows.iter().map(|w| w.qps));
        println!(
            "{qps_id:<40} thrpt: [{q_min:.1} q/s {q_mean:.1} q/s {q_max:.1} q/s]  ({WINDOWS} windows)",
        );
    }
}

fn main() {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let filter = filter.as_deref();

    bench_scale("paper", &SynthConfig::paper(), filter);

    // 10× paper: ten times the pages over ten times the sites, same
    // per-site and per-page shape — the corpus the paper's Fig. 4 scale
    // claims would meet after one more order of magnitude of crawl.
    let mut paper10 = SynthConfig::paper();
    paper10.web.n_pages *= 10;
    paper10.web.n_sites *= 10;
    bench_scale("paper10x", &paper10, filter);
}
