//! The serving side: a Zipf query plan over a KB's items, a closed loop
//! of clients that times each public `KbReader` call, and the oracle the
//! answers are replayed against.

use crate::stats::LatencyHist;
use kf_serve::{KbReader, TripleView};
use kf_telemetry::Trace;
use kf_types::{DataItem, Triple};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients: each sends its next query when the last returns.
pub const CLIENTS: usize = 2;
/// `top_k` depth, as `kf-serve watch` asks.
pub const TOP_K: usize = 8;
/// Queries per kind replayed against the oracle after a window.
pub const REPLAY_PER_KIND: usize = 512;

/// The four query kinds, in equal shares.
pub const KINDS: [&str; 4] = ["lookup", "belief", "top_k", "drilldown"];

/// splitmix64: a tiny deterministic generator for query streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0), by multiply-shift.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One item of the KB: its key and its candidate rows.
#[derive(Debug, Clone, Copy)]
struct Item {
    key: DataItem,
    first_row: u32,
    len: u32,
}

/// One query: its kind (index into [`KINDS`]) and arguments.
#[derive(Debug, Clone, Copy)]
pub struct Query {
    pub kind: usize,
    pub item: DataItem,
    pub triple: Triple,
    /// Row of `triple` and popularity rank of `item`: what the oracle
    /// scans instead of the reader's indexes.
    row: u32,
    rank: u32,
}

/// Items ranked by candidate count (descending, ties in canonical
/// order), drawn Zipf(s = 1) by rank through Vose's alias table.
#[derive(Debug)]
pub struct QueryPlan {
    items: Vec<Item>,
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl QueryPlan {
    /// Build the plan from a reader's rows (canonical order keeps every
    /// item's candidates contiguous).
    pub fn new(reader: &KbReader) -> QueryPlan {
        let mut items: Vec<Item> = Vec::new();
        for row in 0..reader.kb().n_triples() as u32 {
            let t = reader.view(row).triple;
            match items.last_mut() {
                Some(it) if it.key.subject == t.subject && it.key.predicate == t.predicate => {
                    it.len += 1
                }
                _ => items.push(Item {
                    key: DataItem {
                        subject: t.subject,
                        predicate: t.predicate,
                    },
                    first_row: row,
                    len: 1,
                }),
            }
        }
        assert!(!items.is_empty(), "the KB serves at least one item");
        // Stable: equal counts keep canonical order.
        items.sort_by_key(|it| std::cmp::Reverse(it.len));
        let weights: Vec<f64> = (1..=items.len()).map(|r| 1.0 / r as f64).collect();
        let (prob, alias) = alias_table(&weights);
        QueryPlan { items, prob, alias }
    }

    /// Draw query number `i` of a stream: kinds rotate, so the mix is
    /// exactly equal.
    #[inline]
    pub fn draw(&self, reader: &KbReader, rng: &mut Rng, i: u64) -> Query {
        let slot = rng.below(self.items.len() as u64) as usize;
        let rank = if rng.next_u64() as f64 * (1.0 / 18_446_744_073_709_551_616.0) < self.prob[slot]
        {
            slot
        } else {
            self.alias[slot] as usize
        };
        let item = self.items[rank];
        let row = item.first_row + rng.below(item.len as u64) as u32;
        Query {
            kind: (i % KINDS.len() as u64) as usize,
            item: item.key,
            triple: reader.view(row).triple,
            row,
            rank: rank as u32,
        }
    }
}

/// Vose's alias method over unnormalised `weights`.
fn alias_table(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
    let n = weights.len();
    let total: f64 = weights.iter().sum();
    let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
    let mut alias: Vec<u32> = (0..n as u32).collect();
    let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| prob[i] < 1.0);
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        alias[s] = l as u32;
        prob[l] -= 1.0 - prob[s];
        if prob[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    for i in large.into_iter().chain(small) {
        prob[i] = 1.0;
    }
    (prob, alias)
}

/// The seed of client `client`'s query stream.
pub fn client_seed(query_seed: u64, client: usize) -> u64 {
    query_seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)
}

/// Run one query through the public API: the timed call. `belief`
/// includes `best()`, which every caller of a belief pays for.
#[inline]
fn execute(reader: &KbReader, q: &Query) -> bool {
    match q.kind {
        0 => black_box(reader.lookup(&q.triple)).is_some(),
        1 => black_box(reader.belief(q.item).map(|b| b.best())).is_some(),
        2 => black_box(reader.top_k(q.item.predicate, TOP_K)).is_some(),
        _ => black_box(reader.drilldown(&q.triple)).is_some(),
    }
}

fn hash_view(h: &mut impl Hasher, v: &TripleView) {
    v.row.hash(h);
    v.triple.hash(h);
    v.raw.to_bits().hash(h);
    v.calibrated.to_bits().hash(h);
    v.label.hash(h);
    v.n_pages.hash(h);
    v.n_extractors.hash(h);
    v.fallback.hash(h);
}

/// Digest of the full answer `reader` gives to `q` (0 for no answer).
pub fn answer(reader: &KbReader, q: &Query) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match q.kind {
        0 => match reader.lookup(&q.triple) {
            Some(v) => hash_view(&mut h, &v),
            None => return 0,
        },
        1 => match reader.belief(q.item) {
            Some(b) => hash_view(&mut h, &b.best()),
            None => return 0,
        },
        2 => match reader.top_k(q.item.predicate, TOP_K) {
            Some(top) => top.iter().for_each(|v| hash_view(&mut h, &v)),
            None => return 0,
        },
        _ => match reader.drilldown(&q.triple) {
            Some(d) => {
                hash_view(&mut h, &d.view());
                for p in d.iter() {
                    (p.id, p.key.pack(), p.accuracy.to_bits(), p.evaluated).hash(&mut h);
                }
            }
            None => return 0,
        },
    }
    h.finish() | 1
}

/// Expected answers for a fixed sample of each kind, derived in set-up
/// from the compiled KB by sequential scans rather than the reader's
/// indexes: `lookup` is the sampled row itself, `best` is the calibrated
/// argmax over the item's rows in canonical order (first wins ties, as
/// a scan of `Belief::iter()` gives it), and `top_k` is a full sort of
/// the predicate's rows. `drilldown` is read from the compiled KB, so
/// it pins the checkpoint round trip.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub sample: Vec<Query>,
    pub expected: Vec<u64>,
}

impl Oracle {
    pub fn new(compiled: &KbReader, plan: &QueryPlan, query_seed: u64) -> Oracle {
        let mut by_pred: HashMap<u32, Vec<TripleView>> = HashMap::new();
        for row in 0..compiled.kb().n_triples() as u32 {
            let v = compiled.view(row);
            by_pred.entry(v.triple.predicate.0).or_default().push(v);
        }
        for rows in by_pred.values_mut() {
            rows.sort_by(|a, b| {
                b.calibrated
                    .total_cmp(&a.calibrated)
                    .then(a.row.cmp(&b.row))
            });
            rows.truncate(TOP_K);
        }
        let mut rng = Rng::new(client_seed(query_seed, 0));
        let n = (REPLAY_PER_KIND * KINDS.len()) as u64;
        let sample: Vec<Query> = (0..n).map(|i| plan.draw(compiled, &mut rng, i)).collect();
        let expected = sample
            .iter()
            .map(|q| {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                match q.kind {
                    0 => hash_view(&mut h, &compiled.view(q.row)),
                    1 => {
                        let item = plan.items[q.rank as usize];
                        let best = (item.first_row..item.first_row + item.len)
                            .map(|row| compiled.view(row))
                            .reduce(|a, v| if v.calibrated > a.calibrated { v } else { a })
                            .expect("items are non-empty");
                        hash_view(&mut h, &best);
                    }
                    2 => by_pred[&q.item.predicate.0]
                        .iter()
                        .for_each(|v| hash_view(&mut h, v)),
                    _ => return answer(compiled, q),
                }
                h.finish() | 1
            })
            .collect();
        Oracle { sample, expected }
    }

    /// Replay the sample on `reader`; returns (attempted, failed) per
    /// kind.
    pub fn replay(&self, reader: &KbReader) -> [(u64, u64); 4] {
        let mut out = [(0, 0); 4];
        for (q, &want) in self.sample.iter().zip(&self.expected) {
            out[q.kind].0 += 1;
            if answer(reader, q) != want {
                out[q.kind].1 += 1;
            }
        }
        out
    }
}

/// What one query kind saw in a window.
#[derive(Debug, Clone, Default)]
pub struct KindStats {
    pub latency: LatencyHist,
    pub ops: u64,
    pub failed: u64,
}

impl KindStats {
    pub fn merge(&mut self, other: &KindStats) {
        self.latency.merge(&other.latency);
        self.ops += other.ops;
        self.failed += other.failed;
    }
}

/// The result of closed-loop serving.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    pub kinds: [KindStats; 4],
    /// Queries per second of each window.
    pub qps: Vec<f64>,
}

impl WindowStats {
    pub fn merge(&mut self, other: &WindowStats) {
        for (a, b) in self.kinds.iter_mut().zip(&other.kinds) {
            a.merge(b);
        }
        self.qps.extend_from_slice(&other.qps);
    }
}

/// Queries a client runs between looks at the stop flag.
const BATCH: u64 = 256;

/// Drive `CLIENTS` closed-loop clients against `reader` for `seconds`.
/// Each client installs `trace` on its own thread when given one (the
/// installation is thread-local). `stream` offsets the query seeds so
/// successive windows draw fresh streams.
pub fn window(
    reader: &KbReader,
    plan: &QueryPlan,
    query_seed: u64,
    stream: u64,
    seconds: f64,
    trace: Option<&Trace>,
) -> WindowStats {
    let stop = AtomicBool::new(false);
    let done: Vec<AtomicU64> = (0..CLIENTS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (stop, done) = (&stop, &done[c]);
                let seed = client_seed(query_seed, c).wrapping_add(stream.wrapping_mul(0x9e37));
                scope.spawn(move || {
                    let _installed = trace.map(kf_telemetry::install);
                    client(reader, plan, Rng::new(seed), stop, done)
                })
            })
            .collect();
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        let n: u64 = done.iter().map(|d| d.load(Ordering::Relaxed)).sum();
        let mut stats = WindowStats {
            qps: vec![n as f64 / start.elapsed().as_secs_f64()],
            ..WindowStats::default()
        };
        stop.store(true, Ordering::Relaxed);
        for handle in clients {
            let kinds = handle.join().expect("client thread panicked");
            for (a, b) in stats.kinds.iter_mut().zip(&kinds) {
                a.merge(b);
            }
        }
        stats
    })
}

fn client(
    reader: &KbReader,
    plan: &QueryPlan,
    mut rng: Rng,
    stop: &AtomicBool,
    done: &AtomicU64,
) -> [KindStats; 4] {
    let mut kinds: [KindStats; 4] = Default::default();
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        for _ in 0..BATCH {
            let q = plan.draw(reader, &mut rng, i);
            let start = Instant::now();
            let found = execute(reader, &q);
            let ns = start.elapsed().as_nanos() as u64;
            let k = &mut kinds[q.kind];
            k.latency.record(ns);
            k.ops += 1;
            k.failed += !found as u64;
            i += 1;
        }
        done.fetch_add(BATCH, Ordering::Relaxed);
    }
    kinds
}

/// Mean cost of drawing one query (key sampling outside the timed
/// call), in nanoseconds.
pub fn pick_ns(reader: &KbReader, plan: &QueryPlan, query_seed: u64) -> f64 {
    const N: u64 = 1 << 20;
    let mut rng = Rng::new(query_seed);
    let start = Instant::now();
    for i in 0..N {
        black_box(plan.draw(reader, &mut rng, i));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}
