//! The one scoped-parallel primitive the engine and the fusion pipeline
//! share: run a closure over a handful of caller-cut parts, one scoped
//! thread per part.

/// Run `f` on every part, each on its own scoped thread, and return the
/// results in part order. Zero or one part runs inline on the calling
/// thread, so a sequential configuration never spawns. A panic in any
/// part propagates to the caller with its original payload.
///
/// Callers cut the parts (typically at most `MrConfig::workers`
/// contiguous chunks), which keeps the result order — and therefore any
/// fold over it — independent of thread interleaving.
///
/// ```
/// use kf_mapreduce::scoped_map;
///
/// let data = [1u64, 2, 3, 4, 5];
/// let sums = scoped_map(data.chunks(2).collect(), |chunk| chunk.iter().sum::<u64>());
/// assert_eq!(sums, vec![3, 7, 5]);
/// ```
pub fn scoped_map<P, R, F>(parts: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    if parts.len() <= 1 {
        return parts.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| scope.spawn(move || f(part)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn results_come_back_in_part_order() {
        // Channels chain the parts so they finish in reverse: part i
        // waits for part i + 1, then releases part i - 1. The output
        // order must still be part order.
        let n = 6;
        let (txs, rxs): (Vec<_>, Vec<_>) = (1..n).map(|_| mpsc::channel::<()>()).unzip();
        let (mut txs, mut rxs) = (txs.into_iter(), rxs.into_iter());
        let parts: Vec<_> = (0..n)
            .map(|i| (i, rxs.next(), if i > 0 { txs.next() } else { None }))
            .collect();
        let out = scoped_map(parts, |(i, wait, release)| {
            if let Some(rx) = wait {
                rx.recv().expect("the next part signals before it returns");
            }
            if let Some(tx) = release {
                tx.send(()).expect("the previous part is waiting");
            }
            i * 10
        });
        assert_eq!(out, (0..n).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_part_work_inline() {
        let none: Vec<u32> = scoped_map(Vec::<u32>::new(), |x| x + 1);
        assert!(none.is_empty());
        let caller = std::thread::current().id();
        let one = scoped_map(vec![41u32], |x| (x + 1, std::thread::current().id()));
        assert_eq!(one, vec![(42, caller)], "a single part runs on the caller");
    }

    #[test]
    fn parts_can_own_disjoint_mutable_slices() {
        let mut slots = vec![0u32; 10];
        let (a, b) = slots.split_at_mut(4);
        scoped_map(vec![(0u32, a), (4, b)], |(base, part)| {
            for (i, slot) in part.iter_mut().enumerate() {
                *slot = base + i as u32;
            }
        });
        assert_eq!(slots, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_part_propagates_its_payload() {
        let result = std::panic::catch_unwind(|| {
            scoped_map(vec![1u32, 2, 3], |x| {
                if x == 2 {
                    panic!("part {x} failed");
                }
                x
            })
        });
        let payload = result.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("payload is the original formatted message");
        assert_eq!(message, "part 2 failed");
    }
}
