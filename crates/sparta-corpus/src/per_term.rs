//! A scoped per-term map over every available core.
//!
//! Index set-up is a loop over the dictionary in which every term is
//! independent of every other: corpus synthesis regenerates a term's
//! postings from an RNG seeded by `(corpus seed, term)`, and the index
//! builders score and pack one list at a time. [`map_terms`] runs such
//! a loop on `T = available_parallelism()` workers. The caller is
//! worker 0 and spawns `T − 1` scoped threads; worker `w` takes terms
//! `w, w + T, w + 2T, …` (the striding spreads the long head lists of
//! a Zipf vocabulary over every worker), and the results are put back
//! in term order. Nothing is shared between workers while they run —
//! no atomics, no locks — so the output is the serial loop's,
//! whatever the worker count, and `T = 1` spawns nothing.
//!
//! The caller stays a worker rather than waiting on `T` spawned
//! threads: each thread that allocates gets its own glibc arena, and
//! one arena fewer keeps the set-up's peak resident size down.

use crate::types::TermId;
use std::num::NonZeroUsize;

/// Runs `f(&mut state, t)` for every term `t` in `0..n` and returns
/// the results in term order, plus each worker's final state (one per
/// worker that ran, worker 0's first). `init` makes a worker's state —
/// a scratch buffer, a partial sum — on the worker's own thread.
///
/// A panic in any worker reaches the caller once every worker has
/// stopped.
pub fn map_terms<S, R, I, F>(n: u32, init: I, f: F) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, TermId) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    map_terms_on(workers, n, init, f)
}

/// [`map_terms`] on `workers` workers (at most one per term).
fn map_terms_on<S, R, I, F>(workers: usize, n: u32, init: I, f: F) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, TermId) -> R + Sync,
{
    let workers = workers.clamp(1, (n as usize).max(1));
    let run = |w: usize| {
        let mut state = init();
        let out: Vec<R> = (w as u32..n)
            .step_by(workers)
            .map(|t| f(&mut state, t))
            .collect();
        (out, state)
    };
    let parts: Vec<(Vec<R>, S)> = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|w| s.spawn(move || run(w))).collect();
        let mine = run(0);
        let mut parts = vec![mine];
        for h in spawned {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        parts
    });
    let (outs, states): (Vec<Vec<R>>, Vec<S>) = parts.into_iter().unzip();
    let mut outs: Vec<_> = outs.into_iter().map(Vec::into_iter).collect();
    let results = (0..n as usize)
        .map(|t| outs[t % workers].next().expect("worker ran its term"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_come_back_in_term_order_at_every_worker_count() {
        for workers in [1, 2, 3, 7] {
            for n in [0u32, 1, 2, 5, 6, 7, 100] {
                let (out, states) = map_terms_on(workers, n, Vec::new, |seen, t| {
                    seen.push(t);
                    u64::from(t) * 3 + 1
                });
                let want: Vec<u64> = (0..u64::from(n)).map(|t| t * 3 + 1).collect();
                assert_eq!(out, want, "workers {workers}, n {n}");
                // One state per worker that ran, each holding its
                // stride in order; together they cover every term once.
                let used = workers.min(n.max(1) as usize);
                assert_eq!(states.len(), used, "workers {workers}, n {n}");
                for (w, seen) in states.iter().enumerate() {
                    let stride: Vec<u32> = (w as u32..n).step_by(used).collect();
                    assert_eq!(seen, &stride, "worker {w} of {used}, n {n}");
                }
            }
        }
    }

    #[test]
    fn the_public_map_matches_one_worker() {
        let square = |_: &mut (), t: TermId| u64::from(t) * u64::from(t);
        assert_eq!(
            map_terms(50, || (), square).0,
            map_terms_on(1, 50, || (), square).0
        );
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        // Term 4 runs on a spawned worker at 3 workers, term 3 on the
        // caller; both must surface as the caller's panic.
        for bad in [3u32, 4] {
            let r = catch_unwind(AssertUnwindSafe(|| {
                map_terms_on(3, 10, || (), |_, t| assert_ne!(t, bad, "term {bad} fails"))
            }));
            let msg = r.expect_err("the panic propagates");
            let text = msg
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(text.contains(&format!("term {bad} fails")), "{text}");
        }
    }
}
