//! Measurement helpers: latency statistics, recall aggregation, and
//! the throughput driver of §5.1.

use crate::dataset::Dataset;
use crate::variants::VariantParams;
use sparta_core::result::WorkStats;
use sparta_core::Algorithm;
use sparta_corpus::types::Query;
use sparta_exec::WorkerPool;
use sparta_obs::{ExecMetrics, ExecSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency distribution over a query batch.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Per-query latencies, sorted ascending.
    pub sorted: Vec<Duration>,
    /// Mean recall over the batch (1.0 when exactness was verified).
    pub mean_recall: f64,
    /// Summed work counters.
    pub work: WorkStats,
    /// Executor-side metrics aggregated over the batch.
    pub exec: ExecSnapshot,
}

impl LatencyStats {
    /// Mean latency.
    pub fn mean(&self) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        self.sorted.iter().sum::<Duration>() / self.sorted.len() as u32
    }

    /// p-th percentile latency (p in 0..=1).
    pub fn percentile(&self, p: f64) -> Duration {
        sparta_obs::percentile(&self.sorted, p)
    }
}

/// Runs `algo` over `queries` in latency mode (one query at a time on
/// a pool of `threads` workers, §5.1) and measures latency + recall.
pub fn run_latency_with(
    ds: &Dataset,
    algo: &dyn Algorithm,
    queries: &[Query],
    params: &VariantParams,
    threads: usize,
    measure_recall: bool,
) -> LatencyStats {
    let threads = threads.max(1);
    let metrics = ExecMetrics::new(threads);
    let exec = WorkerPool::instrumented(threads, Arc::clone(&metrics));
    let cfg = params.config(ds.k);
    let mut sorted = Vec::with_capacity(queries.len());
    let mut recall_sum = 0.0;
    let mut work = WorkStats::default();
    // The index's block-decode counters are cumulative; queries run
    // sequentially here, so per-query deltas attribute every decoded
    // block (and its compressed bytes) to the query that touched it.
    let io = ds.index.io_stats();
    for q in queries {
        let decode0 = io.map(|s| s.decode_snapshot()).unwrap_or_default();
        let t0 = Instant::now();
        let mut r = algo.search(&ds.index, q, &cfg, &exec);
        sorted.push(t0.elapsed());
        let decode1 = io.map(|s| s.decode_snapshot()).unwrap_or_default();
        r.work.blocks_decoded += decode1.0.saturating_sub(decode0.0);
        r.work.compressed_bytes += decode1.1.saturating_sub(decode0.1);
        if measure_recall {
            recall_sum += ds.oracle(q).recall(&r.docs());
        } else {
            recall_sum += 1.0;
        }
        work.merge(&r.work);
    }
    sorted.sort();
    // The pool's registry is exact only once its workers are joined.
    drop(exec);
    LatencyStats {
        mean_recall: recall_sum / queries.len().max(1) as f64,
        sorted,
        work,
        exec: metrics.snapshot(),
    }
}

/// Runs the throughput mode of §5.1: all queries submitted FCFS to a
/// shared pool of `pool_threads`, multiple driver threads keeping the
/// pool saturated. Returns queries/second.
pub fn run_throughput(
    ds: &Dataset,
    algo: &dyn Algorithm,
    mix: &[Query],
    params: &VariantParams,
    pool_threads: usize,
) -> f64 {
    let pool = Arc::new(WorkerPool::new(pool_threads));
    let cfg = params.config(ds.k);
    let next = AtomicUsize::new(0);
    let drivers = pool_threads.clamp(2, 4);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..drivers {
            let pool = Arc::clone(&pool);
            let next = &next;
            let cfg = &cfg;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= mix.len() {
                    break;
                }
                algo.search(&ds.index, &mix[i], cfg, pool.as_ref());
            });
        }
    });
    let elapsed = t0.elapsed();
    mix.len() as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_mean() {
        let s = LatencyStats {
            sorted: vec![Duration::from_millis(10), Duration::from_millis(30)],
            mean_recall: 1.0,
            work: WorkStats::default(),
            exec: ExecSnapshot::default(),
        };
        assert_eq!(s.mean(), Duration::from_millis(20));
    }
}
