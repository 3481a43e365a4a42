//! The slow-query log: a fixed-capacity ring of evidence records for
//! queries whose end-to-end latency crossed a threshold.
//!
//! When the scheduler finishes a query whose end-to-end time (read
//! from the scheduler's injectable `ObsClock`, so deterministic runs
//! stay deterministic) meets [`SlowLogConfig::threshold_ns`], it
//! captures a bounded [`SlowQueryRecord`]: the query's identity (tag,
//! k, algorithm), its full stage decomposition, the admission state at
//! capture time (queue depth, in-flight, cumulative shed), and a
//! truncated flight-recorder ring dump — the last thing every worker
//! did while the query was slow. Records live in a bounded ring
//! (oldest evicted first) served by the admin endpoint at
//! `/debug/slow`.

use parking_lot::Mutex;
use sparta_obs::json::Json;
use sparta_obs::Counter;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cap on the flight-recorder dump embedded in one record, so a ring
/// of records stays bounded no matter how chatty the rings were.
pub const SLOW_DUMP_MAX_BYTES: usize = 8 * 1024;

/// Slow-query log knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowLogConfig {
    /// End-to-end latency (clock ticks; nanoseconds under a wall
    /// clock) at or above which a completed query is captured.
    /// `u64::MAX` disables capture.
    pub threshold_ns: u64,
    /// Maximum records retained; the oldest is evicted first.
    pub capacity: usize,
}

impl Default for SlowLogConfig {
    fn default() -> Self {
        Self {
            threshold_ns: 100_000_000, // 100 ms
            capacity: 64,
        }
    }
}

impl SlowLogConfig {
    /// A config that never captures (threshold `u64::MAX`).
    pub fn disabled() -> Self {
        Self {
            threshold_ns: u64::MAX,
            capacity: 1,
        }
    }
}

/// One captured slow query.
#[derive(Debug, Clone)]
pub struct SlowQueryRecord {
    /// Scheduler-assigned query tag.
    pub query_tag: u64,
    /// Requested k.
    pub k: u32,
    /// Requested algorithm.
    pub algorithm: String,
    /// Admission-decision wait, clock ticks.
    pub admission_wait_ns: u64,
    /// FIFO queue wait, clock ticks.
    pub queue_wait_ns: u64,
    /// Execution time, clock ticks.
    pub execute_ns: u64,
    /// Response write time, clock ticks.
    pub response_write_ns: u64,
    /// End-to-end time, clock ticks.
    pub end_to_end_ns: u64,
    /// Wait-queue depth at capture time.
    pub queue_depth: u64,
    /// Slots held at capture time.
    pub in_flight: u64,
    /// Cumulative shed counter at capture time (overload context).
    pub shed_total: u64,
    /// Truncated flight-recorder ring dump (empty when the scheduler
    /// has no recorder).
    pub recorder: String,
}

impl SlowQueryRecord {
    fn to_json(&self) -> Json {
        Json::obj()
            .with("query_tag", self.query_tag)
            .with("k", u64::from(self.k))
            .with("algorithm", self.algorithm.as_str())
            .with("admission_wait_ns", self.admission_wait_ns)
            .with("queue_wait_ns", self.queue_wait_ns)
            .with("execute_ns", self.execute_ns)
            .with("response_write_ns", self.response_write_ns)
            .with("end_to_end_ns", self.end_to_end_ns)
            .with("queue_depth", self.queue_depth)
            .with("in_flight", self.in_flight)
            .with("shed_total", self.shed_total)
            .with("recorder", self.recorder.as_str())
    }
}

/// Bounded ring of slow-query evidence. One mutex, never held across a
/// blocking call; capture happens off the hot path (only for queries
/// that were already slow) so the lock is uncontended in practice.
#[derive(Debug)]
pub struct SlowLog {
    cfg: SlowLogConfig,
    ring: Mutex<VecDeque<SlowQueryRecord>>,
    /// Records ever captured (monotone; the ring may have evicted).
    captured: Counter,
}

impl SlowLog {
    /// An empty log with the given bounds.
    pub fn new(cfg: SlowLogConfig) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            ring: Mutex::new(VecDeque::with_capacity(cfg.capacity.max(1))),
            captured: Counter::new(),
        })
    }

    /// The configured bounds.
    pub fn config(&self) -> SlowLogConfig {
        self.cfg
    }

    /// Whether an end-to-end latency crosses the capture threshold.
    pub fn is_slow(&self, end_to_end_ns: u64) -> bool {
        self.cfg.threshold_ns != u64::MAX && end_to_end_ns >= self.cfg.threshold_ns
    }

    /// Appends a record, evicting the oldest past capacity. The
    /// embedded recorder dump is truncated to [`SLOW_DUMP_MAX_BYTES`].
    pub fn push(&self, mut rec: SlowQueryRecord) {
        if rec.recorder.len() > SLOW_DUMP_MAX_BYTES {
            let mut cut = SLOW_DUMP_MAX_BYTES;
            while !rec.recorder.is_char_boundary(cut) {
                cut -= 1;
            }
            rec.recorder.truncate(cut);
            rec.recorder.push_str("\n…[truncated]");
        }
        let mut ring = self.ring.lock();
        while ring.len() >= self.cfg.capacity.max(1) {
            ring.pop_front();
        }
        ring.push_back(rec);
        drop(ring);
        self.captured.incr();
    }

    /// Records ever captured (monotone, survives eviction).
    pub fn captured(&self) -> u64 {
        self.captured.get()
    }

    /// A copy of the retained records, oldest first.
    pub fn records(&self) -> Vec<SlowQueryRecord> {
        self.ring.lock().iter().cloned().collect()
    }

    /// The `/debug/slow` document: bounds, totals, and the records.
    pub fn to_json(&self) -> Json {
        let records = self.records();
        Json::obj()
            .with("threshold_ns", self.cfg.threshold_ns)
            .with("capacity", self.cfg.capacity as u64)
            .with("captured", self.captured())
            .with(
                "records",
                Json::Arr(records.iter().map(SlowQueryRecord::to_json).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tag: u64, dump: &str) -> SlowQueryRecord {
        SlowQueryRecord {
            query_tag: tag,
            k: 10,
            algorithm: "sparta".into(),
            admission_wait_ns: 1,
            queue_wait_ns: 2,
            execute_ns: 3,
            response_write_ns: 4,
            end_to_end_ns: 11,
            queue_depth: 0,
            in_flight: 1,
            shed_total: 0,
            recorder: dump.into(),
        }
    }

    #[test]
    fn threshold_gates_capture() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_ns: 100,
            capacity: 4,
        });
        assert!(!log.is_slow(99));
        assert!(log.is_slow(100));
        assert!(!SlowLog::new(SlowLogConfig::disabled()).is_slow(u64::MAX));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_all() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_ns: 0,
            capacity: 2,
        });
        for tag in 1..=5 {
            log.push(rec(tag, "d"));
        }
        let got: Vec<u64> = log.records().iter().map(|r| r.query_tag).collect();
        assert_eq!(got, [4, 5], "oldest evicted first");
        assert_eq!(log.captured(), 5);
    }

    #[test]
    fn oversized_dump_is_truncated_at_char_boundary() {
        let log = SlowLog::new(SlowLogConfig {
            threshold_ns: 0,
            capacity: 1,
        });
        // Multibyte char straddling the cut must not split.
        let dump = "é".repeat(SLOW_DUMP_MAX_BYTES);
        log.push(rec(1, &dump));
        let got = &log.records()[0].recorder;
        assert!(got.len() <= SLOW_DUMP_MAX_BYTES + "\n…[truncated]".len());
        assert!(got.ends_with("[truncated]"));
    }
}
