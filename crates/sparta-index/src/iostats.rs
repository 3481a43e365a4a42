//! I/O accounting and simulation.
//!
//! The paper's indexes are disk-resident: "Prior to each experiment,
//! we flush the file system's page cache so all pages are physically
//! read from disk during the experiment" (§5.1), and a key finding is
//! that pRA's random accesses to its secondary index "cannot be
//! sustained even with modern SSD hardware" (§5.3). We do not have the
//! authors' 1TB SSD; instead the disk backend holds its postings in
//! RAM and reports every access a disk-resident index would make to
//! this layer, which (a) counts sequential block fetches and random
//! accesses, and (b) optionally charges a configurable latency for
//! each, calibrated to SSD behaviour (tens of microseconds per
//! sequential 64KB block, ~100µs per cold random 4KB read). The
//! charges are the whole disk model: no access reads a file.

use sparta_collections::ShardedCounter;
use std::time::{Duration, Instant};

/// Latency model for simulated disk I/O.
///
/// Latencies are charged by spin-waiting (not `sleep`): the granularity
/// required is microseconds, far below OS timer resolution, and the
/// spin also models the CPU stall a synchronous `pread` would cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoModel {
    /// Charged per sequential block fetch.
    pub seq_block: Duration,
    /// Charged per random access.
    pub random_access: Duration,
}

impl IoModel {
    /// No charging — pure counting: the access pattern shows in the
    /// [`IoStats`] counts, and a query costs what it costs in RAM.
    pub const fn free() -> Self {
        Self {
            seq_block: Duration::ZERO,
            random_access: Duration::ZERO,
        }
    }

    /// An SSD-like model: 40µs per sequential 64KB block (~1.6GB/s
    /// streaming) and 100µs per cold random read.
    pub const fn ssd() -> Self {
        Self {
            seq_block: Duration::from_micros(40),
            random_access: Duration::from_micros(100),
        }
    }

    #[inline]
    fn charge(d: Duration) {
        if d.is_zero() {
            return;
        }
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Charges one sequential block fetch.
    #[inline]
    pub fn charge_seq(&self) {
        Self::charge(self.seq_block);
    }

    /// Charges one random access.
    #[inline]
    pub fn charge_random(&self) {
        Self::charge(self.random_access);
    }
}

impl Default for IoModel {
    fn default() -> Self {
        Self::free()
    }
}

/// Counters of I/O operations, shared by all cursors of one index.
#[derive(Debug, Default)]
pub struct IoStats {
    seq_blocks: ShardedCounter,
    random_accesses: ShardedCounter,
    bytes_read: ShardedCounter,
    blocks_decoded: ShardedCounter,
    compressed_bytes: ShardedCounter,
}

impl IoStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a sequential block fetch of `bytes` bytes.
    #[inline]
    pub fn record_seq(&self, bytes: u64) {
        self.seq_blocks.incr();
        self.bytes_read.add(bytes);
    }

    /// Records a random access of `bytes` bytes.
    #[inline]
    pub fn record_random(&self, bytes: u64) {
        self.record_randoms(1, bytes);
    }

    /// Records `n` random accesses of `bytes` bytes in total: one flush
    /// for a batch of probes.
    #[inline]
    pub fn record_randoms(&self, n: u64, bytes: u64) {
        self.random_accesses.add(n);
        self.bytes_read.add(bytes);
    }

    /// Records the decode of one compressed posting block whose packed
    /// representation spans `bytes` bytes. The compressed backend's
    /// companion to `postings_scanned`: how many blocks were actually
    /// decompressed (skipped blocks are never decoded) and how many
    /// compressed bytes moved through the decoder.
    #[inline]
    pub fn record_block_decode(&self, bytes: u64) {
        self.blocks_decoded.incr();
        self.compressed_bytes.add(bytes);
    }

    /// Sequential block fetches so far.
    pub fn seq_blocks(&self) -> u64 {
        self.seq_blocks.get()
    }

    /// Random accesses so far.
    pub fn random_accesses(&self) -> u64 {
        self.random_accesses.get()
    }

    /// Total bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Compressed posting blocks decoded so far.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded.get()
    }

    /// Compressed bytes moved through the block decoder so far.
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes.get()
    }

    /// Snapshot of the disk counters `(seq_blocks, random_accesses,
    /// bytes)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (self.seq_blocks(), self.random_accesses(), self.bytes_read())
    }

    /// Snapshot of the decode counters `(blocks_decoded,
    /// compressed_bytes)`.
    pub fn decode_snapshot(&self) -> (u64, u64) {
        (self.blocks_decoded(), self.compressed_bytes())
    }

    /// Resets all counters (between experiments).
    pub fn reset(&self) {
        self.seq_blocks.reset();
        self.random_accesses.reset();
        self.bytes_read.reset();
        self.blocks_decoded.reset();
        self.compressed_bytes.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_seq(65536);
        s.record_seq(65536);
        s.record_random(8);
        assert_eq!(s.snapshot(), (2, 1, 131080));
        s.record_randoms(3, 20);
        assert_eq!(s.snapshot(), (2, 4, 131100));
        s.reset();
        assert_eq!(s.snapshot(), (0, 0, 0));
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = IoModel::free();
        let t = Instant::now();
        for _ in 0..10_000 {
            m.charge_seq();
            m.charge_random();
        }
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn ssd_model_charges_time() {
        let m = IoModel::ssd();
        let t = Instant::now();
        for _ in 0..100 {
            m.charge_random(); // 100 × 100µs = 10ms
        }
        let dt = t.elapsed();
        assert!(dt >= Duration::from_millis(9), "charged {dt:?}");
    }
}
