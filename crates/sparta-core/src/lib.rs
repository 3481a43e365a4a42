//! Sparta — scalable parallel top-k retrieval (PPoPP '20) — and every
//! baseline it is evaluated against.
//!
//! The primary contribution is [`sparta::Sparta`], a parallel
//! threshold-algorithm variant with judicious context sharing: a
//! lock-free shared candidate map that a background *cleaner* keeps
//! pruning, per-segment (lazy) upper-bound updates, and thread-local
//! map replicas once the candidate set fits in cache (§4).
//!
//! The five parallel baselines of the paper's case study (§5.2,
//! Table 2) are implemented in full. pNRA shares Sparta's candidate
//! substrate — `DocSlab` records, a `DenseDocTable` or `DocTable` map,
//! [`sparta::SpartaHeap`] — so the two differ only in the algorithm;
//! sNRA runs sequential NRA ([`ta::nra::run_nra`]) per shard on a
//! private one at one thread. pJASS accumulates into the same slab
//! behind the same table; pRA, which scores a document in full the
//! moment it is first seen, needs one bit per document and keeps a
//! `DocBitset`. No algorithm takes a lock per posting:
//!
//! | algorithm | module | paper role |
//! |---|---|---|
//! | pRA | [`pra`] | parallel RA with a shared heap |
//! | pNRA | [`pnra`] | naïve shared-state NRA |
//! | sNRA | [`snra`], [`ta`] | shared-nothing NRA [Fagin et al.] |
//! | pBMW | [`docorder::pbmw`] | doc-sharded parallel BMW [Rojas et al.] |
//! | pJASS | [`pjass`] | score-at-a-time [Lin & Trotman; Mackenzie et al.] |
//!
//! Every algorithm implements [`Algorithm`], runs its work as jobs on
//! a [`sparta_exec::JobQueue`], and is exercised through the same
//! [`sparta_exec::Executor`] machinery, so latency and throughput
//! experiments use identical code paths.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::disallowed_types))]

pub mod config;
pub mod docorder;
pub mod oracle;
pub mod pjass;
pub mod pnra;
pub mod pra;
pub mod recall;
pub mod registry;
pub mod result;
pub mod shared_heap;
pub mod snra;
pub mod sparta;
pub mod staleness;
pub mod ta;
pub mod trace;

pub use config::SearchConfig;
pub use oracle::Oracle;
pub use recall::recall_of_docs;
pub use registry::{algorithm_by_name, all_algorithms};
pub use result::{SearchHit, TopKResult, WorkStats};
pub use trace::{TraceEvent, TraceSink};

use sparta_corpus::types::Query;
use sparta_exec::Executor;
use sparta_index::Index;
use std::sync::Arc;

/// A top-k retrieval algorithm.
pub trait Algorithm: Send + Sync {
    /// Short identifier used in experiment output (e.g. `"sparta"`).
    fn name(&self) -> &'static str;

    /// Retrieves the (approximate) top-k documents for `query`.
    ///
    /// * `index` — shared index; cursors opened per worker.
    /// * `cfg` — k plus the variant parameters (Δ, f, p, segment size…).
    /// * `exec` — supplies worker threads: the query's jobs run on it.
    fn search(
        &self,
        index: &Arc<dyn Index>,
        query: &Query,
        cfg: &SearchConfig,
        exec: &dyn Executor,
    ) -> TopKResult;
}
