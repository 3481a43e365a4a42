//! The disk-resident index must be behaviorally identical to the
//! in-memory one: every algorithm returns the same results over both,
//! and the I/O accounting reflects each family's access pattern (the
//! paper's §5: sequential traversal for everyone, random accesses for
//! the RA family only).

use sparta::prelude::*;
use std::sync::Arc;
use std::time::Instant;

struct Fixture {
    mem: Arc<dyn Index>,
    disk: Arc<DiskIndex>,
    corpus: SynthCorpus,
    dir: std::path::PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn fixture(tag: &str, seed: u64) -> Fixture {
    let (mem, corpus) = sparta_testkit::build_index(seed);
    let builder = IndexBuilder::new(TfIdfScorer);
    let dir = std::env::temp_dir().join(format!("sparta-it-{tag}-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    builder.write_disk(&corpus, &dir).unwrap();
    let disk = Arc::new(DiskIndex::open(&dir, IoModel::free()).unwrap());
    Fixture {
        mem,
        disk,
        corpus,
        dir,
    }
}

#[test]
fn all_algorithms_agree_across_backends() {
    let f = fixture("agree", 21);
    let disk: Arc<dyn Index> = Arc::<DiskIndex>::clone(&f.disk);
    let log = QueryLog::generate(f.corpus.stats(), 2, 5, 3);
    let exec = WorkerPool::new(3);
    for m in [1usize, 3, 5] {
        for q in log.of_length(m) {
            let cfg = SearchConfig::exact(15).with_seg_size(64).with_phi(256);
            for algo in sparta::core::registry::all_algorithms() {
                let a = algo.search(&f.mem, q, &cfg, &exec);
                let b = algo.search(&disk, q, &cfg, &exec);
                assert_eq!(
                    a.scores(),
                    b.scores(),
                    "{} differs across backends for {:?}",
                    algo.name(),
                    q.terms
                );
            }
        }
    }
}

#[test]
fn io_profile_matches_algorithm_family() {
    let f = fixture("ioprofile", 22);
    let disk: Arc<dyn Index> = Arc::<DiskIndex>::clone(&f.disk);
    let log = QueryLog::generate(f.corpus.stats(), 1, 4, 9);
    let q = &log.of_length(4)[0];
    let cfg = SearchConfig::exact(20);
    let exec = WorkerPool::new(4);
    let stats = f.disk.io_stats().unwrap();

    stats.reset();
    Sparta.search(&disk, q, &cfg, &exec);
    let (seq, rnd, _) = stats.snapshot();
    assert!(seq > 0, "Sparta reads sequentially");
    assert_eq!(rnd, 0, "Sparta never random-accesses");

    stats.reset();
    PRa.search(&disk, q, &cfg, &exec);
    let (_, rnd, _) = stats.snapshot();
    assert!(rnd > 0, "pRA hits the secondary index");

    stats.reset();
    PBmw.search(&disk, q, &cfg, &exec);
    let (seq, _, _) = stats.snapshot();
    assert!(seq > 0, "pBMW reads doc-order blocks");
}

#[test]
fn ssd_model_slows_down_queries() {
    let f = fixture("ssd", 23);
    let log = QueryLog::generate(f.corpus.stats(), 1, 3, 4);
    let q = &log.of_length(3)[0];
    let cfg = SearchConfig::exact(20);
    let exec = WorkerPool::new(3);

    let ssd_ix = Arc::new(DiskIndex::open(&f.dir, IoModel::ssd()).unwrap());
    let ssd: Arc<dyn Index> = Arc::<DiskIndex>::clone(&ssd_ix);
    let start = Instant::now();
    Sparta.search(&ssd, q, &cfg, &exec);
    let elapsed = start.elapsed();
    // Deterministic check (wall-clock comparisons flake under test
    // parallelism): the run must have taken at least the I/O charge
    // its own counters imply.
    let (seq, rnd, _) = ssd_ix.io_stats().unwrap().snapshot();
    let charged = IoModel::ssd().seq_block * seq as u32 + IoModel::ssd().random_access * rnd as u32;
    assert!(seq > 0, "disk run must fetch blocks");
    // Charges on different worker threads overlap in wall-clock time,
    // so the bound is charged / threads.
    let bound = charged / 3;
    assert!(
        elapsed >= bound,
        "elapsed {elapsed:?} below the charged I/O bound {bound:?}"
    );
}

#[test]
fn dictionary_statistics_match() {
    let f = fixture("dict", 24);
    assert_eq!(f.disk.num_docs(), f.mem.num_docs());
    assert_eq!(f.disk.num_terms(), f.mem.num_terms());
    for t in (0..f.mem.num_terms()).step_by(17) {
        assert_eq!(f.disk.doc_freq(t), f.mem.doc_freq(t), "df({t})");
        assert_eq!(f.disk.max_score(t), f.mem.max_score(t), "max({t})");
    }
}
