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
        assert_eq!(
            f.disk.doc_cursor(t).max_score(),
            f.mem.doc_cursor(t).max_score(),
            "max({t})"
        );
    }
}

/// The exact I/O the disk backend charges, pinned. Every number here
/// was read off the lazy block reader this backend replaced (the
/// `pread` cursors), before it was removed: the accounting now rides
/// on the RAM-resident planes and must charge what those reads did.
/// Under one schedule seed the counts are a function of the query.
#[test]
fn io_accounting_is_pinned() {
    let f = fixture("iopin", 25);
    let disk: Arc<dyn Index> = Arc::<DiskIndex>::clone(&f.disk);
    let log = QueryLog::generate(f.corpus.stats(), 1, 4, 11);
    let q = &log.of_length(4)[0];
    let cfg = SearchConfig::exact(20);
    let stats = f.disk.io_stats().unwrap();
    let mut got = Vec::new();
    let algos: [(&str, &dyn Algorithm); 4] = [
        ("sparta", &Sparta),
        ("pra", &PRa),
        ("pbmw", &PBmw),
        ("pjass", &PJass),
    ];
    for (name, algo) in algos {
        stats.reset();
        algo.search(&disk, q, &cfg, &DeterministicExecutor::new(7));
        got.push((name, stats.snapshot()));
    }

    // The longest list, scanned in score order to its end.
    let longest = (0..disk.num_terms())
        .max_by_key(|&t| disk.doc_freq(t))
        .unwrap();
    stats.reset();
    let mut c = disk.score_cursor(longest);
    while c.next().is_some() {}
    got.push(("score scan", stats.snapshot()));

    // Opening a doc cursor fetches its first block, and nothing else.
    stats.reset();
    drop(disk.doc_cursor(longest));
    got.push(("doc open", stats.snapshot()));

    let want = [
        ("sparta", (4, 0, 12_792)),
        ("pra", (4, 3_616, 1_742_872)),
        ("pbmw", (61, 16, 37_664)),
        ("pjass", (4, 0, 12_792)),
        ("score scan", (1, 0, 630 * 8)),
        ("doc open", (1, 0, 64 * 8)),
    ];
    assert_eq!((longest, disk.doc_freq(longest)), (14, 630));
    assert_eq!(got, want);
}

/// The I/O of cursor and probe moves over one list of 20 000 postings
/// (three 64 KiB score-order fetches, 313 doc-order blocks of 64),
/// each step's `(seq_blocks, random_accesses, bytes_read)` counted
/// from zero. Pinned, like [`io_accounting_is_pinned`], to what the
/// replaced `pread` cursors counted: a fetch is charged when its first
/// posting is delivered, a doc block when the cursor first lands in
/// it (sequential only for the next block), a probe only when its
/// target lies inside the list's blocks.
#[test]
fn cursor_moves_charge_what_block_reads_did() {
    use sparta::index::storage::IndexWriter;
    use sparta::index::Posting;
    let dir = std::env::temp_dir().join(format!("sparta-it-iolong-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let list = (0..20_000u32)
        .map(|i| Posting::new(3 * i, i.wrapping_mul(7_919) % 10_007 + 1))
        .collect();
    let mut w = IndexWriter::create(&dir, 60_000, 1, 64).unwrap();
    w.add_term(list).unwrap();
    w.finish().unwrap();
    let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stats = disk.io_stats().unwrap();
    let mut got = Vec::new();
    let mut step = |name, run: &mut dyn FnMut()| {
        stats.reset();
        run();
        got.push((name, stats.snapshot()));
    };
    step("next() to the end", &mut || {
        let mut c = disk.score_cursor(0);
        while c.next().is_some() {}
    });
    step("segments of 5 000", &mut || {
        let (mut c, mut seg) = (disk.score_cursor(0), Vec::new());
        while c.next_segment(5_000, &mut seg) == 5_000 {}
    });
    step("8 191 by next(), then one segment", &mut || {
        let (mut c, mut seg) = (disk.score_cursor(0), Vec::new());
        for _ in 0..8_191 {
            c.next();
        }
        c.next_segment(usize::MAX, &mut seg);
    });
    step("doc cursor: open, advance across a block", &mut || {
        let mut c = disk.doc_cursor(0);
        for _ in 0..100 {
            c.advance();
        }
    });
    step("doc cursor: seeks near and far, block_at", &mut || {
        let mut c = disk.doc_cursor(0);
        c.seek(100);
        c.seek(30_000);
        c.seek(30_200);
        c.block_at(50_000);
        c.seek(59_997);
        c.seek(59_998);
        c.advance();
    });
    step("probes: hit, miss, past the end, unknown term", &mut || {
        let ra = disk.random_access().unwrap();
        for (term, doc) in [(0, 0), (0, 31_000), (0, 31_001), (0, 59_998), (1, 3)] {
            ra.term_score(term, doc);
        }
        let mut out = [0; 3];
        ra.term_scores(0, &[3, 300, 60_000], &mut out);
    });
    let want = [
        ("next() to the end", (3, 0, 20_000 * 8)),
        ("segments of 5 000", (3, 0, 20_000 * 8)),
        ("8 191 by next(), then one segment", (3, 0, 20_000 * 8)),
        ("doc cursor: open, advance across a block", (2, 0, 2 * 512)),
        (
            "doc cursor: seeks near and far, block_at",
            (2, 2, 3 * 512 + 32 * 8),
        ),
        (
            "probes: hit, miss, past the end, unknown term",
            (0, 5, 5 * 512),
        ),
    ];
    assert_eq!(got, want);
}
