//! Property-based tests (proptest) over the core invariants:
//! * every exact algorithm retrieves the oracle top-k on *arbitrary*
//!   indexes (not just the generators' distributions);
//! * the concurrent collections behave like their sequential models;
//! * the on-disk format round-trips arbitrary posting lists.

use proptest::collection::vec;
use proptest::prelude::*;
use sparta::collections::{BoundedTopK, DocBitset, DocTable, Lookup, StripedMap};
use sparta::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An arbitrary tiny index: m lists of (doc, score) postings with
/// duplicate docs removed per list, plus a k.
fn arb_index() -> impl Strategy<Value = (Vec<Vec<sparta::index::Posting>>, usize)> {
    let list = vec((0u32..60, 1u32..1000), 0..80).prop_map(|mut ps| {
        ps.sort_by_key(|&(d, _)| d);
        ps.dedup_by_key(|&mut (d, _)| d);
        ps.into_iter()
            .map(|(d, s)| sparta::index::Posting::new(d, s))
            .collect::<Vec<_>>()
    });
    (vec(list, 1..4), 1usize..15)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn exact_algorithms_match_oracle_on_arbitrary_indexes((lists, k) in arb_index()) {
        let ix: Arc<dyn Index> = Arc::new(InMemoryIndex::with_block_size(lists, 60, 4));
        let m = ix.num_terms();
        let q = Query::new((0..m).collect());
        let oracle = Oracle::compute(ix.as_ref(), &q, k);
        let cfg = SearchConfig::exact(k).with_seg_size(16).with_phi(32);
        let exec = WorkerPool::new(2);
        for algo in sparta::core::registry::all_algorithms() {
            let r = algo.search(&ix, &q, &cfg, &exec);
            prop_assert_eq!(
                oracle.recall(&r.docs()),
                1.0,
                "{} missed: got {:?}, want {:?}",
                algo.name(),
                r.docs(),
                oracle.topk()
            );
            prop_assert_eq!(r.hits.len(), oracle.topk().len(), "{}", algo.name());
        }
    }

    #[test]
    fn doc_table_models_insert_only_hashmap(
        ops in vec((0u8..3, 0usize..48, 0u32..1000), 0..300),
        cap in 1usize..40,
    ) {
        // Keys include both ends of the id space and values both ends
        // of the handle space (`u32::MAX` is not a handle: the slot
        // stores handle + 1). The table is sized for `cap` distinct
        // keys and driven exactly to that load, never past it.
        let key = |i: usize| match i {
            0 => 0,
            1 => u32::MAX,
            _ => (i as u32).wrapping_mul(2654435761),
        };
        let table = DocTable::with_capacity(cap);
        let mut model: HashMap<u32, u32> = HashMap::new();
        for (op, i, v) in ops {
            let k = key(i % (cap + 8));
            let v = if v == 999 { u32::MAX - 1 } else { v };
            let allow = op != 0 && (model.len() < cap || model.contains_key(&k));
            let mut made = false;
            let got = table.get_or_try_insert_with(k, allow, || {
                made = true;
                v
            });
            let want = match model.get(&k) {
                Some(&w) => Lookup::Found(w),
                None if allow => {
                    model.insert(k, v);
                    Lookup::Inserted(v)
                }
                None => Lookup::Absent,
            };
            prop_assert_eq!(got, want);
            // The factory runs exactly when a value is inserted.
            prop_assert_eq!(made, matches!(got, Lookup::Inserted(_)));
            prop_assert_eq!(table.get(k), model.get(&k).copied());
        }
        // Insert-only: everything ever admitted is still there (checked
        // after every op above), and a sealed rebuild of the same
        // entries answers identically over the whole key universe.
        let rebuilt = DocTable::from_entries(model.iter().map(|(&d, &h)| (d, h)).collect::<Vec<_>>());
        prop_assert_eq!(rebuilt.len(), model.len());
        for i in 0..cap + 8 {
            prop_assert_eq!(rebuilt.get(key(i)), model.get(&key(i)).copied());
        }
    }

    #[test]
    fn doc_bitset_models_hashset(
        docs in vec(0u32..300, 0..400),
        cap in 1usize..260,
    ) {
        // Ids are folded into the capacity: the set has no
        // out-of-range answer (its users size it from `num_docs`).
        let seen = DocBitset::with_capacity(cap);
        let mut model: HashSet<u32> = HashSet::new();
        for d in docs {
            let d = d % cap as u32;
            prop_assert_eq!(seen.claim(d), model.insert(d));
            prop_assert_eq!(seen.len(), model.len());
        }
        prop_assert_eq!(seen.is_empty(), model.is_empty());
    }

    #[test]
    fn striped_map_models_hashmap(ops in vec((0u8..2, 0u32..40, 0u32..1000), 0..200)) {
        // The benchmark probe's surface (`get_or_insert_with`, `update`,
        // `len`) against a sequential HashMap model: every call goes
        // through the shared fast-hash stripe selection, so this also
        // pins the hasher (a bad stripe choice would lose or duplicate
        // keys).
        let striped: StripedMap<u32, u32> = StripedMap::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        for (op, k, v) in ops {
            if op == 0 {
                prop_assert_eq!(
                    striped.get_or_insert_with(k, || v),
                    *model.entry(k).or_insert(v)
                );
            } else {
                let got = striped.update(&k, |x| *x = x.wrapping_add(v));
                let want = match model.get_mut(&k) {
                    Some(x) => {
                        *x = x.wrapping_add(v);
                        true
                    }
                    None => false,
                };
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(striped.len(), model.len());
        }
        // Every modelled key reads back its value without a new insert.
        for (&k, &v) in &model {
            prop_assert_eq!(striped.get_or_insert_with(k, || u32::MAX), v);
        }
        prop_assert_eq!(striped.len(), model.len());
    }

    #[test]
    fn bounded_topk_models_sorting(items in vec((0u64..500, 0u32..10_000), 0..300), k in 1usize..20) {
        let mut heap = BoundedTopK::new(k);
        for &(s, d) in &items {
            heap.offer(s, d);
        }
        let got: Vec<(u64, u32)> = heap
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.score, e.item))
            .collect();
        let mut want = items;
        want.sort_by(|a, b| b.cmp(a));
        want.dedup();
        // Reference: sort desc by (score, item), take k distinct pairs.
        let mut seen = std::collections::HashSet::new();
        let want: Vec<(u64, u32)> = want
            .into_iter()
            .filter(|p| seen.insert(*p))
            .take(k)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn disk_round_trip_arbitrary_lists(lists in vec(vec((0u32..5000, 1u32..100_000), 0..200), 1..5)) {
        let lists: Vec<Vec<sparta::index::Posting>> = lists
            .into_iter()
            .map(|mut ps| {
                ps.sort_by_key(|&(d, _)| d);
                ps.dedup_by_key(|&mut (d, _)| d);
                ps.into_iter().map(|(d, s)| sparta::index::Posting::new(d, s)).collect()
            })
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "sparta-prop-{}-{:x}",
            std::process::id(),
            lists.iter().map(|l| l.len()).sum::<usize>()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut w = sparta::index::storage::IndexWriter::create(&dir, 5000, lists.len() as u32, 8).unwrap();
            for l in &lists {
                w.add_term(l.clone()).unwrap();
            }
            w.finish().unwrap();
        }
        let disk = DiskIndex::open(&dir, IoModel::free()).unwrap();
        let mem = InMemoryIndex::with_block_size(lists, 5000, 8);
        for t in 0..mem.num_terms() {
            let mut a = disk.score_cursor(t);
            let mut b = mem.score_cursor(t);
            loop {
                let (x, y) = (a.next(), b.next());
                prop_assert_eq!(x, y);
                if x.is_none() {
                    break;
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn synthetic_corpus_invariants(seed in 0u64..1000) {
        let model = CorpusModel {
            num_docs: 500,
            vocab_size: 120,
            zipf_exponent: 1.0,
            max_rate: 0.3,
            target_avg_doc_len: 40.0,
            seed,
        };
        let corpus = SynthCorpus::build(model);
        let stats = corpus.stats();
        prop_assert_eq!(stats.num_docs, 500);
        let mut df_sum = 0u64;
        corpus.for_each_term(|t, ps| {
            assert!(ps.windows(2).all(|w| w[0].0 < w[1].0), "term {t} unsorted");
            assert_eq!(stats.df(t) as usize, ps.len(), "df mismatch term {t}");
            df_sum += ps.len() as u64;
        });
        prop_assert!(df_sum > 0);
        // Average doc length within 30% of the target on any seed.
        prop_assert!((stats.avg_doc_len - 40.0).abs() < 12.0, "avgdl {}", stats.avg_doc_len);
    }
}
