//! `sparta-cli` — index plain text and search it from the shell.
//!
//! ```sh
//! # Index a file (one document per line) into ./idx
//! sparta-cli index corpus.txt ./idx
//!
//! # Top-10 with Sparta (default), 4 threads
//! sparta-cli search ./idx "parallel retrieval algorithms"
//!
//! # Any algorithm from the registry, custom k/threads
//! sparta-cli search ./idx "query" --algo pbmw --k 20 --threads 8
//! ```
//!
//! The index directory holds the binary posting files plus `vocab.txt`
//! (one term per line, line number = term id) so queries can be
//! analyzed with the same vocabulary at search time.

use sparta::prelude::*;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") if args.len() >= 3 => cmd_index(&args[1], &args[2]),
        Some("search") if args.len() >= 3 => cmd_search(&args[1], &args[2], &args[3..]),
        _ => {
            eprintln!(
                "usage:\n  sparta-cli index <text-file> <index-dir>\n  \
                 sparta-cli search <index-dir> <query> [--algo NAME] [--k N] [--threads N] [--exact]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn cmd_index(text_file: &str, out_dir: &str) -> Result<(), String> {
    let file = std::fs::File::open(text_file).map_err(|e| format!("open {text_file}: {e}"))?;
    let mut tok = Tokenizer::new();
    let mut bags = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        bags.push(tok.add_document(&line));
    }
    if bags.is_empty() {
        return Err("no documents (file is empty)".into());
    }
    let stats = tok.stats();
    let builder = IndexBuilder::new(TfIdfScorer);
    // Build in memory, then persist via the streaming writer.
    let mem = builder.build_memory_from_bags(&bags, &stats);
    let mut writer = sparta::index::storage::IndexWriter::create(
        out_dir,
        stats.num_docs,
        mem.num_terms(),
        sparta::index::DEFAULT_BLOCK_SIZE,
    )
    .map_err(|e| format!("create index at {out_dir}: {e}"))?;
    for t in 0..mem.num_terms() {
        let postings = mem
            .term_data(t)
            .map(|td| td.doc_order.as_ref().clone())
            .unwrap_or_default();
        writer.add_term(postings).map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;

    // Persist the vocabulary (line number = term id).
    let mut vf = std::io::BufWriter::new(
        std::fs::File::create(Path::new(out_dir).join("vocab.txt")).map_err(|e| e.to_string())?,
    );
    for t in 0..mem.num_terms() {
        writeln!(vf, "{}", tok.term_str(t).unwrap_or("")).map_err(|e| e.to_string())?;
    }
    vf.flush().map_err(|e| e.to_string())?;

    println!(
        "indexed {} documents, {} terms -> {out_dir}",
        stats.num_docs,
        mem.num_terms()
    );
    Ok(())
}

fn cmd_search(index_dir: &str, query_text: &str, flags: &[String]) -> Result<(), String> {
    let mut algo_name = "sparta".to_string();
    let mut k = 10usize;
    let mut threads = 4usize;
    let mut exact = true;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--algo" => algo_name = it.next().ok_or("--algo needs a value")?.clone(),
            "--k" => {
                k = it
                    .next()
                    .ok_or("--k needs a value")?
                    .parse()
                    .map_err(|e| format!("--k: {e}"))?
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--exact" => exact = true,
            "--approx" => exact = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }

    let index: Arc<dyn Index> = Arc::new(
        DiskIndex::open(index_dir, IoModel::free())
            .map_err(|e| format!("open index {index_dir}: {e}"))?,
    );
    // Load the vocabulary and analyze the query the same way the
    // indexer did.
    let vocab_path = Path::new(index_dir).join("vocab.txt");
    let vocab = std::fs::read_to_string(&vocab_path)
        .map_err(|e| format!("read {}: {e}", vocab_path.display()))?;
    let term_of: std::collections::HashMap<&str, u32> = vocab
        .lines()
        .enumerate()
        .map(|(i, s)| (s, i as u32))
        .collect();
    let analyzer = Tokenizer::new();
    let terms: Vec<u32> = analyzer
        .tokenize(query_text)
        .iter()
        .filter_map(|t| term_of.get(t.as_str()).copied())
        .collect();
    if terms.is_empty() {
        return Err("no query term matches the index vocabulary".into());
    }
    let query = Query::new(terms);

    let algo = sparta::core::algorithm_by_name(&algo_name).ok_or_else(|| {
        let names: Vec<&str> = sparta::core::all_algorithms()
            .iter()
            .map(|a| a.name())
            .collect();
        format!("unknown algorithm {algo_name} (try: {})", names.join(" "))
    })?;
    let cfg = if exact {
        SearchConfig::exact(k)
    } else {
        SearchConfig::exact(k).with_delta(Some(std::time::Duration::from_millis(10)))
    };
    let exec = WorkerPool::new(threads.max(1));
    let t0 = std::time::Instant::now();
    let top = algo.search(&index, &query, &cfg, &exec);
    let dt = t0.elapsed();
    println!(
        "{} results in {:.2?} ({} postings scanned, algo {}):",
        top.hits.len(),
        dt,
        top.work.postings_scanned,
        algo.name()
    );
    for (rank, h) in top.hits.iter().enumerate() {
        println!("{:>4}. doc {:<10} score {}", rank + 1, h.doc, h.score);
    }
    Ok(())
}
