//! Reproduces the §5 thresholding discussion:
//!
//! * Persin et al.'s *query-time* thresholding — "the volume of index
//!   information processed can be reduced by a factor of five without
//!   reducing effectiveness" — via accumulator-limited evaluation
//!   (`teraphim_engine::thresholding`);
//! * the paper's own preliminary finding that *static* index pruning
//!   "that only reduced index size by a third severely degraded
//!   effectiveness" (`teraphim_index::pruning`).
//!
//! ```sh
//! cargo run --release -p teraphim-bench --bin thresholding [-- --small]
//! ```

use teraphim_bench::{HarnessOptions, TextTable};
use teraphim_corpus::SyntheticCorpus;
use teraphim_engine::ranking::{local_weights, rank};
use teraphim_engine::thresholding::{rank_limited, LimitMode};
use teraphim_engine::Collection;
use teraphim_eval::{Judgments, QueryEval, SetEval};
use teraphim_index::pruning::{prune, PruneParams};
use teraphim_index::InvertedIndex;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

fn mono(corpus: &SyntheticCorpus) -> Collection {
    let all: Vec<TrecDoc> = corpus
        .subcollections()
        .iter()
        .flat_map(|s| s.docs.iter().cloned())
        .collect();
    Collection::build("MS", Analyzer::default(), &all)
}

/// Evaluates rankings produced by `run` over the short query set.
fn effectiveness<F>(
    corpus: &SyntheticCorpus,
    col: &Collection,
    judgments: &Judgments,
    mut run: F,
) -> SetEval
where
    F: FnMut(&Collection, &str) -> Vec<teraphim_engine::ScoredDoc>,
{
    let depth_evals: Vec<QueryEval> = corpus
        .short_queries()
        .iter()
        .map(|q| {
            let hits = run(col, &q.text);
            let docnos: Vec<String> = hits.iter().map(|h| col.docno(h.doc).to_owned()).collect();
            QueryEval::evaluate(judgments, q.id, &docnos)
        })
        .collect();
    SetEval::from_evals(&depth_evals)
}

fn main() {
    let opts = HarnessOptions::from_args();
    let corpus = opts.corpus();
    let judgments = Judgments::from_qrels(&corpus.qrels());
    let col = mono(&corpus);
    let depth = 1000.min(corpus.spec().total_docs());

    // ---------------- query-time thresholding ----------------
    println!("Query-time thresholding (quit/continue accumulator limiting)\n");
    let exact = effectiveness(&corpus, &col, &judgments, |c, q| c.ranked_query(q, depth));
    let exact_postings: u64 = corpus
        .short_queries()
        .iter()
        .map(|q| {
            let pairs = col.analyze_query(&q.text);
            let w = local_weights(col.index(), &pairs);
            rank_limited(col.index(), &w, depth, usize::MAX, LimitMode::Continue)
                .expect("in-memory index is well-formed")
                .postings_processed
        })
        .sum();

    let mut table = TextTable::new([
        "accumulators",
        "mode",
        "postings",
        "reduction",
        "11-pt %",
        "rel@20",
    ]);
    table.row([
        "unlimited".to_string(),
        "-".to_string(),
        exact_postings.to_string(),
        "1.0x".to_string(),
        format!("{:.2}", exact.eleven_point_pct),
        format!("{:.1}", exact.relevant_in_top_20),
    ]);
    for budget in [2000usize, 500, 100] {
        for mode in [LimitMode::Continue, LimitMode::Quit] {
            let mut postings = 0u64;
            let set = effectiveness(&corpus, &col, &judgments, |c, q| {
                let pairs = c.analyze_query(q);
                let w = local_weights(c.index(), &pairs);
                let limited = rank_limited(c.index(), &w, depth, budget, mode)
                    .expect("in-memory index is well-formed");
                postings += limited.postings_processed;
                limited.hits
            });
            table.row([
                budget.to_string(),
                format!("{mode:?}"),
                postings.to_string(),
                format!("{:.1}x", exact_postings as f64 / postings.max(1) as f64),
                format!("{:.2}", set.eleven_point_pct),
                format!("{:.1}", set.relevant_in_top_20),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Shape checks: modest budgets cut postings processed several-fold with \
         little effectiveness loss (Persin et al.'s 'factor of five'); tiny \
         budgets start to hurt.\n"
    );

    // ---------------- static index pruning ----------------
    println!("Static index pruning (drop low-f_dt postings of common terms)\n");
    let mut table = TextTable::new(["min f_dt", "index size", "11-pt %", "rel@20"]);
    table.row([
        "unpruned".to_string(),
        "100.0%".to_string(),
        format!("{:.2}", exact.eleven_point_pct),
        format!("{:.1}", exact.relevant_in_top_20),
    ]);
    for min_f_dt in [2u32, 3, 5] {
        let (pruned, report) = prune(
            col.index(),
            PruneParams {
                min_f_dt,
                common_df_cutoff: 16,
            },
        )
        .expect("prune");
        let set = effectiveness(&corpus, &col, &judgments, |c, q| {
            let pairs = c.analyze_query(q);
            let w: Vec<_> = local_weights(&pruned, &pairs);
            rank_on(&pruned, &w, depth)
        });
        table.row([
            min_f_dt.to_string(),
            format!("{:.1}%", 100.0 * report.size_ratio()),
            format!("{:.2}", set.eleven_point_pct),
            format!("{:.1}", set.relevant_in_top_20),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Shape checks: pruning that removes roughly a third of the postings \
         volume costs substantially more effectiveness than query-time \
         thresholding at comparable savings — the paper's reason for \
         deferring it to future work."
    );
}

fn rank_on(
    index: &InvertedIndex,
    weighted: &[teraphim_engine::ranking::WeightedTerm],
    depth: usize,
) -> Vec<teraphim_engine::ScoredDoc> {
    rank(index, weighted, depth)
}
