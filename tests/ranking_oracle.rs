//! An independent oracle for the ranking kernel.
//!
//! The oracle recomputes the cosine measure of §2 from raw
//! `(document, term) → f_dt` counts of the analyzed text, held in a
//! `BTreeMap`: `f_t` and `N` are counted, each document's sum is built by
//! adding `w_qt · w_dt` in query-term order, and every matching document
//! is fully sorted. It shares only the weight formulas with the engine —
//! no inverted list, accumulator, weight table or top-`k` selection — so
//! `rank`, `rank_all` and `rank_with_scratch` must reproduce it bit for
//! bit.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use teraphim::engine::ranking::{self, RankScratch, ScoredDoc, WeightedTerm};
use teraphim::engine::Collection;
use teraphim::index::similarity::{w_dt, w_qt};
use teraphim::index::{DocId, TermId};
use teraphim::text::sgml::TrecDoc;

const WORDS: &[&str] = &[
    "apple", "berry", "cedar", "delta", "ember", "fjord", "grove", "harbor", "island", "jungle",
];

/// Raw statistics of a collection indexed in one or more batches.
struct Counts {
    /// `(doc, term id) → f_dt` over the analyzed documents.
    f_dt: BTreeMap<(DocId, TermId), u32>,
    /// `W_d = sqrt(Σ w_dt²)` per document. The squares are summed in the
    /// order in which the document's indexing batch first met each term:
    /// the order a batch's index builder numbers terms in, and so the
    /// order its weights table was summed in, whether the batch was the
    /// first one or appended later.
    w_d: Vec<f64>,
}

fn raw_counts(collection: &Collection, batches: &[&[String]]) -> Counts {
    let mut f_dt = BTreeMap::new();
    let mut w_d = Vec::new();
    for batch in batches {
        let mut first_met: HashMap<String, usize> = HashMap::new();
        for text in batch.iter() {
            let doc = w_d.len() as DocId;
            let mut by_first_met: BTreeMap<usize, u32> = BTreeMap::new();
            for term in collection.analyzer().analyze(text) {
                let id = collection
                    .index()
                    .vocab()
                    .term_id(&term)
                    .expect("indexed term");
                *f_dt.entry((doc, id)).or_insert(0) += 1;
                let next = first_met.len();
                *by_first_met
                    .entry(*first_met.entry(term).or_insert(next))
                    .or_insert(0) += 1;
            }
            let squares = by_first_met
                .values()
                .map(|&f| w_dt(u64::from(f)) * w_dt(u64::from(f)));
            w_d.push(squares.sum::<f64>().sqrt());
        }
    }
    Counts { f_dt, w_d }
}

/// The query's `(term, w_qt)` pairs, in query order, from raw counts.
fn oracle_weights(
    collection: &Collection,
    counts: &Counts,
    query: &[(String, u32)],
) -> Vec<(TermId, f64)> {
    query
        .iter()
        .filter_map(|(term, f_qt)| {
            let id = collection.index().vocab().term_id(term)?;
            let f_t = counts.f_dt.keys().filter(|&&(_, t)| t == id).count() as u64;
            let w = w_qt(u64::from(*f_qt), counts.w_d.len() as u64, f_t);
            (w > 0.0).then_some((id, w))
        })
        .collect()
}

/// The naive cosine ranking of every matching document.
fn oracle_rank(counts: &Counts, weights: &[(TermId, f64)]) -> Vec<(DocId, f64)> {
    let qnorm = weights.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
    let mut hits = Vec::new();
    for (doc, &wd) in counts.w_d.iter().enumerate() {
        let doc = doc as DocId;
        let mut sum = 0.0;
        let mut matched = false;
        for &(term, w) in weights {
            if let Some(&f_dt) = counts.f_dt.get(&(doc, term)) {
                sum += w * w_dt(u64::from(f_dt));
                matched = true;
            }
        }
        if matched && wd > 0.0 && qnorm > 0.0 {
            hits.push((doc, sum / (wd * qnorm)));
        }
    }
    hits.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    hits
}

fn bits(ranking: &[ScoredDoc]) -> Vec<(DocId, u64)> {
    ranking.iter().map(|h| (h.doc, h.score.to_bits())).collect()
}

fn oracle_bits(ranking: &[(DocId, f64)], k: usize) -> Vec<(DocId, u64)> {
    ranking
        .iter()
        .take(k)
        .map(|&(d, s)| (d, s.to_bits()))
        .collect()
}

fn trec(texts: &[String], from: usize) -> Vec<TrecDoc> {
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| TrecDoc {
            docno: format!("D-{}", from + i),
            text: text.clone(),
        })
        .collect()
}

/// Checks every ranking entry point against the oracle for `query`.
fn assert_matches_oracle(
    collection: &Collection,
    batches: &[&[String]],
    query: &[(String, u32)],
    k: usize,
    scratch: &mut RankScratch,
) -> Result<(), TestCaseError> {
    let counts = raw_counts(collection, batches);
    prop_assert_eq!(collection.num_docs(), counts.w_d.len() as u64);
    let oracle_w = oracle_weights(collection, &counts, query);
    let expected = oracle_rank(&counts, &oracle_w);

    let index = collection.index();
    let pairs: Vec<(TermId, u32)> = query
        .iter()
        .filter_map(|(t, f)| index.vocab().term_id(t).map(|id| (id, *f)))
        .collect();
    let weights = ranking::local_weights(index, &pairs);
    let engine_w: Vec<(TermId, u64)> = weights.iter().map(|w| (w.term, w.w_qt.to_bits())).collect();
    let oracle_w_bits: Vec<(TermId, u64)> =
        oracle_w.iter().map(|&(t, w)| (t, w.to_bits())).collect();
    prop_assert_eq!(engine_w, oracle_w_bits);

    prop_assert_eq!(
        bits(&ranking::rank_all(index, &weights)),
        oracle_bits(&expected, usize::MAX)
    );
    prop_assert_eq!(
        bits(&ranking::rank(index, &weights, k)),
        oracle_bits(&expected, k)
    );
    let reused = ranking::rank_with_scratch(index, &weights, k, scratch).unwrap();
    prop_assert_eq!(bits(&reused), oracle_bits(&expected, k));
    Ok(())
}

fn texts_strategy(docs: std::ops::Range<usize>) -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), 1..12), docs).prop_map(
        |docs| {
            docs.into_iter()
                .map(|words| {
                    words
                        .into_iter()
                        .map(|w| WORDS[w])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        },
    )
}

proptest! {
    #[test]
    fn rankings_equal_the_naive_cosine_bit_for_bit(
        texts in texts_strategy(1..40),
        more in texts_strategy(1..40),
        raw_query in proptest::collection::vec((0usize..WORDS.len() + 1, 1u32..4), 1..8),
        k in 0usize..50,
    ) {
        // Query terms in arbitrary order, repeats allowed; index
        // WORDS.len() stands for a word no document contains.
        let analyzer = teraphim::text::Analyzer::default();
        let query: Vec<(String, u32)> = raw_query
            .iter()
            .map(|&(w, f)| {
                let word = WORDS.get(w).copied().unwrap_or("quasar");
                (analyzer.analyze(word).remove(0), f)
            })
            .collect();

        // One scratch across three collections: small, then grown by
        // append_documents (N increases), then a fresh smaller one.
        let mut scratch = RankScratch::new();
        let mut collection = Collection::build("oracle", analyzer.clone(), &trec(&texts, 0));
        assert_matches_oracle(&collection, &[&texts], &query, k, &mut scratch)?;

        collection.append_documents(&trec(&more, texts.len())).unwrap();
        assert_matches_oracle(&collection, &[&texts, &more], &query, k, &mut scratch)?;

        let small = Collection::build("small", analyzer, &trec(&more, 0));
        assert_matches_oracle(&small, &[&more], &query, k, &mut scratch)?;
    }
}

#[test]
fn repeated_query_terms_add_in_query_order() {
    let texts = vec!["apple berry".to_owned(), "berry berry cedar".to_owned()];
    let collection = Collection::build("r", Default::default(), &trec(&texts, 0));
    let index = collection.index();
    let berry = collection.analyzer().analyze("berry").remove(0);
    let berry = index.vocab().term_id(&berry).unwrap();
    let terms = [
        WeightedTerm {
            term: berry,
            w_qt: 0.5,
        },
        WeightedTerm {
            term: berry,
            w_qt: 0.25,
        },
    ];
    let hits = ranking::rank_all(index, &terms);
    assert_eq!(hits.len(), 2);
    let counts = raw_counts(&collection, &[&texts]);
    let expected = oracle_rank(&counts, &[(berry, 0.5), (berry, 0.25)]);
    assert_eq!(bits(&hits), oracle_bits(&expected, usize::MAX));
}
