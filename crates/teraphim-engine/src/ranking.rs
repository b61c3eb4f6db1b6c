//! Accumulator-based ranked query evaluation.
//!
//! For each query term the inverted list is decoded and each posting
//! contributes `w_qt · w_dt` to the document's accumulator; final scores
//! divide by the document weight `W_d` and the query norm, yielding the
//! cosine measure of §2. The top `k` are then selected.
//!
//! The kernel is exact. Accumulators are a dense array indexed by
//! document id, so each document's sum is still built by adding its
//! contributions in query-term order, starting from `0.0`; `w_dt` comes
//! from a table that [`w_dt`] itself filled. Documents are then visited
//! in first-touch order, but [`ScoredDoc::ranking_cmp`] is a total order
//! over distinct documents, so the selected top `k` and its order do not
//! depend on the visiting order. Scores are bit-identical to summing in
//! a map and sorting everything.
//!
//! Query-term weights can come from two places:
//!
//! * [`local_weights`] — computed from the collection's own `N` and
//!   `f_t` (mono-server and Central Nothing);
//! * any externally supplied weights (Central Vocabulary / Central
//!   Index), in which case two librarians holding different
//!   subcollections produce *directly comparable* scores.

use std::cmp::Ordering;
use std::sync::OnceLock;

use crate::EngineError;
use teraphim_index::similarity::{query_norm, w_dt, w_qt};
use teraphim_index::{DocId, InvertedIndex, TermId};

/// A query term with its (possibly global) weight `w_qt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedTerm {
    /// Term id in the *target collection's* vocabulary.
    pub term: TermId,
    /// The query weight to apply.
    pub w_qt: f64,
}

/// A scored document. Ordered by descending score with ascending-id tie
/// break so that rankings are total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// Local document id.
    pub doc: DocId,
    /// Cosine similarity with the query.
    pub score: f64,
}

impl ScoredDoc {
    /// Ranking order: higher score first; ties broken by smaller doc id.
    /// NaN scores order strictly last (then by doc id) so the comparison
    /// stays a total order even on pathological inputs — treating NaN as
    /// equal to everything would make sort results depend on input order.
    pub fn ranking_cmp(&self, other: &Self) -> Ordering {
        match (self.score.is_nan(), other.score.is_nan()) {
            (false, false) => other
                .score
                .partial_cmp(&self.score)
                .unwrap_or(Ordering::Equal)
                .then(self.doc.cmp(&other.doc)),
            (true, true) => self.doc.cmp(&other.doc),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
        }
    }
}

/// In-document frequencies below this bound take `w_dt` from the table.
const W_DT_TABLE_LEN: usize = 256;

/// `w_dt = ln(f_dt + 1)` for small `f_dt`, looked up instead of
/// computed. The table is filled by [`w_dt`] itself, so every entry is
/// the exact value the function returns; larger frequencies call it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WdtTable(&'static [f64; W_DT_TABLE_LEN]);

impl WdtTable {
    /// The process-wide table, filled on first use.
    pub(crate) fn get() -> WdtTable {
        static TABLE: OnceLock<[f64; W_DT_TABLE_LEN]> = OnceLock::new();
        WdtTable(TABLE.get_or_init(|| std::array::from_fn(|f| w_dt(f as u64))))
    }

    /// `w_dt(f_dt)`, bit for bit.
    #[inline]
    pub(crate) fn w_dt(self, f_dt: u32) -> f64 {
        match self.0.get(f_dt as usize) {
            Some(&w) => w,
            None => w_dt(u64::from(f_dt)),
        }
    }
}

/// Dense per-document accumulators: `sums[d] = Σ w_qt · w_dt` for the
/// documents in `touched`, which lists each touched document once, in
/// first-touch order. Between queries every sum is `0.0` and every `seen`
/// flag is false, so a query only pays for the documents it touches.
#[derive(Debug, Default)]
pub(crate) struct Accumulators {
    sums: Vec<f64>,
    seen: Vec<bool>,
    touched: Vec<DocId>,
    /// Documents in the current collection; postings beyond it are
    /// corrupt.
    num_docs: usize,
}

impl Accumulators {
    /// Clears whatever an earlier (possibly failed) query left and sizes
    /// the arrays for a collection of `num_docs` documents.
    pub(crate) fn begin(&mut self, num_docs: usize) {
        self.reset();
        if self.sums.len() < num_docs {
            self.sums.resize(num_docs, 0.0);
            self.seen.resize(num_docs, false);
        }
        self.num_docs = num_docs;
    }

    fn reset(&mut self) {
        for &doc in &self.touched {
            self.sums[doc as usize] = 0.0;
            self.seen[doc as usize] = false;
        }
        self.touched.clear();
    }

    /// The accumulator of `doc`, created at `0.0` if the query had not
    /// touched it yet.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Corrupt`] if `doc` is outside the
    /// collection.
    #[inline]
    pub(crate) fn touch(&mut self, doc: DocId) -> Result<&mut f64, EngineError> {
        let i = doc as usize;
        if i >= self.num_docs {
            return Err(EngineError::Corrupt(
                "posting names a document outside the collection",
            ));
        }
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(doc);
        }
        Ok(&mut self.sums[i])
    }

    /// The accumulator of `doc` if the query already touched it.
    #[inline]
    pub(crate) fn get_mut(&mut self, doc: DocId) -> Option<&mut f64> {
        let i = doc as usize;
        (i < self.num_docs && self.seen[i]).then(|| &mut self.sums[i])
    }

    /// Number of documents touched so far.
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// Appends each touched document's cosine score (sum over `W_d` and
    /// the query norm; documents with `W_d = 0`, and every document when
    /// the norm is not positive, are left out) and resets the
    /// accumulators for the next query.
    pub(crate) fn score_into(
        &mut self,
        index: &InvertedIndex,
        qnorm: f64,
        out: &mut Vec<ScoredDoc>,
    ) {
        let weights = index.weights();
        for &doc in &self.touched {
            let wd = weights.weight(doc);
            if wd > 0.0 && qnorm > 0.0 {
                out.push(ScoredDoc {
                    doc,
                    score: self.sums[doc as usize] / (wd * qnorm),
                });
            }
        }
        self.reset();
    }
}

/// Reusable working memory for repeated ranking calls.
///
/// A librarian answers a stream of subqueries. One `RankScratch` owned by
/// the librarian holds a dense accumulator array with one slot per
/// document (plus a touched-document list, so clearing costs only what a
/// query touched) and, for Central Index candidate scoring, the
/// candidate and partial-sum buffers. The arrays grow with the
/// collection and keep their capacity across queries. Every entry point
/// clears what an earlier call left — including one that stopped at a
/// corrupt list — so results never depend on previous queries, and one
/// scratch can serve collections of different sizes.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// Dense accumulators for full-list ranking.
    acc: Accumulators,
    /// Scored documents before top-`k` selection; the answer is copied
    /// out at its exact length.
    scored: Vec<ScoredDoc>,
    /// Sorted candidate ids (Central Index scoring).
    pub(crate) candidates: Vec<DocId>,
    /// Per-candidate partial sums, parallel to `candidates`.
    pub(crate) sums: Vec<f64>,
}

impl RankScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes local query weights `w_qt = ln(f_qt + 1) · ln(N/f_t + 1)`
/// from the collection's own statistics.
pub fn local_weights(index: &InvertedIndex, terms: &[(TermId, u32)]) -> Vec<WeightedTerm> {
    let n = index.stats().num_docs();
    terms
        .iter()
        .filter_map(|&(term, f_qt)| {
            let f_t = index.stats().doc_freq(term);
            let w = w_qt(u64::from(f_qt), n, f_t);
            (w > 0.0).then_some(WeightedTerm { term, w_qt: w })
        })
        .collect()
}

/// Evaluates the cosine measure over the whole collection and returns the
/// top `k` documents in ranking order. The query norm is computed from
/// the supplied terms.
///
/// # Panics
///
/// Panics if an inverted list is corrupt. Indexes built in this process
/// never are; [`rank_with_scratch`] reports corruption as an error.
pub fn rank(index: &InvertedIndex, terms: &[WeightedTerm], k: usize) -> Vec<ScoredDoc> {
    rank_with_scratch(index, terms, k, &mut RankScratch::new())
        .expect("inverted list is corrupt; the _scratch variant returns this error")
}

/// [`rank`] with an explicit query norm.
///
/// In distributed evaluation the norm must cover *every* weighted query
/// term — including terms absent from this particular subcollection's
/// vocabulary — or librarians would normalize by different denominators
/// and their scores would stop being comparable. The receptionist
/// therefore computes the norm once, globally, and supplies it.
///
/// # Panics
///
/// Panics if an inverted list is corrupt (see [`rank`]).
pub fn rank_with_norm(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    qnorm: f64,
    k: usize,
) -> Vec<ScoredDoc> {
    rank_with_norm_scratch(index, terms, qnorm, k, &mut RankScratch::new())
        .expect("inverted list is corrupt; the _scratch variant returns this error")
}

/// [`rank`] reusing caller-owned scratch buffers across calls.
///
/// # Errors
///
/// Returns [`EngineError::Corrupt`] if an inverted list fails to decode
/// or names a document outside the collection.
pub fn rank_with_scratch(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    k: usize,
    scratch: &mut RankScratch,
) -> Result<Vec<ScoredDoc>, EngineError> {
    let qnorm = query_norm(&terms.iter().map(|t| t.w_qt).collect::<Vec<_>>());
    rank_with_norm_scratch(index, terms, qnorm, k, scratch)
}

/// [`rank_with_norm`] reusing caller-owned scratch buffers across calls.
///
/// # Errors
///
/// Returns [`EngineError::Corrupt`] if an inverted list fails to decode
/// or names a document outside the collection.
pub fn rank_with_norm_scratch(
    index: &InvertedIndex,
    terms: &[WeightedTerm],
    qnorm: f64,
    k: usize,
    scratch: &mut RankScratch,
) -> Result<Vec<ScoredDoc>, EngineError> {
    let table = WdtTable::get();
    let acc = &mut scratch.acc;
    acc.begin(index.weights().len());
    for wt in terms {
        if wt.w_qt == 0.0 {
            continue;
        }
        for posting in index.postings(wt.term).iter() {
            let posting = posting?;
            *acc.touch(posting.doc)? += wt.w_qt * table.w_dt(posting.f_dt);
        }
    }
    let scored = &mut scratch.scored;
    scored.clear();
    acc.score_into(index, qnorm, scored);
    select_top(scored, k);
    Ok(scored.clone())
}

/// Evaluates the cosine measure and returns *all* matching documents in
/// ranking order (used when the caller needs the complete ranking, e.g.
/// effectiveness evaluation at 1000 retrieved).
///
/// # Panics
///
/// Panics if an inverted list is corrupt (see [`rank`]).
pub fn rank_all(index: &InvertedIndex, terms: &[WeightedTerm]) -> Vec<ScoredDoc> {
    rank(index, terms, usize::MAX)
}

/// Keeps the best `k` of `scored`, in ranking order. Every document
/// appears once, so `ranking_cmp` never ties and the result is the same
/// whatever order `scored` arrived in.
pub(crate) fn select_top(scored: &mut Vec<ScoredDoc>, k: usize) {
    if scored.len() > k {
        scored.select_nth_unstable_by(k, ScoredDoc::ranking_cmp);
        scored.truncate(k);
    }
    scored.sort_unstable_by(ScoredDoc::ranking_cmp);
}

/// Merges several already-ranked lists into a single ranking of length at
/// most `k`, comparing scores at face value — exactly what a Central
/// Nothing / Central Vocabulary receptionist does with librarian
/// rankings. Entries carry an ordered payload (e.g. librarian id) which
/// serves as the final tie break, making the order *total*: the merged
/// ranking is independent of list order, so a receptionist folding in
/// replies as they arrive from concurrent librarians gets byte-identical
/// results to a sequential pass.
pub fn merge_rankings<T: Copy + Ord>(
    lists: &[Vec<(ScoredDoc, T)>],
    k: usize,
) -> Vec<(ScoredDoc, T)> {
    let mut all: Vec<(ScoredDoc, T)> = lists.iter().flatten().copied().collect();
    all.sort_by(|a, b| a.0.ranking_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraphim_index::IndexBuilder;

    fn index_of(docs: &[&[&str]]) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for d in docs {
            let terms: Vec<String> = d.iter().map(|s| (*s).to_owned()).collect();
            b.add_document(&terms);
        }
        b.build()
    }

    fn tid(ix: &InvertedIndex, t: &str) -> TermId {
        ix.vocab().term_id(t).unwrap()
    }

    #[test]
    fn single_term_ranking_orders_by_frequency_over_length() {
        let ix = index_of(&[
            &["cat"],                      // short, f=1
            &["cat", "cat", "cat", "cat"], // f=4 but longer
            &["cat", "dog", "emu", "fox"], // f=1, long
        ]);
        let terms = vec![(tid(&ix, "cat"), 1u32)];
        let ranking = rank(&ix, &local_weights(&ix, &terms), 10);
        assert_eq!(ranking.len(), 3);
        // Doc 0 (pure "cat") and doc 1 (all cats) both have cosine 1.0;
        // tie-break puts doc 0 first; doc 2 is diluted.
        assert_eq!(ranking[0].doc, 0);
        assert_eq!(ranking[1].doc, 1);
        assert_eq!(ranking[2].doc, 2);
        assert!((ranking[0].score - 1.0).abs() < 1e-9);
        assert!((ranking[1].score - 1.0).abs() < 1e-9);
        assert!(ranking[2].score < 1.0);
    }

    #[test]
    fn multi_term_queries_reward_coverage() {
        let ix = index_of(&[&["cat", "dog"], &["cat", "cat"], &["dog", "dog"]]);
        let terms = vec![(tid(&ix, "cat"), 1u32), (tid(&ix, "dog"), 1u32)];
        let ranking = rank(&ix, &local_weights(&ix, &terms), 10);
        assert_eq!(ranking[0].doc, 0, "doc containing both terms wins");
    }

    #[test]
    fn rank_k_zero_is_empty() {
        let ix = index_of(&[&["a"]]);
        let terms = vec![(tid(&ix, "a"), 1u32)];
        assert!(rank(&ix, &local_weights(&ix, &terms), 0).is_empty());
    }

    #[test]
    fn rank_respects_k() {
        let docs: Vec<Vec<&str>> = (0..20).map(|_| vec!["x"]).collect();
        let refs: Vec<&[&str]> = docs.iter().map(Vec::as_slice).collect();
        let ix = index_of(&refs);
        let terms = vec![(tid(&ix, "x"), 1u32)];
        let w = local_weights(&ix, &terms);
        assert_eq!(rank(&ix, &w, 5).len(), 5);
        assert_eq!(rank_all(&ix, &w).len(), 20);
    }

    #[test]
    fn top_k_matches_full_sort() {
        let ix = index_of(&[
            &["a", "b"],
            &["a"],
            &["a", "a", "b"],
            &["b"],
            &["a", "c"],
            &["c", "b", "a"],
        ]);
        let terms = vec![(tid(&ix, "a"), 1u32), (tid(&ix, "b"), 2u32)];
        let w = local_weights(&ix, &terms);
        let full = rank_all(&ix, &w);
        for k in 0..=full.len() {
            let partial = rank(&ix, &w, k);
            assert_eq!(&full[..k.min(full.len())], partial.as_slice(), "k={k}");
        }
    }

    #[test]
    fn scores_are_cosine_bounded() {
        let ix = index_of(&[&["a", "b", "c"], &["a", "a"], &["b"]]);
        let terms = vec![(tid(&ix, "a"), 3u32), (tid(&ix, "b"), 1u32)];
        for s in rank_all(&ix, &local_weights(&ix, &terms)) {
            assert!(s.score > 0.0 && s.score <= 1.0 + 1e-9, "score {}", s.score);
        }
    }

    #[test]
    fn unmatched_terms_contribute_nothing() {
        let ix = index_of(&[&["a"]]);
        // Term "a" plus a zero-weight entry.
        let weighted = vec![
            WeightedTerm {
                term: tid(&ix, "a"),
                w_qt: 1.0,
            },
            WeightedTerm {
                term: tid(&ix, "a"),
                w_qt: 0.0,
            },
        ];
        let ranking = rank(&ix, &weighted, 10);
        assert_eq!(ranking.len(), 1);
    }

    #[test]
    fn local_weights_drop_absent_terms() {
        let ix = index_of(&[&["a"]]);
        // Seeded vocabulary quirk: ask about a term with f_t = 0 by using
        // an id beyond any postings.
        let w = local_weights(&ix, &[(0, 1), (999, 1)]);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn ranking_cmp_is_total_and_deterministic() {
        let a = ScoredDoc { doc: 1, score: 0.5 };
        let b = ScoredDoc { doc: 2, score: 0.5 };
        let c = ScoredDoc { doc: 3, score: 0.9 };
        assert_eq!(a.ranking_cmp(&b), Ordering::Less);
        assert_eq!(b.ranking_cmp(&a), Ordering::Greater);
        assert_eq!(c.ranking_cmp(&a), Ordering::Less);
        assert_eq!(a.ranking_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn nan_scores_order_last_deterministically() {
        let real = ScoredDoc { doc: 9, score: 0.1 };
        let nan_a = ScoredDoc {
            doc: 1,
            score: f64::NAN,
        };
        let nan_b = ScoredDoc {
            doc: 2,
            score: f64::NAN,
        };
        assert_eq!(real.ranking_cmp(&nan_a), Ordering::Less);
        assert_eq!(nan_a.ranking_cmp(&real), Ordering::Greater);
        assert_eq!(nan_a.ranking_cmp(&nan_b), Ordering::Less);
        assert_eq!(nan_b.ranking_cmp(&nan_a), Ordering::Greater);
        assert_eq!(nan_a.ranking_cmp(&nan_a), Ordering::Equal);

        // Sorting any permutation yields the same ranking: reals by
        // score, then NaNs by doc id.
        let mut docs = [nan_b, real, nan_a];
        docs.sort_by(ScoredDoc::ranking_cmp);
        assert_eq!(docs[0].doc, 9);
        assert_eq!(docs[1].doc, 1);
        assert_eq!(docs[2].doc, 2);
    }

    #[test]
    fn merge_rankings_is_independent_of_list_order() {
        // Two librarians report identical (score, doc) pairs; the
        // librarian payload breaks the tie, so either arrival order
        // merges to the same ranking.
        let l1 = vec![(ScoredDoc { doc: 4, score: 0.5 }, 0u32)];
        let l2 = vec![(ScoredDoc { doc: 4, score: 0.5 }, 1u32)];
        let ab = merge_rankings(&[l1.clone(), l2.clone()], 2);
        let ba = merge_rankings(&[l2, l1], 2);
        assert_eq!(ab, ba);
        assert_eq!(ab[0].1, 0);
        assert_eq!(ab[1].1, 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let ix = index_of(&[&["a", "b"], &["a"], &["b", "b", "c"], &["c"]]);
        let mut scratch = RankScratch::new();
        for query in [vec![("a", 1u32)], vec![("b", 2), ("c", 1)], vec![("a", 1)]] {
            let terms: Vec<(TermId, u32)> = query.iter().map(|&(t, f)| (tid(&ix, t), f)).collect();
            let w = local_weights(&ix, &terms);
            let fresh = rank(&ix, &w, 10);
            let reused = rank_with_scratch(&ix, &w, 10, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn merge_rankings_interleaves_by_score() {
        let l1 = vec![
            (ScoredDoc { doc: 0, score: 0.9 }, 0u32),
            (ScoredDoc { doc: 1, score: 0.3 }, 0u32),
        ];
        let l2 = vec![
            (ScoredDoc { doc: 0, score: 0.7 }, 1u32),
            (ScoredDoc { doc: 1, score: 0.1 }, 1u32),
        ];
        let merged = merge_rankings(&[l1, l2], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!((merged[0].0.doc, merged[0].1), (0, 0));
        assert_eq!((merged[1].0.doc, merged[1].1), (0, 1));
        assert_eq!((merged[2].0.doc, merged[2].1), (1, 0));
    }

    #[test]
    fn merge_rankings_empty_inputs() {
        let merged: Vec<(ScoredDoc, u32)> = merge_rankings(&[], 5);
        assert!(merged.is_empty());
        let merged: Vec<(ScoredDoc, u32)> = merge_rankings(&[vec![], vec![]], 5);
        assert!(merged.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use teraphim_index::IndexBuilder;

    proptest! {
        #[test]
        fn top_k_agrees_with_exhaustive_sort(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-d]", 1..8),
                1..30,
            ),
            k in 0usize..40,
        ) {
            let mut b = IndexBuilder::new();
            for d in &docs {
                b.add_document(d);
            }
            let ix = b.build();
            let terms: Vec<(teraphim_index::TermId, u32)> = ix
                .vocab()
                .iter()
                .map(|(id, _)| (id, 1u32))
                .collect();
            let w = local_weights(&ix, &terms);
            let full = rank_all(&ix, &w);
            let partial = rank(&ix, &w, k);
            prop_assert_eq!(&full[..k.min(full.len())], partial.as_slice());
        }
    }
}
