//! Independent answer checks. The oracles index the source documents
//! themselves with the engine's own `Collection`, never through a
//! librarian, receptionist or transport, and every comparison of scores
//! is bit for bit.

use teraphim_core::{FetchedDoc, GlobalHit};
use teraphim_engine::ranking::{self, ScoredDoc};
use teraphim_engine::Collection;
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// Query weights from `collection`'s own statistics, with the terms in
/// lexicographic order: the order a query's terms travel in, and so the
/// order every served answer sums them in. `Collection::ranked_query`
/// sums in term-id order instead, which changes the last bit of most
/// scores; bit-for-bit comparison needs the same order.
fn local_weights(collection: &Collection, query: &str) -> Vec<ranking::WeightedTerm> {
    let mut terms = collection.analyze_query(query);
    let vocab = collection.index().vocab();
    terms.sort_by(|a, b| vocab.term(a.0).cmp(vocab.term(b.0)));
    ranking::local_weights(collection.index(), &terms)
}

/// Relative score tolerance for answers merged from several shards (CV
/// and CI). A document's weight `W_d` is summed over its terms in its
/// index's own term order, which differs between a shard and the whole
/// collection, so these scores can differ from the mono-server score in
/// the last bits. 1e-12 is the tolerance `tests/distributed.rs` uses.
pub const MERGED_TOLERANCE: f64 = 1e-12;

/// True when `a` and `b` have identical bits, or differ by at most `tol`
/// relative to the larger.
fn same(a: f64, b: f64, tol: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= tol * a.abs().max(b.abs())
}

/// The mono-server ranking of one query over the whole collection.
pub struct MsRanking {
    /// Every matching document, best first.
    ranked: Vec<ScoredDoc>,
    /// Score per global document id; `NaN` where the query matches nothing.
    score: Vec<f64>,
}

/// Reference answers for one served collection.
pub struct Oracle {
    whole: Collection,
    /// Per-shard collections, for Central Nothing (empty when not built).
    shards: Vec<Collection>,
    /// Global id of each shard's first document.
    offsets: Vec<usize>,
    /// All source documents in global order.
    docs: Vec<TrecDoc>,
}

impl Oracle {
    /// Indexes `parts` as one whole collection (and, with `shards`, once
    /// more per part for the Central Nothing reference).
    pub fn build(parts: &[(&str, &[TrecDoc])], shards: bool) -> Oracle {
        let mut offsets = Vec::with_capacity(parts.len());
        let mut docs = Vec::new();
        for (_, part) in parts {
            offsets.push(docs.len());
            docs.extend(part.iter().cloned());
        }
        // Built beside each other, on every CPU: it is not timed.
        let (whole, shards) = crate::cpu::on_all_cpus(|| {
            std::thread::scope(|s| {
                let shards = s.spawn(|| {
                    if shards {
                        parts
                            .iter()
                            .map(|(name, part)| Collection::build(name, Analyzer::default(), part))
                            .collect()
                    } else {
                        Vec::new()
                    }
                });
                let whole = Collection::build("ORACLE", Analyzer::default(), &docs);
                (whole, shards.join().expect("oracle build thread panicked"))
            })
        });
        Oracle {
            whole,
            shards,
            offsets,
            docs,
        }
    }

    /// Global document id of shard `lib`'s local document `doc`.
    fn global(&self, lib: usize, doc: u32) -> Result<usize, String> {
        let offset = *self
            .offsets
            .get(lib)
            .ok_or_else(|| format!("hit names librarian {lib}, which does not exist"))?;
        let end = self
            .offsets
            .get(lib + 1)
            .copied()
            .unwrap_or(self.docs.len());
        let g = offset + doc as usize;
        if g < end {
            Ok(g)
        } else {
            Err(format!(
                "hit names document {doc} beyond librarian {lib}'s range"
            ))
        }
    }

    /// Re-expresses hits on the whole collection served by one librarian
    /// as hits on the shards.
    pub fn locate(&self, hits: &[GlobalHit]) -> Result<Vec<GlobalHit>, String> {
        hits.iter()
            .map(|h| {
                let g = h.doc as usize;
                if h.librarian != 0 || g >= self.docs.len() {
                    return Err(format!(
                        "hit ({}, {}) is not in the collection",
                        h.librarian, h.doc
                    ));
                }
                let lib = self.offsets.partition_point(|&o| o <= g) - 1;
                Ok(GlobalHit {
                    librarian: lib,
                    doc: (g - self.offsets[lib]) as u32,
                    score: h.score,
                })
            })
            .collect()
    }

    /// The complete mono-server ranking of `query`.
    pub fn ms(&self, query: &str) -> MsRanking {
        let weights = local_weights(&self.whole, query);
        let ranked = ranking::rank_all(self.whole.index(), &weights);
        let mut score = vec![f64::NAN; self.docs.len()];
        for s in &ranked {
            score[s.doc as usize] = s.score;
        }
        MsRanking { ranked, score }
    }

    /// An answer that must equal the mono-server top `k` (MS and CV): its
    /// scores are the oracle's `k` best scores in order, and each
    /// document really has the score it is listed with, both to within
    /// relative `tol` (0 demands identical bits). Documents with equal
    /// scores may appear in any order.
    pub fn check_top_k(
        &self,
        hits: &[GlobalHit],
        ms: &MsRanking,
        k: usize,
        tol: f64,
    ) -> Result<(), String> {
        let want = k.min(ms.ranked.len());
        if hits.len() != want {
            return Err(format!("{} hits, oracle has {want}", hits.len()));
        }
        for (i, (hit, best)) in hits.iter().zip(&ms.ranked).enumerate() {
            if !same(hit.score, best.score, tol) {
                return Err(format!(
                    "rank {i}: score {} but oracle {}",
                    hit.score, best.score
                ));
            }
        }
        self.check_own_scores(hits, ms, tol)
    }

    /// A Central Index answer: at most `k` distinct documents, best first,
    /// each carrying its mono-server score to within relative `tol`.
    pub fn check_ci(
        &self,
        hits: &[GlobalHit],
        ms: &MsRanking,
        k: usize,
        tol: f64,
    ) -> Result<(), String> {
        if hits.len() > k {
            return Err(format!("{} hits for k = {k}", hits.len()));
        }
        if hits.windows(2).any(|w| w[0].score < w[1].score) {
            return Err("scores not in ranking order".into());
        }
        self.check_own_scores(hits, ms, tol)
    }

    /// Each hit is a distinct document listed with its own oracle score.
    fn check_own_scores(&self, hits: &[GlobalHit], ms: &MsRanking, tol: f64) -> Result<(), String> {
        let mut seen = Vec::with_capacity(hits.len());
        for (i, hit) in hits.iter().enumerate() {
            let g = self.global(hit.librarian, hit.doc)?;
            if !same(ms.score[g], hit.score, tol) {
                return Err(format!(
                    "rank {i}: {} listed at {} but scores {}",
                    self.docs[g].docno, hit.score, ms.score[g]
                ));
            }
            if seen.contains(&g) {
                return Err(format!("rank {i}: {} listed twice", self.docs[g].docno));
            }
            seen.push(g);
        }
        Ok(())
    }

    /// A Central Nothing answer: exactly the per-shard local rankings
    /// merged with `merge_rankings`.
    pub fn check_cn(&self, hits: &[GlobalHit], query: &str, k: usize) -> Result<(), String> {
        assert!(!self.shards.is_empty(), "oracle built without shards");
        let lists: Vec<Vec<(ScoredDoc, usize)>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(lib, c)| {
                let ranked = ranking::rank(c.index(), &local_weights(c, query), k);
                ranked.into_iter().map(|s| (s, lib)).collect()
            })
            .collect();
        let merged = ranking::merge_rankings(&lists, k);
        if hits.len() != merged.len() {
            return Err(format!("{} hits, oracle has {}", hits.len(), merged.len()));
        }
        for (i, (hit, (s, lib))) in hits.iter().zip(&merged).enumerate() {
            if hit.librarian != *lib || hit.doc != s.doc || hit.score.to_bits() != s.score.to_bits()
            {
                return Err(format!(
                    "rank {i}: ({}, {}, {}) but oracle ({lib}, {}, {})",
                    hit.librarian, hit.doc, hit.score, s.doc, s.score
                ));
            }
        }
        Ok(())
    }

    /// Fetched documents: one per hit, in hit order, each with the source
    /// document's docno and exact text.
    pub fn check_fetch(&self, hits: &[GlobalHit], fetched: &[FetchedDoc]) -> Result<(), String> {
        if hits.len() != fetched.len() {
            return Err(format!(
                "{} documents for {} hits",
                fetched.len(),
                hits.len()
            ));
        }
        for (hit, doc) in hits.iter().zip(fetched) {
            if (doc.librarian, doc.doc) != (hit.librarian, hit.doc) {
                return Err("fetched documents out of hit order".into());
            }
            let source = &self.docs[self.global(hit.librarian, hit.doc)?];
            if doc.docno != source.docno {
                return Err(format!("fetched {} for {}", doc.docno, source.docno));
            }
            if doc.text.as_deref() != Some(source.text.as_str()) {
                return Err(format!("text of {} differs from the source", source.docno));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraphim_core::{Librarian, Methodology, Receptionist};
    use teraphim_corpus::{CorpusSpec, SyntheticCorpus};
    use teraphim_net::InProcTransport;

    #[test]
    fn oracle_accepts_true_answers_and_catches_a_swap() {
        let corpus = SyntheticCorpus::generate(&CorpusSpec::small(3));
        let parts: Vec<(&str, &[TrecDoc])> = corpus
            .subcollections()
            .iter()
            .map(|s| (s.name.as_str(), s.docs.as_slice()))
            .collect();
        let oracle = Oracle::build(&parts, true);
        let transports = parts
            .iter()
            .map(|(n, d)| InProcTransport::new(Librarian::build(n, Analyzer::default(), d)))
            .collect();
        let mut r = Receptionist::new(transports, Analyzer::default());
        r.enable_cv().unwrap();
        let query = &corpus.short_queries()[0].text;
        let k = 10;
        let ms = oracle.ms(query);

        let cv = r.query(Methodology::CentralVocabulary, query, k).unwrap();
        oracle.check_top_k(&cv, &ms, k, MERGED_TOLERANCE).unwrap();
        oracle.check_ci(&cv, &ms, k, MERGED_TOLERANCE).unwrap();
        let cn = r.query(Methodology::CentralNothing, query, k).unwrap();
        oracle.check_cn(&cn, query, k).unwrap();
        let fetched = r.fetch(&cv, true).unwrap();
        oracle.check_fetch(&cv, &fetched).unwrap();

        // Swap two hits with different scores: every check must object.
        let (i, j) = (0, cv.iter().rposition(|h| h.score != cv[0].score).unwrap());
        let mut swapped = cv.clone();
        swapped.swap(i, j);
        assert!(oracle
            .check_top_k(&swapped, &ms, k, MERGED_TOLERANCE)
            .is_err());
        assert!(oracle.check_ci(&swapped, &ms, k, MERGED_TOLERANCE).is_err());
        let mut cn_swapped = cn.clone();
        cn_swapped.swap(i, j);
        assert!(oracle.check_cn(&cn_swapped, query, k).is_err());
        assert!(oracle.check_fetch(&swapped, &fetched).is_err());

        // A hit moved to another document with the right score sequence
        // still fails: the document's own score must match.
        let mut moved = cv.clone();
        moved[0].doc = moved[0].doc.wrapping_add(1);
        assert!(oracle
            .check_top_k(&moved, &ms, k, MERGED_TOLERANCE)
            .is_err());

        // Altered text fails the fetch check.
        let mut bad = fetched.clone();
        bad[0].text.as_mut().unwrap().push('!');
        assert!(oracle.check_fetch(&cv, &bad).is_err());
    }
}
