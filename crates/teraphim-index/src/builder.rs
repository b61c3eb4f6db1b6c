//! Index construction and the complete inverted index.

use crate::postings::{Posting, PostingsList};
use crate::skips::{SkipTable, DEFAULT_SKIP_EVERY};
use crate::stats::CollectionStats;
use crate::vocab::{read_u32, Vocabulary};
use crate::weights::DocWeights;
use crate::{DocId, IndexError, TermId};
use std::collections::HashMap;

/// An in-memory index under construction.
///
/// Documents are added as term sequences (the output of
/// `teraphim_text::Analyzer::analyze`); ids are assigned densely in
/// insertion order, which is also what keeps *grouping* meaningful — the
/// paper's groups are runs of `G` consecutive document numbers.
///
/// # Examples
///
/// ```
/// use teraphim_index::builder::IndexBuilder;
///
/// let mut builder = IndexBuilder::new();
/// let d0 = builder.add_document(&["cat", "sat", "cat"]);
/// assert_eq!(d0, 0);
/// let index = builder.build();
/// let cat = index.vocab().term_id("cat").unwrap();
/// assert_eq!(index.postings(cat).get(0), Some(2));
/// ```
#[derive(Debug, Default)]
pub struct IndexBuilder {
    vocab: Vocabulary,
    /// Per-term accumulated postings (docs strictly increasing by
    /// construction).
    lists: Vec<Vec<Posting>>,
    weights: DocWeights,
    doc_lengths: Vec<u32>,
}

impl IndexBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents added so far.
    pub fn num_docs(&self) -> u64 {
        self.doc_lengths.len() as u64
    }

    /// Adds a document given its analyzed term sequence; returns its id.
    pub fn add_document<S: AsRef<str>>(&mut self, terms: &[S]) -> DocId {
        let doc = self.doc_lengths.len() as DocId;
        let mut freqs: HashMap<TermId, u32> = HashMap::new();
        for term in terms {
            let id = self.vocab.intern(term.as_ref());
            *freqs.entry(id).or_insert(0) += 1;
        }
        // Deterministic order: sort by term id before appending.
        let mut entries: Vec<(TermId, u32)> = freqs.into_iter().collect();
        entries.sort_unstable_by_key(|&(t, _)| t);
        for &(term, f_dt) in &entries {
            let idx = term as usize;
            if idx >= self.lists.len() {
                self.lists.resize_with(idx + 1, Vec::new);
            }
            self.lists[idx].push(Posting { doc, f_dt });
        }
        self.weights.push(DocWeights::weight_from_freqs(
            entries.iter().map(|&(_, f)| u64::from(f)),
        ));
        self.doc_lengths.push(terms.len() as u32);
        doc
    }

    /// Pre-registers a term so that it receives the next dense id even if
    /// no document contains it (used to align a derived index's term ids
    /// with an existing global vocabulary).
    pub fn seed_term(&mut self, term: &str) -> TermId {
        self.vocab.intern(term)
    }

    /// Adds a document given `(term, frequency)` pairs instead of a raw
    /// term sequence — used when the caller has already aggregated
    /// frequencies (e.g. when indexing *groups* as pseudo-documents).
    ///
    /// # Panics
    ///
    /// Panics if any frequency is zero.
    pub fn add_document_freqs<S: AsRef<str>>(&mut self, freqs: &[(S, u32)]) -> DocId {
        let doc = self.doc_lengths.len() as DocId;
        let mut entries: Vec<(TermId, u32)> = Vec::with_capacity(freqs.len());
        let mut total = 0u64;
        for (term, f) in freqs {
            assert!(*f > 0, "frequencies must be positive");
            let id = self.vocab.intern(term.as_ref());
            entries.push((id, *f));
            total += u64::from(*f);
        }
        entries.sort_unstable_by_key(|&(t, _)| t);
        // Merge duplicate terms if the caller supplied any.
        let mut merged: Vec<(TermId, u32)> = Vec::with_capacity(entries.len());
        for (t, f) in entries {
            match merged.last_mut() {
                Some(last) if last.0 == t => last.1 += f,
                _ => merged.push((t, f)),
            }
        }
        for &(term, f_dt) in &merged {
            let idx = term as usize;
            if idx >= self.lists.len() {
                self.lists.resize_with(idx + 1, Vec::new);
            }
            self.lists[idx].push(Posting { doc, f_dt });
        }
        self.weights.push(DocWeights::weight_from_freqs(
            merged.iter().map(|&(_, f)| u64::from(f)),
        ));
        self.doc_lengths.push(total as u32);
        doc
    }

    /// Finalizes the index, compressing all lists.
    pub fn build(self) -> InvertedIndex {
        let mut stats = CollectionStats::new();
        stats.set_num_docs(self.doc_lengths.len() as u64);
        let mut postings = Vec::with_capacity(self.vocab.len());
        for (term_idx, list) in self.lists.iter().enumerate() {
            stats.add_doc_freq(term_idx as TermId, list.len() as u64);
            postings.push(PostingsList::from_postings(list));
        }
        // Terms can exist in the vocabulary without lists only if the
        // vocabulary was pre-seeded; align lengths defensively.
        while postings.len() < self.vocab.len() {
            stats.add_doc_freq(postings.len() as TermId, 0);
            postings.push(PostingsList::from_postings(&[]));
        }
        InvertedIndex {
            vocab: self.vocab,
            postings,
            stats,
            weights: self.weights,
            doc_lengths: self.doc_lengths,
            skip_tables: None,
        }
    }
}

/// A complete compressed inverted index over one (sub)collection: the
/// structure a *librarian* owns.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    vocab: Vocabulary,
    postings: Vec<PostingsList>,
    stats: CollectionStats,
    weights: DocWeights,
    doc_lengths: Vec<u32>,
    skip_tables: Option<Vec<SkipTable>>,
}

impl InvertedIndex {
    /// Number of documents indexed.
    pub fn num_docs(&self) -> u64 {
        self.stats.num_docs()
    }

    /// The term dictionary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Collection statistics (`N`, per-term `f_t`).
    pub fn stats(&self) -> &CollectionStats {
        &self.stats
    }

    /// The document-weights table.
    pub fn weights(&self) -> &DocWeights {
        &self.weights
    }

    /// Term count of `doc` as indexed.
    pub fn doc_length(&self, doc: DocId) -> u32 {
        self.doc_lengths.get(doc as usize).copied().unwrap_or(0)
    }

    /// The compressed postings list of `term`.
    ///
    /// # Panics
    ///
    /// Panics if `term` is out of range.
    pub fn postings(&self, term: TermId) -> &PostingsList {
        &self.postings[term as usize]
    }

    /// Assembles an index from already-merged parts (used by
    /// [`crate::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if section lengths disagree.
    pub(crate) fn from_merge_parts(
        vocab: Vocabulary,
        postings: Vec<PostingsList>,
        stats: CollectionStats,
        weights: DocWeights,
        doc_lengths: Vec<u32>,
    ) -> InvertedIndex {
        assert_eq!(vocab.len(), postings.len(), "vocab/postings mismatch");
        assert_eq!(
            weights.len() as u64,
            stats.num_docs(),
            "weights/doc-count mismatch"
        );
        assert_eq!(doc_lengths.len() as u64, stats.num_docs());
        InvertedIndex {
            vocab,
            postings,
            stats,
            weights,
            doc_lengths,
            skip_tables: None,
        }
    }

    /// Replaces the document-weights table (used by index pruning, which
    /// approximates postings but must keep the original normalization).
    ///
    /// # Panics
    ///
    /// Panics if the replacement covers a different number of documents.
    pub fn replace_weights(&mut self, weights: DocWeights) {
        assert_eq!(
            weights.len() as u64,
            self.num_docs(),
            "weights table must cover every document"
        );
        self.weights = weights;
    }

    /// Builds skip tables for every list with the given interval,
    /// enabling [`InvertedIndex::skip_cursor`]. Idempotent per interval.
    /// A list that fails to decode (an index read from corrupt bytes)
    /// gets no sync points, so its cursors report the corruption when
    /// they reach it.
    pub fn build_skips(&mut self, skip_every: u32) {
        let tables = self
            .postings
            .iter()
            .map(|list| {
                SkipTable::build(list, skip_every)
                    .unwrap_or_else(|_| SkipTable::without_skips(skip_every))
            })
            .collect();
        self.skip_tables = Some(tables);
    }

    /// A seeking cursor over `term`'s list. Builds default skip tables on
    /// first use if [`InvertedIndex::build_skips`] was not called.
    pub fn skip_cursor(&mut self, term: TermId) -> crate::skips::SkipCursor<'_> {
        if self.skip_tables.is_none() {
            self.build_skips(DEFAULT_SKIP_EVERY);
        }
        let tables = self.skip_tables.as_ref().expect("just built");
        tables[term as usize].cursor(&self.postings[term as usize])
    }

    /// True if skip tables have been built.
    pub fn has_skips(&self) -> bool {
        self.skip_tables.is_some()
    }

    /// Total compressed postings size in bytes.
    pub fn postings_bytes(&self) -> usize {
        self.postings.iter().map(PostingsList::byte_len).sum()
    }

    /// Total index size in bytes: postings + vocabulary + weights (+ skip
    /// tables if built). This is the figure compared against the paper's
    /// "around 40 Mb" central index for a gigabyte of text.
    pub fn index_bytes(&self) -> usize {
        self.postings_bytes()
            + self.vocab.serialized_len()
            + self.weights.serialized_len()
            + self
                .skip_tables
                .as_ref()
                .map_or(0, |ts| ts.iter().map(SkipTable::byte_len).sum())
    }

    /// Serializes the full index (without skip tables, which are
    /// rebuilt).
    pub fn to_bytes(&self) -> Vec<u8> {
        let vocab = self.vocab.to_bytes();
        let stats = self.stats.to_bytes();
        let weights = self.weights.to_bytes();
        let mut out = Vec::new();
        for section in [&vocab, &stats, &weights] {
            out.extend_from_slice(&(section.len() as u32).to_le_bytes());
            out.extend_from_slice(section);
        }
        out.extend_from_slice(&(self.doc_lengths.len() as u32).to_le_bytes());
        for &len in &self.doc_lengths {
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&(self.postings.len() as u32).to_le_bytes());
        for list in &self.postings {
            out.extend_from_slice(&list.len().to_le_bytes());
            out.extend_from_slice(&list.last_doc().to_le_bytes());
            out.extend_from_slice(&(list.byte_len() as u32).to_le_bytes());
            out.extend_from_slice(list.as_bytes());
        }
        out
    }

    /// Deserializes the form produced by [`InvertedIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] on truncation or inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IndexError> {
        let mut pos = 0usize;
        let section = |pos: &mut usize| -> Result<&[u8], IndexError> {
            let len = read_u32(bytes, pos)? as usize;
            let slice = bytes
                .get(*pos..*pos + len)
                .ok_or(IndexError::Corrupt("index section truncated"))?;
            *pos += len;
            Ok(slice)
        };
        let vocab = Vocabulary::from_bytes(section(&mut pos)?)?;
        let stats = CollectionStats::from_bytes(section(&mut pos)?)?;
        let weights = DocWeights::from_bytes(section(&mut pos)?)?;
        let doc_count = read_u32(bytes, &mut pos)? as usize;
        let mut doc_lengths = Vec::with_capacity(doc_count);
        for _ in 0..doc_count {
            doc_lengths.push(read_u32(bytes, &mut pos)?);
        }
        let term_count = read_u32(bytes, &mut pos)? as usize;
        if term_count != vocab.len() {
            return Err(IndexError::Corrupt("postings/vocabulary length mismatch"));
        }
        let mut postings = Vec::with_capacity(term_count);
        for _ in 0..term_count {
            let count = read_u32(bytes, &mut pos)?;
            let last_doc = read_u32(bytes, &mut pos)?;
            let byte_len = read_u32(bytes, &mut pos)? as usize;
            let slice = bytes
                .get(pos..pos + byte_len)
                .ok_or(IndexError::Corrupt("postings truncated"))?;
            pos += byte_len;
            postings.push(PostingsList::from_raw_parts(
                slice.to_vec(),
                count,
                last_doc,
            ));
        }
        Ok(InvertedIndex {
            vocab,
            postings,
            stats,
            weights,
            doc_lengths,
            skip_tables: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(terms: &[&str]) -> Vec<String> {
        terms.iter().map(|s| (*s).to_owned()).collect()
    }

    fn small_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_document(&doc(&["cat", "sat", "cat"]));
        b.add_document(&doc(&["dog", "sat"]));
        b.add_document(&doc(&["cat", "dog", "bird"]));
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = IndexBuilder::new();
        assert_eq!(b.add_document(&doc(&["a"])), 0);
        assert_eq!(b.add_document(&doc(&["b"])), 1);
        assert_eq!(b.num_docs(), 2);
    }

    #[test]
    fn postings_record_frequencies() {
        let index = small_index();
        let cat = index.vocab().term_id("cat").unwrap();
        let list = index.postings(cat);
        assert_eq!(list.len(), 2);
        assert_eq!(list.get(0), Some(2));
        assert_eq!(list.get(2), Some(1));
        assert_eq!(list.get(1), None);
    }

    #[test]
    fn stats_match_postings() {
        let index = small_index();
        assert_eq!(index.num_docs(), 3);
        for (term, _) in index.vocab().iter() {
            assert_eq!(
                index.stats().doc_freq(term),
                u64::from(index.postings(term).len()),
                "term {term}"
            );
        }
    }

    #[test]
    fn doc_weights_match_formula() {
        let index = small_index();
        // Doc 0: cat f=2, sat f=1 -> sqrt(ln(3)^2 + ln(2)^2).
        let expected = (3f64.ln().powi(2) + 2f64.ln().powi(2)).sqrt();
        assert!((index.weights().weight(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn doc_lengths_are_recorded() {
        let index = small_index();
        assert_eq!(index.doc_length(0), 3);
        assert_eq!(index.doc_length(1), 2);
        assert_eq!(index.doc_length(99), 0);
    }

    #[test]
    fn empty_document_is_allowed() {
        let mut b = IndexBuilder::new();
        b.add_document(&doc(&[]));
        b.add_document(&doc(&["x"]));
        let index = b.build();
        assert_eq!(index.num_docs(), 2);
        assert_eq!(index.weights().weight(0), 0.0);
    }

    #[test]
    fn empty_index_builds() {
        let index = IndexBuilder::new().build();
        assert_eq!(index.num_docs(), 0);
        // Only fixed headers (e.g. the weights table's count field).
        assert!(index.index_bytes() <= 8, "got {}", index.index_bytes());
        let rt = InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(rt.num_docs(), 0);
    }

    #[test]
    fn serialization_roundtrips() {
        let index = small_index();
        let bytes = index.to_bytes();
        let rt = InvertedIndex::from_bytes(&bytes).unwrap();
        assert_eq!(rt.num_docs(), index.num_docs());
        assert_eq!(rt.vocab().len(), index.vocab().len());
        for (term, name) in index.vocab().iter() {
            let rt_term = rt.vocab().term_id(name).unwrap();
            assert_eq!(
                rt.postings(rt_term).decode().unwrap(),
                index.postings(term).decode().unwrap()
            );
            assert_eq!(rt.stats().doc_freq(rt_term), index.stats().doc_freq(term));
        }
        for d in 0..index.num_docs() as DocId {
            assert_eq!(rt.weights().weight(d), index.weights().weight(d));
            assert_eq!(rt.doc_length(d), index.doc_length(d));
        }
    }

    #[test]
    fn deserialization_rejects_truncation() {
        let bytes = small_index().to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                InvertedIndex::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn skip_cursor_agrees_with_postings() {
        let mut index = small_index();
        let sat = index.vocab().term_id("sat").unwrap();
        let expected = index.postings(sat).decode().unwrap();
        let mut cursor = index.skip_cursor(sat);
        for p in expected {
            assert_eq!(cursor.frequency_of(p.doc).unwrap(), Some(p.f_dt));
        }
    }

    #[test]
    fn index_bytes_counts_all_sections() {
        let mut index = small_index();
        let without_skips = index.index_bytes();
        assert!(without_skips > 0);
        index.build_skips(2);
        assert!(index.index_bytes() > without_skips);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn build_then_serialize_roundtrips(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-e]{1,3}", 0..20),
                0..30,
            ),
        ) {
            let mut b = IndexBuilder::new();
            for terms in &docs {
                b.add_document(terms);
            }
            let index = b.build();
            prop_assert_eq!(index.num_docs(), docs.len() as u64);
            let rt = InvertedIndex::from_bytes(&index.to_bytes()).unwrap();
            prop_assert_eq!(rt.num_docs(), index.num_docs());
            for (term, name) in index.vocab().iter() {
                let rt_term = rt.vocab().term_id(name).unwrap();
                prop_assert_eq!(
                    rt.postings(rt_term).decode().unwrap(),
                    index.postings(term).decode().unwrap()
                );
            }
        }

        #[test]
        fn doc_freq_equals_distinct_docs_containing_term(
            docs in proptest::collection::vec(
                proptest::collection::vec("[a-c]{1,2}", 0..10),
                1..20,
            ),
        ) {
            let mut b = IndexBuilder::new();
            for terms in &docs {
                b.add_document(terms);
            }
            let index = b.build();
            for (term, name) in index.vocab().iter() {
                let expected = docs
                    .iter()
                    .filter(|d| d.iter().any(|t| t == name))
                    .count() as u64;
                prop_assert_eq!(index.stats().doc_freq(term), expected);
            }
        }
    }
}
