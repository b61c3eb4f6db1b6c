//! Compressed postings lists.
//!
//! Each inverted list stores `(d-gap, f_dt)` pairs, both Elias-γ coded.
//! D-gaps are differences between consecutive document numbers (always
//! ≥ 1 because lists are strictly increasing); `f_dt ≥ 1` by definition.
//! With γ coding, common terms (small gaps) and rare terms (few entries)
//! both compress well, giving the "10% or less of the volume of the
//! text" the paper quotes for modern compressed indexes.

use crate::{DocId, IndexError};
use teraphim_compress::bitio::{BitReader, BitWriter};
use teraphim_compress::codes::{read_gamma, write_gamma};

/// One inverted-list entry: a document and the in-document frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    /// Document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the document (`f_dt ≥ 1`).
    pub f_dt: u32,
}

/// An immutable compressed postings list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PostingsList {
    bytes: Vec<u8>,
    count: u32,
    last_doc: DocId,
}

impl PostingsList {
    /// Builds a compressed list from strictly increasing postings.
    ///
    /// # Panics
    ///
    /// Panics if documents are not strictly increasing or an `f_dt` is
    /// zero (these are structural invariants of an inverted file, not
    /// recoverable input errors).
    pub fn from_postings(postings: &[Posting]) -> Self {
        let mut w = BitWriter::with_capacity_bits(postings.len() * 8);
        let mut prev: Option<DocId> = None;
        for p in postings {
            assert!(p.f_dt >= 1, "f_dt must be >= 1");
            let gap = match prev {
                None => u64::from(p.doc) + 1,
                Some(q) => {
                    assert!(p.doc > q, "postings must be strictly increasing");
                    u64::from(p.doc - q)
                }
            };
            write_gamma(&mut w, gap);
            write_gamma(&mut w, u64::from(p.f_dt));
            prev = Some(p.doc);
        }
        PostingsList {
            bytes: w.into_bytes(),
            count: postings.len() as u32,
            last_doc: prev.unwrap_or(0),
        }
    }

    /// Number of postings in the list (the term's document frequency
    /// `f_t` within this collection).
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True if the list has no postings.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The largest document id in the list (0 for an empty list).
    pub fn last_doc(&self) -> DocId {
        self.last_doc
    }

    /// Compressed size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Raw compressed bytes (for serialization and wire transfer).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a list from its raw parts (inverse of
    /// [`PostingsList::as_bytes`] plus metadata).
    pub fn from_raw_parts(bytes: Vec<u8>, count: u32, last_doc: DocId) -> Self {
        PostingsList {
            bytes,
            count,
            last_doc,
        }
    }

    /// Iterates over the postings, decoding incrementally.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            reader: BitReader::new(&self.bytes),
            remaining: self.count,
            prev_doc: 0,
            first: true,
        }
    }

    /// Decodes the whole list into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`IndexError::Corrupt`] if the compressed stream is
    /// malformed.
    pub fn decode(&self) -> Result<Vec<Posting>, IndexError> {
        self.iter().collect()
    }

    /// Looks up the frequency of `doc` by linear scan (used by tests and
    /// small lists; candidate scoring uses [`crate::skips`]).
    pub fn get(&self, doc: DocId) -> Option<u32> {
        for p in self.iter().flatten() {
            if p.doc == doc {
                return Some(p.f_dt);
            }
            if p.doc > doc {
                return None;
            }
        }
        None
    }
}

/// Decoding iterator over a [`PostingsList`]. Produced by
/// [`PostingsList::iter`].
///
/// The iterator is fused at its first error: a corrupt stream yields one
/// `Err` and then ends, instead of decoding whatever bits follow. Its
/// size hint is exact for well-formed lists.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    reader: BitReader<'a>,
    remaining: u32,
    prev_doc: DocId,
    first: bool,
}

impl Iterator for Iter<'_> {
    type Item = Result<Posting, IndexError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let item = self.decode_next();
        self.remaining = if item.is_ok() { self.remaining - 1 } else { 0 };
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl Iter<'_> {
    fn decode_next(&mut self) -> Result<Posting, IndexError> {
        let gap = read_gamma(&mut self.reader).map_err(|_| IndexError::Corrupt("postings gap"))?;
        let f_dt =
            read_gamma(&mut self.reader).map_err(|_| IndexError::Corrupt("postings frequency"))?;
        let doc = if self.first {
            self.first = false;
            // First gap is doc+1 so that doc 0 is representable.
            gap.checked_sub(1)
                .and_then(|d| u32::try_from(d).ok())
                .ok_or(IndexError::Corrupt("first document id overflows"))?
        } else {
            u64::from(self.prev_doc)
                .checked_add(gap)
                .and_then(|d| u32::try_from(d).ok())
                .ok_or(IndexError::Corrupt("document id overflows"))?
        };
        self.prev_doc = doc;
        let f_dt =
            u32::try_from(f_dt).map_err(|_| IndexError::Corrupt("frequency overflows u32"))?;
        Ok(Posting { doc, f_dt })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(doc: DocId, f_dt: u32) -> Posting {
        Posting { doc, f_dt }
    }

    #[test]
    fn roundtrip_simple_list() {
        let postings = vec![p(0, 1), p(3, 2), p(4, 7), p(100, 1)];
        let list = PostingsList::from_postings(&postings);
        assert_eq!(list.len(), 4);
        assert_eq!(list.last_doc(), 100);
        assert_eq!(list.decode().unwrap(), postings);
    }

    #[test]
    fn empty_list() {
        let list = PostingsList::from_postings(&[]);
        assert!(list.is_empty());
        assert_eq!(list.decode().unwrap(), vec![]);
        assert_eq!(list.byte_len(), 0);
    }

    #[test]
    fn doc_zero_is_representable() {
        let list = PostingsList::from_postings(&[p(0, 5)]);
        assert_eq!(list.decode().unwrap(), vec![p(0, 5)]);
    }

    #[test]
    fn single_posting_large_doc() {
        let list = PostingsList::from_postings(&[p(u32::MAX - 1, 3)]);
        assert_eq!(list.decode().unwrap(), vec![p(u32::MAX - 1, 3)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_docs_panic() {
        PostingsList::from_postings(&[p(5, 1), p(5, 1)]);
    }

    #[test]
    #[should_panic(expected = "f_dt must be >= 1")]
    fn zero_frequency_panics() {
        PostingsList::from_postings(&[p(1, 0)]);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let list = PostingsList::from_postings(&[p(2, 1), p(7, 3), p(9, 2)]);
        assert_eq!(list.get(7), Some(3));
        assert_eq!(list.get(2), Some(1));
        assert_eq!(list.get(8), None);
        assert_eq!(list.get(100), None);
    }

    #[test]
    fn dense_list_compresses_below_fixed_width() {
        // 1000 consecutive docs with f_dt = 1: gaps of 1 are one bit, f=1
        // one bit -> ~250 bytes versus 8000 fixed.
        let postings: Vec<Posting> = (0..1000).map(|d| p(d, 1)).collect();
        let list = PostingsList::from_postings(&postings);
        assert!(list.byte_len() < 300, "got {}", list.byte_len());
        assert_eq!(list.decode().unwrap(), postings);
    }

    #[test]
    fn raw_parts_roundtrip() {
        let postings = vec![p(1, 2), p(9, 1)];
        let list = PostingsList::from_postings(&postings);
        let rebuilt =
            PostingsList::from_raw_parts(list.as_bytes().to_vec(), list.len(), list.last_doc());
        assert_eq!(rebuilt.decode().unwrap(), postings);
    }

    #[test]
    fn corrupt_stream_yields_error_not_panic() {
        let postings = vec![p(1, 2), p(9, 1), p(10_000, 4)];
        let list = PostingsList::from_postings(&postings);
        let bytes = list.as_bytes();
        let truncated = PostingsList::from_raw_parts(bytes[..bytes.len() - 1].to_vec(), 3, 10_000);
        assert!(truncated.decode().is_err());
        // The iterator stops at its first error rather than decoding on.
        let items: Vec<_> = truncated.iter().collect();
        assert!(items.last().unwrap().is_err());
        assert_eq!(items.iter().filter(|i| i.is_err()).count(), 1);
        let inflated = PostingsList::from_raw_parts(bytes.to_vec(), 1_000, 10_000);
        let items: Vec<_> = inflated.iter().collect();
        assert_eq!(items.len(), 4);
        assert!(items[3].is_err());
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let list = PostingsList::from_postings(&[p(1, 1), p(2, 1), p(3, 1)]);
        let it = list.iter();
        assert_eq!(it.size_hint(), (3, Some(3)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arbitrary_postings() -> impl Strategy<Value = Vec<Posting>> {
        proptest::collection::vec((0u32..1_000_000, 1u32..10_000), 0..300).prop_map(|mut raw| {
            raw.sort_by_key(|&(d, _)| d);
            raw.dedup_by_key(|&mut (d, _)| d);
            raw.into_iter()
                .map(|(doc, f_dt)| Posting { doc, f_dt })
                .collect()
        })
    }

    proptest! {
        #[test]
        fn roundtrips(postings in arbitrary_postings()) {
            let list = PostingsList::from_postings(&postings);
            prop_assert_eq!(list.decode().unwrap(), postings);
        }

        #[test]
        fn get_agrees_with_decode(postings in arbitrary_postings(), probe in 0u32..1_000_000) {
            let list = PostingsList::from_postings(&postings);
            let expected = postings.iter().find(|p| p.doc == probe).map(|p| p.f_dt);
            prop_assert_eq!(list.get(probe), expected);
        }
    }
}
