//! Seeded input generation. Everything the program under test receives
//! (query texts, document batches) is made here from the workload seed;
//! the same seed always yields the same inputs.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use teraphim_corpus::queries::generate_queries;
use teraphim_corpus::topics::TopicSet;
use teraphim_corpus::zipf::Zipf;
use teraphim_corpus::{CorpusSpec, SyntheticCorpus};
use teraphim_text::sgml::TrecDoc;

/// Seed of the served collection. The collection is held fixed so that
/// the workload seed varies only the traffic, not the system measured.
pub const CORPUS_SEED: u64 = 1998;

/// The served collection's specification: TREC-like, split AP/FR/WSJ/ZIFF.
pub fn corpus_spec() -> CorpusSpec {
    CorpusSpec::trec_like(CORPUS_SEED)
}

/// A seed for one named input stream, derived from the workload seed so
/// that streams are independent of each other (splitmix64 over an
/// FNV-1a hash of the name).
pub fn derive(seed: u64, stream: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed ^ h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The topic set the corpus was generated from (it depends on the spec
/// only, not on the corpus seed).
fn topics(spec: &CorpusSpec) -> TopicSet {
    TopicSet::generate_full(
        spec.num_topics,
        spec.terms_per_topic,
        spec.topic_overlap,
        spec.topic_exponent,
        spec.vocab_size,
    )
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `count` pairwise-distinct queries of `len` terms in a seeded random
/// order, drawn topic by topic the way the corpus draws its own queries.
pub fn distinct_queries(spec: &CorpusSpec, seed: u64, count: usize, len: usize) -> Vec<String> {
    let topics = topics(spec);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for q in generate_queries(&mut rng, &topics, spec.num_topics, len, 0) {
            if out.len() < count && seen.insert(q.text.clone()) {
                out.push(q.text);
            }
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// `n` indices into a pool of `pool` items, Zipf-distributed with
/// exponent `s` (index 0 most popular).
pub fn zipf_draws(seed: u64, pool: usize, n: usize, s: f64) -> Vec<usize> {
    let zipf = Zipf::new(pool, s);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// One batch of new documents addressed to one shard.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Index of the shard the batch is appended to.
    pub shard: usize,
    /// The documents, with docnos that occur nowhere in the served corpus.
    pub docs: Vec<TrecDoc>,
}

/// `count` batches of `size` new documents, round-robin over `shards`
/// shards. Documents come from a second corpus generated with a seed
/// derived from `seed`; batch `i` goes to shard `i % shards` and takes
/// that shard's next unused documents from the same-named
/// subcollection, renamed `NEW-<name>-<n>`.
pub fn ingest_batches(seed: u64, shards: usize, count: usize, size: usize) -> Vec<Batch> {
    let mut spec = corpus_spec();
    spec.seed = derive(seed, "ingest-corpus");
    let source = SyntheticCorpus::generate(&spec);
    let subs = source.subcollections();
    let mut used = vec![0usize; shards];
    (0..count)
        .map(|i| {
            let shard = i % shards;
            let sub = &subs[shard];
            let from = used[shard];
            assert!(
                from + size <= sub.docs.len(),
                "ingest corpus too small for {count} batches of {size}"
            );
            used[shard] += size;
            let docs = sub.docs[from..from + size]
                .iter()
                .enumerate()
                .map(|(j, d)| TrecDoc {
                    docno: format!("NEW-{}-{:06}", sub.name, from + j),
                    text: d.text.clone(),
                })
                .collect();
            Batch { shard, docs }
        })
        .collect()
}

/// Share of `items` that are first occurrences, and share that repeat
/// an earlier item.
pub fn distinct_and_repeat_share<T: std::hash::Hash + Eq>(items: &[T]) -> (f64, f64) {
    if items.is_empty() {
        return (0.0, 0.0);
    }
    let distinct = items.iter().collect::<HashSet<_>>().len() as f64 / items.len() as f64;
    (distinct, 1.0 - distinct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_streams_are_deterministic_and_distinct() {
        let spec = corpus_spec();
        let a = distinct_queries(&spec, 7, 400, 10);
        let b = distinct_queries(&spec, 7, 400, 10);
        let c = distinct_queries(&spec, 8, 400, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(distinct_and_repeat_share(&a), (1.0, 0.0));
        assert!(a.iter().all(|q| q.split_whitespace().count() == 10));
    }

    #[test]
    fn zipf_draws_are_deterministic_and_skewed() {
        let a = zipf_draws(3, 1024, 5_000, 1.0);
        assert_eq!(a, zipf_draws(3, 1024, 5_000, 1.0));
        assert_ne!(a, zipf_draws(4, 1024, 5_000, 1.0));
        let (distinct, repeat) = distinct_and_repeat_share(&a);
        assert!(distinct < 0.3 && repeat > 0.7, "{distinct} {repeat}");
    }

    #[test]
    fn ingest_batches_are_deterministic_and_renamed() {
        let a = ingest_batches(5, 4, 8, 3);
        let b = ingest_batches(5, 4, 8, 3);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.shard, y.shard);
            assert_eq!(x.docs, y.docs);
        }
        assert_eq!(a[5].shard, 1);
        assert!(a
            .iter()
            .flat_map(|b| &b.docs)
            .all(|d| d.docno.starts_with("NEW-")));
        let docnos: HashSet<_> = a.iter().flat_map(|b| &b.docs).map(|d| &d.docno).collect();
        assert_eq!(docnos.len(), 24);
        assert_ne!(a[0].docs, ingest_batches(6, 4, 8, 3)[0].docs);
    }
}
