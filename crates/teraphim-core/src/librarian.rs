//! The librarian: an independent mono-server engine that answers the
//! TERAPHIM protocol.
//!
//! "Each is responsible for some component of the collection, for which
//! it maintains an index, evaluates queries, and fetches documents"
//! (§3). A librarian never consults central information: rank requests
//! either carry explicit weights (CV/CI) or are answered with purely
//! local statistics (CN). This is the transparency property the paper
//! requires — any subcollection can serve several receptionists at once.

use std::path::Path;
use std::time::Instant;
use teraphim_engine::{ranking, Collection, RankScratch};
use teraphim_net::{Message, Service};
use teraphim_obs::{
    FlightEntry, FlightRecorder, Histogram, ServerTimings, Span, SpanContext, SpanTree,
};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

/// Saturating microseconds for phase timing.
fn elapsed_micros(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A librarian serving one subcollection.
///
/// Ranking scratch buffers (accumulator map, candidate vectors) live on
/// the librarian and are reused across the query stream, so steady-state
/// query evaluation allocates no fresh hash tables.
///
/// Every librarian also keeps its own service ledger — request, rank and
/// error counters plus a log-bucketed service-latency histogram — and
/// serves it over [`Message::Stats`], so a receptionist (or `teraphim
/// stats`) can snapshot fleet health without any shared state.
#[derive(Debug)]
pub struct Librarian {
    collection: Collection,
    scratch: RankScratch,
    requests_served: u64,
    rank_requests: u64,
    errors_returned: u64,
    latency: Histogram,
    /// Index epoch: 0 at build, bumped by [`Librarian::bump_epoch`] when
    /// the index changes. Echoed in every rank/score reply and in
    /// `StatsReply` so receptionist caches can invalidate.
    epoch: u64,
    /// Serialized index size, computed lazily on the first `Stats`
    /// request (serialization is too expensive for the constructor).
    index_bytes_cache: Option<u64>,
    /// Fleet routing table, when this librarian serves as a routing
    /// info point (answers [`Message::RoutingRequest`]).
    routing: Option<teraphim_net::RoutingTable>,
    /// Scan (term lookup / weighting) micros of the last handled
    /// request; harvested by [`Service::take_phase_timings`].
    last_scan: u64,
    /// Rank (accumulator/heap) micros of the last handled request.
    last_rank: u64,
    /// Lifetime server-phase totals, indexed like
    /// [`SERVER_PHASES`] — the server side of the phase ledger,
    /// published in [`Message::StatsReply`].
    phase_totals: [u64; 4],
    /// Server-side flight recorder: exemplar spans for requests that
    /// arrived with a span context. Detached (free) by default.
    flight: FlightRecorder,
    /// Durable backing store, when the librarian was opened from (or
    /// attached to) a store directory. With a store attached, the epoch
    /// is the store's durable epoch and
    /// [`Librarian::add_documents`] follows the write-ahead discipline.
    store: Option<teraphim_store::IndexStore>,
}

impl Librarian {
    /// Builds a librarian over parsed documents.
    pub fn build(name: &str, analyzer: Analyzer, docs: &[TrecDoc]) -> Self {
        Self::from_collection(Collection::build(name, analyzer, docs))
    }

    /// Builds a librarian from `(docno, text)` pairs with the default
    /// analyzer.
    pub fn from_texts(name: &str, docs: &[(&str, &str)]) -> Self {
        Self::from_collection(Collection::from_texts(name, docs))
    }

    /// Wraps an existing collection (e.g. one loaded from disk).
    pub fn from_collection(collection: Collection) -> Self {
        Librarian {
            collection,
            scratch: RankScratch::new(),
            requests_served: 0,
            rank_requests: 0,
            errors_returned: 0,
            latency: Histogram::new(),
            epoch: 0,
            index_bytes_cache: None,
            routing: None,
            last_scan: 0,
            last_rank: 0,
            phase_totals: [0; 4],
            flight: FlightRecorder::disabled(),
            store: None,
        }
    }

    /// Opens a librarian from a persistent store directory instead of
    /// rebuilding its index: segments are deserialized and merged, the
    /// WAL's valid prefix replayed, and the librarian's epoch set to the
    /// store's durable epoch — so reopening after a crash serves replies
    /// that are cache-indistinguishable from the pre-crash librarian at
    /// that epoch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TeraphimError::Store`] if the store is missing
    /// or corrupt.
    pub fn open(dir: &Path) -> Result<Librarian, crate::TeraphimError> {
        let (store, collection) = teraphim_store::IndexStore::open(dir)?;
        let mut librarian = Self::from_collection(collection);
        librarian.epoch = store.epoch();
        librarian.store = Some(store);
        Ok(librarian)
    }

    /// Builds a librarian over parsed documents *and* creates a
    /// persistent store for it in `dir` (epoch 0 = this base build).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TeraphimError::Store`] if `dir` already holds a
    /// store or cannot be written.
    pub fn create_store(
        dir: &Path,
        name: &str,
        analyzer: &Analyzer,
        docs: &[TrecDoc],
    ) -> Result<Librarian, crate::TeraphimError> {
        let (store, collection) = teraphim_store::IndexStore::create(dir, name, analyzer, docs)?;
        let mut librarian = Self::from_collection(collection);
        librarian.store = Some(store);
        Ok(librarian)
    }

    /// Appends a document batch, durably when a store is attached: the
    /// batch is WAL-logged and synced *first*, and only then merged into
    /// the in-memory index, so the advertised epoch never gets ahead of
    /// what a crash would recover. Without a store this is a plain
    /// in-memory append plus an epoch bump. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TeraphimError::Store`] if the WAL append fails
    /// (the in-memory index is then left untouched) or
    /// [`crate::TeraphimError::Engine`] if the merge fails.
    pub fn add_documents(&mut self, docs: &[TrecDoc]) -> Result<u64, crate::TeraphimError> {
        match &mut self.store {
            Some(store) => {
                let epoch = store.log_batch(docs)?;
                self.collection.append_documents(docs)?;
                self.epoch = epoch;
            }
            None => {
                self.collection.append_documents(docs)?;
                self.epoch += 1;
            }
        }
        self.index_bytes_cache = None;
        Ok(self.epoch)
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&teraphim_store::IndexStore> {
        self.store.as_ref()
    }

    /// Mutable access to the attached store (checkpoint, compact,
    /// crash-point injection in tests).
    pub fn store_mut(&mut self) -> Option<&mut teraphim_store::IndexStore> {
        self.store.as_mut()
    }

    /// Attaches a flight recorder retaining at most `capacity`
    /// exemplars; span-carrying requests leave a server-side span tree
    /// in it. Returns a handle sharing the buffer.
    pub fn enable_flight_recorder(&mut self, capacity: usize) -> FlightRecorder {
        self.flight = FlightRecorder::new(capacity);
        self.flight.clone()
    }

    /// The librarian's flight recorder handle (detached unless
    /// [`Librarian::enable_flight_recorder`] was called).
    pub fn flight(&self) -> FlightRecorder {
        self.flight.clone()
    }

    /// Current index epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Declares the index changed: every later reply carries the new
    /// epoch, telling receptionists their cached results are stale.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Adopts a shard's epoch wholesale — the migration handoff path: a
    /// replica joining a shard's group indexes the same documents and
    /// then takes the shard's current epoch, so its replies are
    /// cache-indistinguishable from the replicas that were already
    /// serving.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// Mutable access (e.g. to pre-build skip tables).
    pub fn collection_mut(&mut self) -> &mut Collection {
        &mut self.collection
    }

    /// Collection name.
    pub fn name(&self) -> &str {
        self.collection.name()
    }

    /// Attaches the fleet's shared routing table so this librarian can
    /// answer [`Message::RoutingRequest`] admin queries (any node can
    /// serve the table; it is shared and versioned).
    pub fn set_routing_table(&mut self, table: teraphim_net::RoutingTable) {
        self.routing = Some(table);
    }

    /// Number of documents managed.
    pub fn num_docs(&self) -> u64 {
        self.collection.num_docs()
    }

    /// Builds the [`Message::StatsReply`] for this librarian's current
    /// service ledger.
    fn stats_reply(&mut self) -> Message {
        let index_bytes = *self
            .index_bytes_cache
            .get_or_insert_with(|| self.collection.index().to_bytes().len() as u64);
        Message::StatsReply {
            name: self.collection.name().to_owned(),
            num_docs: self.collection.num_docs(),
            num_terms: self.collection.index().vocab().len() as u64,
            index_bytes,
            requests_served: self.requests_served,
            rank_requests: self.rank_requests,
            errors: self.errors_returned,
            epoch: self.epoch,
            latency: self.latency.snapshot().to_bucket_pairs(),
            server_phases: self
                .phase_totals
                .iter()
                .enumerate()
                .filter(|(_, &micros)| micros > 0)
                .map(|(i, &micros)| (i as u32, micros))
                .collect(),
        }
    }

    /// A ranking, or the typed error that stopped it: a corrupt list
    /// fails the request rather than answering with a partial ranking.
    fn rank_response(
        &self,
        query_id: u32,
        result: Result<Vec<teraphim_engine::ScoredDoc>, teraphim_engine::EngineError>,
    ) -> Message {
        match result {
            Ok(hits) => Message::RankResponse {
                query_id,
                epoch: self.epoch,
                entries: hits.into_iter().map(|h| (h.doc, h.score)).collect(),
            },
            Err(e) => Message::Error {
                message: format!("ranking failed: {e}"),
            },
        }
    }

    fn handle_inner(&mut self, request: Message) -> Message {
        match request {
            Message::StatsRequest => {
                let index = self.collection.index();
                let term_freqs = index
                    .vocab()
                    .iter()
                    .map(|(id, term)| (term.to_owned(), index.stats().doc_freq(id)))
                    .collect();
                Message::StatsResponse {
                    num_docs: index.stats().num_docs(),
                    term_freqs,
                }
            }
            Message::IndexRequest => Message::IndexResponse {
                index_bytes: self.collection.index().to_bytes(),
            },
            Message::RankRequest { query_id, k, terms } => {
                // Central Nothing: local statistics. Query terms arrive as
                // strings with their f_qt; unknown terms contribute
                // nothing. Scan = lookup + local weighting; rank = the
                // accumulator/heap pass.
                let scan_started = Instant::now();
                let index = self.collection.index();
                let pairs: Vec<(teraphim_index::TermId, u32)> = terms
                    .iter()
                    .filter_map(|(t, f)| index.vocab().term_id(t).map(|id| (id, *f)))
                    .collect();
                let weighted = ranking::local_weights(index, &pairs);
                self.last_scan = elapsed_micros(scan_started);
                let rank_started = Instant::now();
                let result =
                    ranking::rank_with_scratch(index, &weighted, k as usize, &mut self.scratch);
                self.last_rank = elapsed_micros(rank_started);
                self.rank_response(query_id, result)
            }
            Message::RankWeightedRequest { query_id, k, terms } => {
                // Central Vocabulary: the receptionist supplies global
                // weights, so scores are identical to a mono-server run.
                // No local scan phase — the weighting already happened
                // client-side.
                let rank_started = Instant::now();
                let result = self.collection.ranked_query_weighted_scratch(
                    &terms,
                    k as usize,
                    &mut self.scratch,
                );
                self.last_rank = elapsed_micros(rank_started);
                self.rank_response(query_id, result)
            }
            Message::ScoreCandidatesRequest {
                query_id,
                terms,
                candidates,
            } => {
                let rank_started = Instant::now();
                let result = self.collection.score_candidates_scratch(
                    &terms,
                    &candidates,
                    &mut self.scratch,
                );
                self.last_rank = elapsed_micros(rank_started);
                match result {
                    Ok((scores, postings_decoded)) => Message::ScoreResponse {
                        query_id,
                        epoch: self.epoch,
                        entries: scores.into_iter().map(|s| (s.doc, s.score)).collect(),
                        postings_decoded,
                    },
                    Err(e) => Message::Error {
                        message: format!("candidate scoring failed: {e}"),
                    },
                }
            }
            Message::FetchDocsRequest {
                query_id,
                docs,
                plain,
            } => {
                let mut out = Vec::with_capacity(docs.len());
                for doc in docs {
                    let docno = match self.collection.store().docno_checked(doc) {
                        Some(d) => d.to_owned(),
                        None => {
                            return Message::Error {
                                message: format!("unknown document id {doc}"),
                            }
                        }
                    };
                    let bytes = if plain {
                        match self.collection.fetch(doc) {
                            Ok(text) => text.into_bytes(),
                            Err(e) => {
                                return Message::Error {
                                    message: format!("fetch failed: {e}"),
                                }
                            }
                        }
                    } else {
                        match self.collection.store().compressed_bytes(doc) {
                            Ok(b) => b.to_vec(),
                            Err(e) => {
                                return Message::Error {
                                    message: format!("fetch failed: {e}"),
                                }
                            }
                        }
                    };
                    out.push((doc, docno, bytes));
                }
                Message::DocsResponse {
                    query_id,
                    docs: out,
                }
            }
            Message::FetchHeadersRequest { query_id, docs } => {
                let mut headers = Vec::with_capacity(docs.len());
                for doc in docs {
                    match self.collection.store().docno_checked(doc) {
                        Some(d) => headers.push((doc, d.to_owned())),
                        None => {
                            return Message::Error {
                                message: format!("unknown document id {doc}"),
                            }
                        }
                    }
                }
                Message::HeadersResponse { query_id, headers }
            }
            Message::BooleanRequest { query_id, expr } => {
                match self.collection.boolean_query(&expr) {
                    Ok(docs) => Message::BooleanResponse { query_id, docs },
                    Err(e) => Message::Error {
                        message: format!("boolean query failed: {e}"),
                    },
                }
            }
            // Handled in `Service::handle` before the ledger is updated.
            Message::Stats => self.stats_reply(),
            Message::RoutingRequest => match &self.routing {
                Some(table) => table.to_message(),
                None => Message::Error {
                    message: "no routing table at this librarian".into(),
                },
            },
            Message::FlightRecRequest => Message::FlightRecReply {
                // A detached recorder dumps an empty (but well-formed)
                // summary — asking is never an error.
                json: self.flight.dump_json(),
            },
            // Requests only a receptionist should ever receive.
            Message::StatsResponse { .. }
            | Message::IndexResponse { .. }
            | Message::RankResponse { .. }
            | Message::ScoreResponse { .. }
            | Message::DocsResponse { .. }
            | Message::HeadersResponse { .. }
            | Message::BooleanResponse { .. }
            | Message::Error { .. }
            | Message::Unavailable { .. }
            | Message::StatsReply { .. }
            | Message::RoutingReply { .. }
            | Message::FlightRecReply { .. } => Message::Error {
                message: "librarian received a response message".into(),
            },
        }
    }
}

impl Service for Librarian {
    fn handle(&mut self, request: Message) -> Message {
        // Admin stats are answered out of band: they do not count as
        // served requests and are not timed, so polling a fleet for
        // health never perturbs the ledger it reads.
        if matches!(request, Message::Stats) {
            return self.stats_reply();
        }
        // Routing-table polls and flight-recorder dumps are admin
        // traffic too: answered out of band so fleet status checks
        // never perturb the service ledger.
        if matches!(request, Message::RoutingRequest | Message::FlightRecRequest) {
            return self.handle_inner(request);
        }
        let started = Instant::now();
        let is_rank = matches!(
            request,
            Message::RankRequest { .. }
                | Message::RankWeightedRequest { .. }
                | Message::ScoreCandidatesRequest { .. }
        );
        // Phase clocks restart per request; non-rank requests report
        // zero scan/rank.
        self.last_scan = 0;
        self.last_rank = 0;
        let response = self.handle_inner(request);
        self.requests_served += 1;
        if is_rank {
            self.rank_requests += 1;
        }
        if matches!(
            response,
            Message::Error { .. } | Message::Unavailable { .. }
        ) {
            self.errors_returned += 1;
        }
        self.latency.record(elapsed_micros(started));
        response
    }

    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        Some((
            std::mem::take(&mut self.last_scan),
            std::mem::take(&mut self.last_rank),
        ))
    }

    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        for (i, (_, micros)) in timings.as_pairs().iter().enumerate() {
            self.phase_totals[i] = self.phase_totals[i].saturating_add(*micros);
        }
        // A span-carrying request leaves a server-side exemplar: a
        // one-level span tree of the four phases, stamped with the
        // client's trace id, so `teraphim flightrec` can surface what a
        // slow request spent its time on without the client's trace.
        if !self.flight.is_enabled() {
            return;
        }
        let Some(span) = span else { return };
        let trace_id = span.trace_id;
        let librarian = span.parent_span;
        let timings = *timings;
        let name = self.collection.name().to_owned();
        self.flight.record_entry(move || {
            let total = timings.total_micros();
            let mut root = Span {
                name: "serve".to_owned(),
                librarian: Some(librarian),
                start_micros: 0,
                duration_micros: total,
                faulted: false,
                children: Vec::new(),
            };
            let mut at = 0u64;
            for (phase, micros) in timings.as_pairs() {
                root.children.push(Span {
                    name: phase.to_owned(),
                    librarian: Some(librarian),
                    start_micros: at,
                    duration_micros: micros,
                    faulted: false,
                    children: Vec::new(),
                });
                at = at.saturating_add(micros);
            }
            let tree = SpanTree {
                trace_id,
                op: name,
                methodology: None,
                query_id: 0,
                k: 0,
                faulted: false,
                degraded: false,
                root,
            };
            FlightEntry {
                trace_id,
                op: tree.op.clone(),
                methodology: None,
                query_id: 0,
                duration_micros: total,
                faulted: false,
                degraded: false,
                json: tree.to_json(),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraphim_net::{InProcTransport, Transport};

    fn librarian() -> Librarian {
        Librarian::from_texts(
            "TEST",
            &[
                ("T-1", "the cat sat on the mat"),
                ("T-2", "dogs and cats and birds"),
                ("T-3", "compression of inverted files"),
            ],
        )
    }

    #[test]
    fn stats_request_returns_vocabulary() {
        let mut lib = librarian();
        let resp = lib.handle(Message::StatsRequest);
        match resp {
            Message::StatsResponse {
                num_docs,
                term_freqs,
            } => {
                assert_eq!(num_docs, 3);
                let cat = term_freqs.iter().find(|(t, _)| t == "cat").unwrap();
                assert_eq!(cat.1, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn index_request_roundtrips_through_serialization() {
        let mut lib = librarian();
        let resp = lib.handle(Message::IndexRequest);
        match resp {
            Message::IndexResponse { index_bytes } => {
                let index = teraphim_index::InvertedIndex::from_bytes(&index_bytes).unwrap();
                assert_eq!(index.num_docs(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rank_request_uses_local_statistics() {
        let mut lib = librarian();
        let resp = lib.handle(Message::RankRequest {
            query_id: 1,
            k: 10,
            terms: vec![("cat".into(), 1)],
        });
        match resp {
            Message::RankResponse {
                query_id, entries, ..
            } => {
                assert_eq!(query_id, 1);
                assert_eq!(entries.len(), 2);
                // Scores strictly ordered.
                assert!(entries[0].1 >= entries[1].1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn weighted_rank_matches_engine() {
        let mut lib = librarian();
        let expected = lib
            .collection()
            .ranked_query_weighted(&[("compression".into(), 2.0)], 5);
        let resp = lib.handle(Message::RankWeightedRequest {
            query_id: 2,
            k: 5,
            terms: vec![("compression".into(), 2.0)],
        });
        match resp {
            Message::RankResponse { entries, .. } => {
                assert_eq!(entries.len(), expected.len());
                for (e, x) in entries.iter().zip(&expected) {
                    assert_eq!(e.0, x.doc);
                    assert!((e.1 - x.score).abs() < 1e-12);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fetch_docs_plain_and_compressed() {
        let mut lib = librarian();
        let plain = lib.handle(Message::FetchDocsRequest {
            query_id: 3,
            docs: vec![0],
            plain: true,
        });
        let Message::DocsResponse {
            docs: plain_docs, ..
        } = plain
        else {
            panic!("bad response");
        };
        assert_eq!(plain_docs[0].1, "T-1");
        assert_eq!(
            String::from_utf8(plain_docs[0].2.clone()).unwrap(),
            "the cat sat on the mat"
        );
        let compressed = lib.handle(Message::FetchDocsRequest {
            query_id: 3,
            docs: vec![0],
            plain: false,
        });
        let Message::DocsResponse {
            docs: comp_docs, ..
        } = compressed
        else {
            panic!("bad response");
        };
        assert!(comp_docs[0].2.len() < plain_docs[0].2.len());
    }

    #[test]
    fn fetch_headers() {
        let mut lib = librarian();
        let resp = lib.handle(Message::FetchHeadersRequest {
            query_id: 4,
            docs: vec![2, 0],
        });
        assert_eq!(
            resp,
            Message::HeadersResponse {
                query_id: 4,
                headers: vec![(2, "T-3".into()), (0, "T-1".into())],
            }
        );
    }

    #[test]
    fn unknown_documents_are_errors() {
        let mut lib = librarian();
        let resp = lib.handle(Message::FetchDocsRequest {
            query_id: 5,
            docs: vec![99],
            plain: true,
        });
        assert!(matches!(resp, Message::Error { .. }));
    }

    #[test]
    fn response_messages_are_rejected() {
        let mut lib = librarian();
        let resp = lib.handle(Message::RankResponse {
            query_id: 1,
            epoch: 0,
            entries: vec![],
        });
        assert!(matches!(resp, Message::Error { .. }));
    }

    #[test]
    fn stats_ledger_counts_requests_and_errors() {
        let mut lib = librarian();
        lib.handle(Message::RankRequest {
            query_id: 1,
            k: 10,
            terms: vec![("cat".into(), 1)],
        });
        lib.handle(Message::FetchHeadersRequest {
            query_id: 2,
            docs: vec![0],
        });
        lib.handle(Message::FetchDocsRequest {
            query_id: 3,
            docs: vec![99],
            plain: true,
        }); // error: unknown doc
        let reply = lib.handle(Message::Stats);
        let Message::StatsReply {
            name,
            num_docs,
            num_terms,
            index_bytes,
            requests_served,
            rank_requests,
            errors,
            epoch,
            latency,
            server_phases,
        } = reply
        else {
            panic!("expected StatsReply");
        };
        assert_eq!(name, "TEST");
        assert_eq!(num_docs, 3);
        assert!(num_terms > 0);
        assert!(index_bytes > 0);
        assert_eq!(requests_served, 3);
        assert_eq!(rank_requests, 1);
        assert_eq!(errors, 1);
        assert_eq!(epoch, 0, "fresh librarian starts at epoch 0");
        let total: u64 = latency.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 3, "every served request is timed");
        assert!(
            server_phases.is_empty(),
            "no phase totals before any span-carrying request: {server_phases:?}"
        );
        // Polling stats again does not count the poll itself.
        let again = lib.handle(Message::Stats);
        if let Message::StatsReply {
            requests_served, ..
        } = again
        {
            assert_eq!(requests_served, 3);
        }
    }

    #[test]
    fn works_through_a_transport() {
        let mut t = InProcTransport::new(librarian());
        let resp = t
            .request(&Message::RankRequest {
                query_id: 7,
                k: 1,
                terms: vec![("cat".into(), 1)],
            })
            .unwrap();
        assert!(matches!(resp, Message::RankResponse { .. }));
        assert!(t.stats().total_bytes() > 0);
    }

    #[test]
    fn store_backed_librarian_recovers_epoch_and_rankings() {
        let dir = teraphim_store::TempDir::new("librarian").unwrap();
        let docs: Vec<TrecDoc> = [
            ("T-1", "the cat sat on the mat"),
            ("T-2", "dogs and cats and birds"),
        ]
        .iter()
        .map(|(docno, text)| TrecDoc {
            docno: (*docno).to_owned(),
            text: (*text).to_owned(),
        })
        .collect();
        let mut lib =
            Librarian::create_store(dir.path(), "TEST", &Analyzer::default(), &docs).unwrap();
        assert_eq!(lib.epoch(), 0);
        let batch = vec![TrecDoc {
            docno: "T-3".into(),
            text: "compression of inverted files".into(),
        }];
        assert_eq!(lib.add_documents(&batch).unwrap(), 1);
        let expected: Vec<(u32, u64)> = lib
            .collection()
            .ranked_query("cat compression", 10)
            .into_iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect();
        drop(lib);

        let mut reopened = Librarian::open(dir.path()).unwrap();
        assert_eq!(reopened.epoch(), 1, "epoch is durable across reopen");
        let got: Vec<(u32, u64)> = reopened
            .collection()
            .ranked_query("cat compression", 10)
            .into_iter()
            .map(|h| (h.doc, h.score.to_bits()))
            .collect();
        assert_eq!(got, expected, "recovered rankings are byte-identical");
        // The recovered epoch flows through StatsReply unchanged.
        let reply = reopened.handle(Message::Stats);
        let Message::StatsReply { epoch, .. } = reply else {
            panic!("expected StatsReply");
        };
        assert_eq!(epoch, 1);
    }

    #[test]
    fn failed_wal_append_leaves_memory_untouched() {
        let dir = teraphim_store::TempDir::new("librarian-crash").unwrap();
        let mut lib =
            Librarian::create_store(dir.path(), "TEST", &Analyzer::default(), &[]).unwrap();
        lib.store_mut()
            .unwrap()
            .inject_crash(teraphim_store::CrashPoint {
                offset: 3,
                mode: teraphim_store::CrashMode::Truncate,
            });
        let batch = vec![TrecDoc {
            docno: "X-1".into(),
            text: "never committed".into(),
        }];
        assert!(matches!(
            lib.add_documents(&batch),
            Err(crate::TeraphimError::Store(_))
        ));
        assert_eq!(lib.epoch(), 0, "epoch must not advance past durability");
        assert_eq!(lib.num_docs(), 0, "in-memory index must not run ahead");
    }

    #[test]
    fn score_candidates_round_trip() {
        let mut lib = librarian();
        let resp = lib.handle(Message::ScoreCandidatesRequest {
            query_id: 8,
            terms: vec![("cat".into(), 1.0)],
            candidates: vec![0, 1, 2],
        });
        match resp {
            Message::ScoreResponse { entries, .. } => {
                assert_eq!(entries.len(), 3);
                assert!(entries[0].1 > 0.0); // T-1 contains cat
                assert_eq!(entries[2].1, 0.0); // T-3 does not
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
