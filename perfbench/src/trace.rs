//! Benchmark-owned spans around the calls into each layer.
//!
//! Nothing inside the program is instrumented: a [`Traced`] transport
//! decorator times every exchange a receptionist makes, a [`Timed`]
//! service decorator times every request a librarian handles, and the
//! workload code times each receptionist call. Spans live in memory
//! until the run ends; [`link`] then attaches each librarian span to the
//! exchange that caused it, and [`self_time`] gives each span's duration
//! minus the part of it its children cover.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use teraphim_net::{Message, NetError, Service, Ticket, TrafficStats, Transport};
use teraphim_obs::{ServerTimings, SpanContext, TraceSink};

/// Name of the span a [`Traced`] transport records per exchange.
pub const EXCHANGE: &str = "net.exchange";

/// One timed interval.
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Unique within the run; 0 is never used.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The benchmark operation (query) the span belongs to.
    pub op: u64,
    /// Layer boundary: `op`, `receptionist.query`, `receptionist.fetch`,
    /// [`EXCHANGE`] or `librarian.<request kind>`.
    pub name: &'static str,
    /// Methodology code on receptionist spans.
    pub label: &'static str,
    /// Librarian index on exchange and librarian spans.
    pub lib: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    /// Nanoseconds since the tracer was created.
    pub end: u64,
    /// Hash of the encoded request, pairing an exchange with the
    /// librarian request it carried.
    pub fp: u64,
    /// Server queue wait piggybacked on the reply (exchanges only).
    pub queue_us: Option<u64>,
    /// Engine scan time reported by the librarian (librarian spans).
    pub scan_us: u64,
    /// Engine rank time reported by the librarian (librarian spans).
    pub rank_us: u64,
    /// Postings decoded, from Central Index score replies.
    pub postings: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span log shared by every decorator of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Which operation and receptionist call a client is inside, read by
/// that client's transports (including fan-out worker threads).
#[derive(Debug, Default)]
pub struct Ctx {
    op: AtomicU64,
    parent: AtomicU64,
}

impl Ctx {
    pub fn enter(&self, op: u64, parent: u64) {
        self.op.store(op, Ordering::Relaxed);
        self.parent.store(parent, Ordering::Relaxed);
    }
}

/// FNV-1a over a request's wire encoding.
fn fingerprint(message: &Message) -> u64 {
    message
        .encode()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A transport decorator recording one [`EXCHANGE`] span per exchange.
pub struct Traced<T> {
    inner: T,
    lib: u32,
    tracer: Arc<Tracer>,
    ctx: Arc<Ctx>,
    /// Start and fingerprint of the exchange begun and not yet finished.
    open: Option<(u64, u64)>,
}

impl<T: Transport> Traced<T> {
    pub fn new(inner: T, lib: u32, tracer: Arc<Tracer>, ctx: Arc<Ctx>) -> Self {
        Traced {
            inner,
            lib,
            tracer,
            ctx,
            open: None,
        }
    }

    fn close(&self, start: u64, fp: u64) {
        let end = self.tracer.now();
        self.tracer.push(Span {
            id: self.tracer.id(),
            parent: self.ctx.parent.load(Ordering::Relaxed),
            op: self.ctx.op.load(Ordering::Relaxed),
            name: EXCHANGE,
            lib: Some(self.lib),
            start,
            end,
            fp,
            queue_us: self.inner.last_server_timings().map(|t| t.queue_micros),
            ..Span::default()
        });
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn request(&mut self, request: &Message) -> Result<Message, NetError> {
        let fp = fingerprint(request);
        let start = self.tracer.now();
        let reply = self.inner.request(request);
        self.close(start, fp);
        reply
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }

    fn last_exchange(&self) -> (u64, u64) {
        self.inner.last_exchange()
    }

    fn begin(&mut self, request: &Message) -> Ticket {
        self.open = Some((self.tracer.now(), fingerprint(request)));
        self.inner.begin(request)
    }

    fn finish(&mut self, ticket: Ticket) -> Result<Message, NetError> {
        let reply = self.inner.finish(ticket);
        if let Some((start, fp)) = self.open.take() {
            self.close(start, fp);
        }
        reply
    }

    fn set_trace(&mut self, trace: TraceSink, librarian: u32) {
        self.inner.set_trace(trace, librarian);
    }

    fn last_server_timings(&self) -> Option<ServerTimings> {
        self.inner.last_server_timings()
    }
}

/// Span name for a librarian request kind.
fn request_kind(request: &Message) -> &'static str {
    match request {
        Message::RankRequest { .. } => "librarian.rank",
        Message::RankWeightedRequest { .. } => "librarian.rank_weighted",
        Message::ScoreCandidatesRequest { .. } => "librarian.score_candidates",
        Message::FetchDocsRequest { .. } => "librarian.fetch_docs",
        Message::StatsRequest => "librarian.stats",
        Message::IndexRequest => "librarian.index",
        _ => "librarian.other",
    }
}

/// A service decorator that, while a tracer is attached, records one
/// `librarian.<kind>` span per request with the engine's scan/rank
/// split. Without a tracer it only forwards.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    lib: u32,
    tracer: Option<Arc<Tracer>>,
    /// Phase timings taken from `inner` for the last traced request,
    /// handed on when the serving layer asks for them.
    phases: Option<(u64, u64)>,
}

impl<S: Service> Timed<S> {
    pub fn new(inner: S, lib: u32) -> Self {
        Timed {
            inner,
            lib,
            tracer: None,
            phases: None,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
        self.phases = None;
    }
}

impl<S: Service> Service for Timed<S> {
    fn handle(&mut self, request: Message) -> Message {
        let Some(tracer) = self.tracer.clone() else {
            return self.inner.handle(request);
        };
        if request.is_admin() {
            return self.inner.handle(request);
        }
        let name = request_kind(&request);
        let fp = fingerprint(&request);
        let start = tracer.now();
        let reply = self.inner.handle(request);
        let end = tracer.now();
        self.phases = self.inner.take_phase_timings();
        let (scan_us, rank_us) = self.phases.unwrap_or((0, 0));
        let postings = match &reply {
            Message::ScoreResponse {
                postings_decoded, ..
            } => *postings_decoded,
            _ => 0,
        };
        tracer.push(Span {
            id: tracer.id(),
            name,
            lib: Some(self.lib),
            start,
            end,
            fp,
            scan_us,
            rank_us,
            postings,
            ..Span::default()
        });
        reply
    }

    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        if self.tracer.is_some() {
            self.phases.take()
        } else {
            self.inner.take_phase_timings()
        }
    }

    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        self.inner.note_server_timings(timings, span);
    }
}

/// A service shared with the benchmark, so a shard served over TCP can
/// still be reached for ingest and inspection.
pub struct SharedService<S>(pub Arc<Mutex<S>>);

impl<S: Service> Service for SharedService<S> {
    fn handle(&mut self, request: Message) -> Message {
        self.0.lock().expect("shard lock poisoned").handle(request)
    }

    fn take_phase_timings(&mut self) -> Option<(u64, u64)> {
        self.0
            .lock()
            .expect("shard lock poisoned")
            .take_phase_timings()
    }

    fn note_server_timings(&mut self, timings: &ServerTimings, span: Option<&SpanContext>) {
        self.0
            .lock()
            .expect("shard lock poisoned")
            .note_server_timings(timings, span);
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// `parent`'s self time: its duration minus the union of its children.
pub fn self_time(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children.iter().map(|c| (c.start, c.end)).collect();
    parent.dur() - union_len(&mut iv, parent.start, parent.end)
}

/// Length of the critical path through a fan-out's exchanges: the
/// exchange that ended last, then the one that ended last before that one
/// started, and so on. With a core per exchange this is the slowest
/// exchange; with fewer cores the exchanges run in waves and it spans
/// them all.
pub fn critical_path(exchanges: &[&Span]) -> u64 {
    let mut total = 0;
    let mut before = u64::MAX;
    while let Some(last) = exchanges
        .iter()
        .filter(|e| e.end <= before && e.start < before)
        .max_by_key(|e| (e.end, e.dur()))
    {
        total += last.dur();
        before = last.start;
    }
    total
}

/// Gives every librarian span the exchange that carried its request as
/// parent: same librarian, same request fingerprint, and an interval
/// inside the exchange's. Returns how many librarian spans found none.
pub fn link(spans: &mut [Span]) -> usize {
    use std::collections::HashMap;
    let mut exchanges: HashMap<(Option<u32>, u64), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == EXCHANGE {
            exchanges.entry((s.lib, s.fp)).or_default().push(i);
        }
    }
    let mut claimed = vec![false; spans.len()];
    let mut unlinked = 0;
    for i in 0..spans.len() {
        if !spans[i].name.starts_with("librarian.") {
            continue;
        }
        let (start, end) = (spans[i].start, spans[i].end);
        let found = exchanges.get(&(spans[i].lib, spans[i].fp)).and_then(|c| {
            c.iter()
                .copied()
                .find(|&x| !claimed[x] && spans[x].start <= start && end <= spans[x].end)
        });
        match found {
            Some(x) => {
                claimed[x] = true;
                spans[i].parent = spans[x].id;
                spans[i].op = spans[x].op;
            }
            None => unlinked += 1,
        }
    }
    unlinked
}

/// Writes `spans` as JSON lines, each with its self time.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let children = children_index(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        let kids: Vec<&Span> = children
            .get(&s.id)
            .map(|v| v.iter().map(|&i| &spans[i]).collect())
            .unwrap_or_default();
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"label\": \"{}\", \"lib\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.label,
            s.lib.map_or("null".to_owned(), |l| l.to_string()),
            s.start,
            s.end,
            self_time(s, &kids)
        )?;
    }
    out.flush()
}

/// Child span indices per parent id.
pub fn children_index(spans: &[Span]) -> std::collections::HashMap<u64, Vec<usize>> {
    let mut map: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            map.entry(s.parent).or_default().push(i);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            start,
            end,
            ..Span::default()
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(1, 0, 100, 200);
        // Two overlapping children (110..150, 140..170), one nested in
        // another (120..130) and one sticking out past the end.
        let kids = [
            span(2, 1, 110, 150),
            span(3, 1, 140, 170),
            span(4, 1, 120, 130),
            span(5, 1, 190, 260),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        // Covered: 110..170 (60) + 190..200 (10).
        assert_eq!(self_time(&parent, &refs), 30);
        assert_eq!(self_time(&parent, &[]), 100);
        let mut disjoint = [(0, 10), (20, 30)];
        assert_eq!(union_len(&mut disjoint, 0, 100), 20);
    }

    #[test]
    fn librarian_spans_link_to_the_containing_exchange_with_their_fingerprint() {
        let mut spans = vec![
            Span {
                name: EXCHANGE,
                lib: Some(0),
                fp: 7,
                op: 3,
                ..span(1, 9, 0, 100)
            },
            Span {
                name: EXCHANGE,
                lib: Some(0),
                fp: 8,
                op: 4,
                ..span(2, 9, 0, 100)
            },
            Span {
                name: "librarian.rank",
                lib: Some(0),
                fp: 8,
                ..span(3, 0, 10, 20)
            },
            Span {
                name: "librarian.rank",
                lib: Some(1),
                fp: 8,
                ..span(4, 0, 10, 20)
            },
        ];
        assert_eq!(link(&mut spans), 1);
        assert_eq!((spans[2].parent, spans[2].op), (2, 4));
        assert_eq!(spans[3].parent, 0);
    }
}
