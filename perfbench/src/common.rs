//! Pieces the workloads share: shards, load generation, ingest, set-up
//! timing, and the per-layer figures computed from a traced phase.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use teraphim_core::{CacheStats, Librarian};
use teraphim_net::TrafficStats;

use crate::cpu;
use crate::inputs::Batch;
use crate::report::Report;
use crate::stats::{median, percentile, sorted, supports, tail_percentile};
use crate::trace::{self, Span, Timed, Tracer, EXCHANGE};

/// Answer size of every query.
pub const K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Calibration kernels run before and after each set-up.
const SETUP_KERNELS: usize = 25;
/// Documents per ingest batch.
pub const BATCH_DOCS: usize = 10;
/// A receptionist call passes the sum check when its self time plus the
/// critical path through its exchanges is within this share of the
/// call's duration...
pub const SUM_TOLERANCE_SHARE: f64 = 0.10;
/// ...or within this many microseconds, whichever is larger. The gap is
/// time some exchange was running but none on the critical path was:
/// the stagger of exchange starts (thread start-up, request encoding).
pub const SUM_TOLERANCE_US: f64 = 200.0;

/// A librarian the benchmark can reach while it serves.
pub type Shard = Arc<Mutex<Timed<Librarian>>>;

pub fn shard(librarian: Librarian, index: usize) -> Shard {
    Arc::new(Mutex::new(Timed::new(librarian, index as u32)))
}

pub fn set_tracer(shards: &[Shard], tracer: Option<&Arc<Tracer>>) {
    for s in shards {
        s.lock()
            .expect("shard lock poisoned")
            .set_tracer(tracer.cloned());
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time of each set-up part, in seconds.
pub type SetupParts = BTreeMap<&'static str, f64>;

/// Runs `setup` [`SETUP_REPS`] times, keeping the last system built.
/// Reports `setup_s` (median total) and the median of each part, all in
/// process CPU seconds on the reference CPU (see [`crate::cpu`]).
pub fn repeated_setup<T>(report: &mut Report, mut setup: impl FnMut() -> (T, SetupParts)) -> T {
    let mut totals = Vec::new();
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut system = None;
    let speed = || {
        let kernel: Vec<f64> = (0..SETUP_KERNELS)
            .map(|_| cpu::calibrate().as_secs_f64())
            .collect();
        median(&kernel)
    };
    for _ in 0..SETUP_REPS {
        drop(system.take());
        let before = speed();
        let started = cpu::process_cpu();
        let (built, p) = setup();
        let secs = cpu::secs_since(started);
        // The host's speed read just before and just after the set-up.
        let scale = cpu::to_reference(Duration::from_secs_f64(median(&[before, speed()])));
        totals.push(secs * scale);
        for (name, secs) in p {
            parts.entry(name).or_default().push(secs * scale);
        }
        system = Some(built);
    }
    report.e2e("setup_s", median(&totals), "s");
    for (name, values) in parts {
        report.line(format!(
            "{name:<40} {:>14.6} s (median of {SETUP_REPS})",
            median(&values)
        ));
        if ["setup.build_s", "setup.cv_s", "setup.fleet_s"].contains(&name) {
            report.layer(name, median(&values), "s");
        }
    }
    system.expect("at least one set-up")
}

/// One operation of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time from issue to completion.
    pub wall: Duration,
    /// Process CPU time from issue to completion (see [`crate::cpu`]).
    pub cpu: Duration,
    /// Process CPU time of the calibration kernel run right after it.
    pub kernel: Duration,
}

/// Runs one operation, then the calibration kernel, returning the
/// operation's result and its [`Sample`].
pub fn measure<R>(op: impl FnOnce() -> R) -> (R, Sample) {
    let started = Instant::now();
    let (r, cpu) = cpu::timed(op);
    let wall = started.elapsed();
    let kernel = cpu::calibrate();
    (r, Sample { wall, cpu, kernel })
}

/// Operations that share one reading of the host's speed: the median
/// calibration kernel time over the window (see [`crate::cpu`]).
pub const SPEED_WINDOW: usize = 64;

/// Query figures of one measured phase, on the reference CPU.
pub struct QueryFigures {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub per_s: f64,
}

/// Each sample's CPU time scaled to the reference CPU, in ms: samples are
/// cut, in order, into windows of [`SPEED_WINDOW`], and each window is
/// scaled by the median calibration kernel time measured in it.
pub fn reference_ms(samples: &[Sample]) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.len());
    for window in samples.chunks(SPEED_WINDOW) {
        let kernel = median(
            &window
                .iter()
                .map(|s| s.kernel.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let scale = cpu::to_reference(Duration::from_secs_f64(kernel));
        out.extend(window.iter().map(|s| ms(s.cpu) * scale));
    }
    out
}

/// Summarises the samples of one phase, which ran for `wall`: exact
/// percentiles of the per-operation CPU times on the reference CPU, and
/// operations per reference-CPU second over the whole phase. The raw CPU
/// times and the wall clock are printed beside them.
pub fn query_figures(report: &mut Report, samples: &[Sample], wall: Duration) -> QueryFigures {
    let reference = sorted(&reference_ms(samples));
    let cpu = sorted(&samples.iter().map(|s| ms(s.cpu)).collect::<Vec<_>>());
    let lat = sorted(&samples.iter().map(|s| ms(s.wall)).collect::<Vec<_>>());
    let kernel = sorted(&samples.iter().map(|s| ms(s.kernel)).collect::<Vec<_>>());
    if !supports(cpu.len(), 99.0) {
        report.fail(format!("only {} queries: p99 needs 1000", cpu.len()));
    }
    let deciles = |v: &[f64]| {
        (1..10)
            .map(|d| (percentile(v, d as f64 * 10.0) * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    };
    report.line(format!(
        "queries: {} in {:.3} s; reference-CPU deciles (ms): {:?}",
        cpu.len(),
        wall.as_secs_f64(),
        deciles(&reference)
    ));
    report.line(format!(
        "host speed: calibration kernel p10 {:.4} ms, p50 {:.4} ms, p90 {:.4} ms (reference {:.4} ms)",
        percentile(&kernel, 10.0),
        percentile(&kernel, 50.0),
        percentile(&kernel, 90.0),
        ms(cpu::REFERENCE)
    ));
    // The highest percentile with ten samples beyond it.
    let tail = tail_percentile(cpu.len()).unwrap_or(50.0);
    report.line(format!(
        "query_p{tail}_ref_ms {:>36.4} ms of {} (printed only)",
        percentile(&reference, tail),
        cpu.len()
    ));
    report.line(format!(
        "process CPU clock: query p50 {:.4} ms, p90 {:.4} ms, p{tail} {:.4} ms (printed only)",
        percentile(&cpu, 50.0),
        percentile(&cpu, 90.0),
        percentile(&cpu, tail)
    ));
    report.line(format!(
        "wall clock: query p50 {:.4} ms, p90 {:.4} ms, p{tail} {:.4} ms, {:.2} queries/s (printed only)",
        percentile(&lat, 50.0),
        percentile(&lat, 90.0),
        percentile(&lat, tail),
        lat.len() as f64 / wall.as_secs_f64()
    ));
    QueryFigures {
        p50_ms: percentile(&reference, 50.0),
        p90_ms: percentile(&reference, 90.0),
        per_s: reference.len() as f64 * 1e3 / reference.iter().sum::<f64>(),
    }
}

/// The end-to-end query metrics.
pub fn report_query_figures(report: &mut Report, f: &QueryFigures) {
    report.e2e("query_p50_ref_ms", f.p50_ms, "ms");
    report.e2e("query_p90_ref_ms", f.p90_ms, "ms");
    report.e2e("queries_per_ref_s", f.per_s, "1/s");
}

/// What an ingest stream measured.
#[derive(Default)]
pub struct Ingest {
    /// Each acknowledged `add_documents` call, lock held.
    pub calls: Vec<Sample>,
    /// Calls after which the store had fewer pending WAL batches.
    pub checkpoints: u64,
    /// Batches acknowledged, per shard, in order.
    pub acked: Vec<Vec<Batch>>,
    /// Why each failed append failed.
    pub errors: Vec<String>,
}

impl Ingest {
    pub fn new(shards: usize) -> Ingest {
        Ingest {
            acked: vec![Vec::new(); shards],
            ..Ingest::default()
        }
    }

    /// Appends `batch` to its shard with `Librarian::add_documents`,
    /// holding the shard's lock as the serving layer does.
    pub fn append(&mut self, shards: &[Shard], batch: &Batch) {
        let mut guard = shards[batch.shard].lock().expect("shard lock poisoned");
        let librarian = guard.inner_mut();
        let pending = librarian.store().map(|s| s.pending_batches());
        let (result, sample) = measure(|| librarian.add_documents(&batch.docs));
        let pending_after = librarian.store().map(|s| s.pending_batches());
        drop(guard);
        match result {
            Ok(_) => {
                self.calls.push(sample);
                self.acked[batch.shard].push(batch.clone());
                if pending_after < pending {
                    self.checkpoints += 1;
                }
            }
            Err(e) => self.errors.push(e.to_string()),
        }
    }

    /// Counts the stream's appends as operations of `report`.
    pub fn count_ops(&self, report: &mut Report) {
        for _ in &self.calls {
            report.op("add_documents", Ok(()));
        }
        for e in &self.errors {
            report.op("add_documents", Err(e.clone()));
        }
    }
}

/// The `store.*` lines of an ingest stream: `add_documents` times, on
/// both clocks, and the checkpoints it made.
pub fn report_ingest(report: &mut Report, ingest: &Ingest) {
    let cpu = sorted(&ingest.calls.iter().map(|s| ms(s.cpu)).collect::<Vec<_>>());
    let wall = sorted(&ingest.calls.iter().map(|s| ms(s.wall)).collect::<Vec<_>>());
    report.line(format!(
        "store.add_documents: {} batches; CPU time p50 {:.4} ms, p90 {:.4} ms; wall clock p50 {:.4} ms, p90 {:.4} ms",
        cpu.len(),
        percentile(&cpu, 50.0),
        percentile(&cpu, 90.0),
        percentile(&wall, 50.0),
        percentile(&wall, 90.0)
    ));
    report.line(format!(
        "store.checkpoints during the phase: {}",
        ingest.checkpoints
    ));
}

/// Checks that every acknowledged batch is held by the shard, in order,
/// at the ids after the `base` documents it started with: same docno and
/// byte-identical text.
pub fn check_acked(librarian: &Librarian, base: u64, acked: &[Batch]) -> Result<(), String> {
    let expected = base + acked.iter().map(|b| b.docs.len() as u64).sum::<u64>();
    if librarian.num_docs() != expected {
        return Err(format!(
            "{}: {} documents, expected {expected}",
            librarian.name(),
            librarian.num_docs()
        ));
    }
    let collection = librarian.collection();
    for (i, doc) in acked.iter().flat_map(|b| &b.docs).enumerate() {
        let id = u32::try_from(base + i as u64).expect("document id fits u32");
        let text = collection.fetch(id).map_err(|e| e.to_string())?;
        if collection.docno(id) != doc.docno || text != doc.text {
            return Err(format!(
                "{}: document {id} is not {}",
                librarian.name(),
                doc.docno
            ));
        }
    }
    Ok(())
}

/// Total size of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Cache and traffic counters of a set of receptionists, summed.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub cache: CacheStats,
    pub traffic: TrafficStats,
}

impl Counters {
    pub fn add(&mut self, cache: Option<CacheStats>, traffic: TrafficStats) {
        if let Some(c) = cache {
            for (sum, part) in [
                (&mut self.cache.results, c.results),
                (&mut self.cache.terms, c.terms),
                (&mut self.cache.docs, c.docs),
            ] {
                sum.hits += part.hits;
                sum.misses += part.misses;
                sum.stale += part.stale;
                sum.evictions += part.evictions;
            }
        }
        self.traffic.absorb(&traffic);
    }
}

/// `cache.*` and traffic-per-query metrics for a phase of `ops` queries.
pub fn report_counters(report: &mut Report, before: &Counters, after: &Counters, ops: usize) {
    let (b, a) = (&before.cache, &after.cache);
    let mut stale = 0;
    let mut evictions = 0;
    for (name, x, y) in [
        ("result", b.results, a.results),
        ("term", b.terms, a.terms),
        ("doc", b.docs, a.docs),
    ] {
        let hits = y.hits - x.hits;
        let lookups = hits + y.misses - x.misses;
        report.layer(
            &format!("cache.{name}_hit_ratio"),
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "ratio",
        );
        report.line(format!("cache.{name}_lookups {lookups:>46}"));
        stale += y.stale - x.stale;
        evictions += y.evictions - x.evictions;
    }
    report.layer("cache.stale", stale as f64, "count");
    report.layer("cache.evictions", evictions as f64, "count");
    let ops = ops.max(1) as f64;
    let (tb, ta) = (&before.traffic, &after.traffic);
    report.layer(
        "net.round_trips_per_query",
        (ta.round_trips - tb.round_trips) as f64 / ops,
        "count",
    );
    report.layer(
        "net.bytes_per_query",
        (ta.total_bytes() - tb.total_bytes()) as f64 / ops,
        "bytes",
    );
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Per-layer figures from the spans of a traced phase that ran for
/// `wall` over `libs` librarians, plus the per-call sum check; spans are
/// written to `out` first.
pub fn report_layers(
    report: &mut Report,
    mut spans: Vec<Span>,
    wall: Duration,
    libs: usize,
    out: &Path,
    header: &str,
) {
    let unlinked = trace::link(&mut spans);
    if let Err(e) = trace::write_jsonl(out, header, &spans) {
        report.fail(format!("writing {}: {e}", out.display()));
    }
    let children = trace::children_index(&spans);
    let kids = |s: &Span| -> Vec<&Span> {
        children
            .get(&s.id)
            .map(|v| v.iter().map(|&i| &spans[i]).collect())
            .unwrap_or_default()
    };

    let mut self_by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut self_all = Vec::new();
    let mut critical = Vec::new();
    let mut gaps = Vec::new();
    let mut within = 0usize;
    let mut outside_call = 0usize;
    let mut query_calls = 0usize;
    for call in spans.iter().filter(|s| s.name.starts_with("receptionist.")) {
        if call.name == "receptionist.query" {
            query_calls += 1;
        }
        let exchanges: Vec<&Span> = kids(call)
            .into_iter()
            .filter(|c| c.name == EXCHANGE)
            .collect();
        outside_call += exchanges
            .iter()
            .filter(|e| e.start < call.start || e.end > call.end)
            .count();
        let own = trace::self_time(call, &exchanges);
        let path = trace::critical_path(&exchanges);
        // Self time plus the critical path against the call span: the gap
        // is receptionist time overlapped by an exchange off the path.
        let gap = us(call.dur()) - us(own + path);
        if gap <= (SUM_TOLERANCE_SHARE * us(call.dur())).max(SUM_TOLERANCE_US) {
            within += 1;
        }
        gaps.push(gap);
        self_all.push(us(own));
        self_by_label.entry(call.label).or_default().push(us(own));
        if !exchanges.is_empty() {
            critical.push(us(path));
        }
    }
    let gaps = sorted(&gaps);
    report.line(format!(
        "sum check: self + critical path = call span within max({:.0}%, {SUM_TOLERANCE_US:.0} us) for {within} of {} receptionist calls; gap p50 {:.1}, p99 {:.1}, max {:.1} us",
        SUM_TOLERANCE_SHARE * 100.0,
        gaps.len(),
        percentile(&gaps, 50.0),
        percentile(&gaps, 99.0),
        gaps.last().copied().unwrap_or(0.0)
    ));
    if outside_call > 0 {
        report.fail(format!(
            "{outside_call} exchange spans lie outside their receptionist call"
        ));
    }
    if unlinked > 0 {
        report.fail(format!("{unlinked} librarian spans matched no exchange"));
    }
    report.layer("receptionist.self_us", p50(&self_all), "us");
    for (label, v) in &self_by_label {
        report.line(format!(
            "receptionist.self_us[{label}]{:<pad$} {:>14.4} us (p50 of {})",
            "",
            p50(v),
            v.len(),
            pad = 18usize.saturating_sub(label.len())
        ));
    }

    let exchanges: Vec<&Span> = spans.iter().filter(|s| s.name == EXCHANGE).collect();
    let ex_dur: Vec<f64> = exchanges.iter().map(|e| us(e.dur())).collect();
    let ex_self: Vec<f64> = exchanges
        .iter()
        .map(|e| us(trace::self_time(e, &kids(e))))
        .collect();
    report.layer("net.exchange_us", p50(&ex_dur), "us");
    report.layer("net.exchange_self_us", p50(&ex_self), "us");
    report.layer("net.fanout_critical_us", p50(&critical), "us");
    let queue = sorted(
        &exchanges
            .iter()
            .filter_map(|e| e.queue_us)
            .map(|q| q as f64)
            .collect::<Vec<_>>(),
    );
    if queue.iter().any(|&q| q > 0.0) {
        report.line(format!(
            "net.server_queue_us                      p50 {:.1}, p99 {:.1} us ({} exchanges)",
            percentile(&queue, 50.0),
            percentile(&queue, 99.0),
            queue.len()
        ));
    }

    let handles: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("librarian."))
        .collect();
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for h in &handles {
        by_kind.entry(h.name).or_default().push(us(h.dur()));
    }
    for (kind, v) in &by_kind {
        report.line(format!(
            "{kind}_us{:<pad$} {:>14.4} us (p50 of {})",
            "",
            p50(v),
            v.len(),
            pad = 37usize.saturating_sub(kind.len())
        ));
    }
    let weighted = by_kind
        .get("librarian.rank_weighted")
        .cloned()
        .unwrap_or_default();
    report.layer("librarian.rank_weighted_us", p50(&weighted), "us");
    let busy: u64 = handles.iter().map(|h| h.dur()).sum();
    report.layer(
        "librarian.busy_frac",
        busy as f64 / (wall.as_nanos() as f64 * libs as f64),
        "ratio",
    );

    let ranked: Vec<&&Span> = handles
        .iter()
        .filter(|h| {
            matches!(
                h.name,
                "librarian.rank" | "librarian.rank_weighted" | "librarian.score_candidates"
            )
        })
        .collect();
    let mean = |f: fn(&Span) -> u64| {
        ranked.iter().map(|h| f(h) as f64).sum::<f64>() / ranked.len().max(1) as f64
    };
    // Means: the engine reports whole microseconds. Only local-weight
    // requests (MS/CN) have a scan phase, so scan is not a result metric.
    report.line(format!(
        "engine.scan_us (mean)                    {:>14.4} us",
        mean(|h| h.scan_us)
    ));
    report.layer("engine.rank_us", mean(|h| h.rank_us), "us");
    let postings: u64 = handles.iter().map(|h| h.postings).sum();
    report.layer(
        "engine.postings_decoded_per_query",
        postings as f64 / query_calls.max(1) as f64,
        "count",
    );
}

/// One client's tracing state in a traced phase.
pub struct Probe {
    pub tracer: Arc<Tracer>,
    pub ctx: Arc<trace::Ctx>,
    /// Duration of a separate `Receptionist::analyze_query` per query (us).
    pub analyze_us: Vec<f64>,
}

impl Probe {
    pub fn new(tracer: &Arc<Tracer>) -> Probe {
        Probe {
            tracer: Arc::clone(tracer),
            ctx: Arc::new(trace::Ctx::default()),
            analyze_us: Vec::new(),
        }
    }

    /// Times `analyze` outside any span.
    pub fn analyze<R>(&mut self, analyze: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let r = analyze();
        self.analyze_us.push(started.elapsed().as_secs_f64() * 1e6);
        r
    }
}

/// Runs `f` inside a span `name` (child of `parent`, operation `op`)
/// when `probe` is set; transports called by `f` attach their exchange
/// spans to it.
pub fn span<R>(
    probe: Option<&Probe>,
    op: u64,
    parent: u64,
    name: &'static str,
    label: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    let Some(p) = probe else { return f(0) };
    let id = p.tracer.id();
    p.ctx.enter(op, id);
    let start = p.tracer.now();
    let r = f(id);
    p.tracer.push(Span {
        id,
        parent,
        op,
        name,
        label,
        start,
        end: p.tracer.now(),
        ..Span::default()
    });
    r
}

/// Runs verification jobs on two threads, free to use every CPU (after
/// the measured phase, so they compete with nothing), and returns their
/// results in order.
pub fn verify_all<T: Sync, R: Send>(items: &[T], check: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2);
    let (a, b) = items.split_at(half);
    cpu::on_all_cpus(|| {
        std::thread::scope(|s| {
            let check = &check;
            let second = s.spawn(move || b.iter().map(check).collect::<Vec<R>>());
            let mut out: Vec<R> = a.iter().map(check).collect();
            out.extend(second.join().expect("verification thread panicked"));
            out
        })
    })
}
