//! `zipf_ingest`: reads among writes. One client runs a closed loop of
//! short Central Vocabulary queries drawn by Zipf from a pool several
//! times larger than the default result cache, and before every
//! [`READS_PER_BATCH`]th read appends a fixed-size batch, round-robin
//! over store-backed shards. Set-up is the restart path:
//! `Librarian::open` replays WAL batches the benchmark left pending.
//!
//! Reads and writes share one thread so that each operation's process
//! CPU time is its own (see `crate::cpu`); a writer thread beside an open
//! read loop put `query_p90_ms` on the knee of waits for writer-held
//! locks, and it varied by 85% between runs on the reference host.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use teraphim_core::{CacheConfig, GlobalHit, Librarian, Methodology, Receptionist};
use teraphim_corpus::SyntheticCorpus;
use teraphim_net::{DispatchMode, InProcTransport, Transport};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::common::*;
use crate::cpu;
use crate::inputs::{
    corpus_spec, derive, distinct_and_repeat_share, distinct_queries, ingest_batches, zipf_draws,
    Batch,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{Timed, Traced, Tracer};

/// Reads per appended batch: the mix of 100 queries/s beside 0.8
/// batches/s that the paper-scale plan named.
pub const READS_PER_BATCH: usize = 125;
/// Upper bound on the read rate, for sizing the draws.
const MAX_QPS: usize = 1_500;
/// Upper bound on the append rate (a batch merges for ~64 ms).
const MAX_BPS: usize = 20;
/// Distinct queries the reads draw from: four times the default
/// result-cache capacity.
pub const POOL: usize = 1024;
/// Zipf exponent of query popularity.
pub const ZIPF_S: f64 = 0.8;
/// WAL batches left pending in each shard before the run, replayed by
/// every `Librarian::open` of the set-up. The store checkpoints once 8
/// batches are pending, inside the `add_documents` call that reaches 8,
/// so a measured phase holds several checkpoints per shard.
const PENDING: usize = 1;
/// Queries checked for cache transparency after the run.
const SAMPLE: usize = 64;

type Lib = InProcTransport<Timed<Librarian>>;

struct Fleet {
    shards: Vec<Shard>,
    rec: Receptionist<Lib>,
}

/// Writes each shard's store: the base documents, then its pending
/// batches. Untimed set-up; returns the time of the index builds.
fn prepare(dir: &Path, parts: &[(&str, &[TrecDoc])], pending: &[Vec<Batch>]) -> f64 {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the store directory");
    let mut build = 0.0;
    for ((name, docs), batches) in parts.iter().zip(pending) {
        let t = cpu::process_cpu();
        let mut lib = Librarian::create_store(&dir.join(name), name, &Analyzer::default(), docs)
            .expect("create a store");
        build += cpu::secs_since(t);
        for b in batches {
            lib.add_documents(&b.docs).expect("log a pending batch");
        }
        assert_eq!(
            lib.store().map(|s| s.pending_batches()),
            Some(batches.len())
        );
    }
    build
}

fn setup(dir: &Path, parts: &[(&str, &[TrecDoc])]) -> (Fleet, SetupParts) {
    let mut times = SetupParts::new();
    let t = cpu::process_cpu();
    let shards: Vec<Shard> = parts
        .iter()
        .enumerate()
        .map(|(i, (name, _))| shard(Librarian::open(&dir.join(name)).expect("open a store"), i))
        .collect();
    times.insert("store.open_s", cpu::secs_since(t));

    let t = cpu::process_cpu();
    let mut rec = Receptionist::new(
        shards
            .iter()
            .map(|s| InProcTransport::from_shared(s.clone()))
            .collect(),
        Analyzer::default(),
    );
    rec.enable_cache(CacheConfig::default());
    rec.set_dispatch_mode(DispatchMode::Sequential);
    times.insert("setup.fleet_s", cpu::secs_since(t));

    let t = cpu::process_cpu();
    rec.enable_cv().expect("CV preprocessing");
    times.insert("setup.cv_s", cpu::secs_since(t));
    (Fleet { shards, rec }, times)
}

struct Phase {
    samples: Vec<Sample>,
    errors: Vec<String>,
    wall: Duration,
    before: Counters,
    after: Counters,
    ingest: Ingest,
}

/// Reads `draws` back to back for `seconds`, appending the next of
/// `batches` before every [`READS_PER_BATCH`]th read.
fn run_phase<T: Transport>(
    rec: &mut Receptionist<T>,
    mut probe: Option<&mut Probe>,
    shards: &[Shard],
    pool: &[String],
    draws: &[usize],
    batches: &[Batch],
    seconds: u64,
) -> Phase {
    let mut before = Counters::default();
    before.add(rec.cache_stats(), rec.traffic());
    let mut ingest = Ingest::new(shards.len());
    let mut batches = batches.iter();
    let mut samples = Vec::with_capacity(draws.len());
    let mut errors = Vec::new();
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    for (i, &d) in draws.iter().enumerate() {
        if Instant::now() >= stop {
            break;
        }
        if i % READS_PER_BATCH == READS_PER_BATCH - 1 {
            match batches.next() {
                Some(batch) => ingest.append(shards, batch),
                None => break,
            }
        }
        let (result, sample) = measure(|| {
            span(
                probe.as_deref(),
                i as u64,
                0,
                "receptionist.query",
                "CV",
                |_| rec.query(Methodology::CentralVocabulary, &pool[d], K),
            )
        });
        samples.push(sample);
        if let Err(e) = result {
            errors.push(format!("read {i}: {e}"));
        }
        if let Some(p) = probe.as_deref_mut() {
            p.analyze(|| rec.analyze_query(&pool[d]));
        }
    }
    let wall = start.elapsed();
    let mut after = Counters::default();
    after.add(rec.cache_stats(), rec.traffic());
    Phase {
        samples,
        errors,
        wall,
        before,
        after,
        ingest,
    }
}

/// Cached answers equal cache-free ones at the final epoch: after a
/// health poll (which is how a receptionist learns of index changes it
/// has not queried since), each sampled query is asked twice of the
/// cached session, the second time served from its cache, and once of a
/// fresh session without a cache.
fn check_cache_transparency(
    report: &mut Report,
    cached: &mut Receptionist<Lib>,
    fresh: &mut Receptionist<Lib>,
    pool: &[String],
) {
    cached.fleet_health();
    let hits_before = cached.cache_stats().map_or(0, |c| c.results.hits);
    for q in &pool[..SAMPLE] {
        let ask = |r: &mut Receptionist<Lib>| -> Result<Vec<GlobalHit>, String> {
            r.query(Methodology::CentralVocabulary, q, K)
                .map_err(|e| e.to_string())
        };
        let outcome = (|| {
            let (first, second, reference) = (ask(cached)?, ask(cached)?, ask(fresh)?);
            if first != reference || second != reference {
                return Err("cached answer differs from the cache-free answer".to_owned());
            }
            Ok(())
        })();
        report.op("cache transparency", outcome);
    }
    let served = cached.cache_stats().map_or(0, |c| c.results.hits) - hits_before;
    if served < SAMPLE as u64 {
        report.fail(format!(
            "only {served} of {SAMPLE} repeated queries were served from the cache"
        ));
    }
}

/// Checkpoints and compacts every shard's store under its lock, as a
/// writer would, and reports how long each took.
fn compact_all(report: &mut Report, shards: &[Shard]) {
    let mut times = Vec::new();
    for s in shards {
        let mut guard = s.lock().expect("shard lock poisoned");
        let started = Instant::now();
        let outcome = match guard.inner_mut().store_mut() {
            Some(store) => store.compact().map_err(|e| e.to_string()),
            None => Err("librarian has no store".into()),
        };
        times.push(started.elapsed().as_secs_f64() * 1e3);
        report.op("checkpoint and compact", outcome);
    }
    report.line(format!("store.compact_ms per shard: {times:.1?}"));
}

/// After the run: every store verifies, and a reopen holds every
/// acknowledged batch at the epoch the live librarian reached.
fn check_durability(
    report: &mut Report,
    fleet: Fleet,
    dir: &Path,
    parts: &[(&str, &[TrecDoc])],
    base: &[u64],
    acked: &[Vec<Batch>],
) {
    let mut epochs = Vec::new();
    for s in &fleet.shards {
        let guard = s.lock().expect("shard lock poisoned");
        let lib = guard.inner();
        let verified = match lib.store() {
            Some(store) => store
                .verify()
                .map_err(|e| e.to_string())
                .and_then(|status| {
                    if status.epoch == lib.epoch() {
                        Ok(())
                    } else {
                        Err(format!(
                            "store epoch {} but librarian at {}",
                            status.epoch,
                            lib.epoch()
                        ))
                    }
                }),
            None => Err("librarian has no store".into()),
        };
        report.op(&format!("verify {}", lib.name()), verified);
        epochs.push(lib.epoch());
    }
    drop(fleet);
    for (i, (name, _)) in parts.iter().enumerate() {
        let outcome = Librarian::open(&dir.join(name))
            .map_err(|e| e.to_string())
            .and_then(|lib| {
                if lib.epoch() != epochs[i] {
                    return Err(format!(
                        "reopened at epoch {}, served {}",
                        lib.epoch(),
                        epochs[i]
                    ));
                }
                check_acked(&lib, base[i], &acked[i])
            });
        report.op(&format!("reopen {name}"), outcome);
    }
}

pub fn run(report: &mut Report, seed: u64, seconds: u64, trace: bool) {
    let spec = corpus_spec();
    let corpus = SyntheticCorpus::generate(&spec);
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    let shards = parts.len();
    let phases = if trace { 2 } else { 1 };
    let reads = MAX_QPS * seconds as usize;
    // As many batches as a phase could append, within what each shard's
    // part of the ingest corpus holds.
    let per_shard_capacity = spec
        .subcollections
        .iter()
        .map(|s| s.num_docs / BATCH_DOCS)
        .min()
        .unwrap_or(0)
        - PENDING;
    let writes = (MAX_BPS * seconds as usize).min(per_shard_capacity / phases * shards);

    let pool = distinct_queries(&spec, derive(seed, "zipf-pool"), POOL, spec.short_query_len);
    let draws = zipf_draws(derive(seed, "zipf-draws"), POOL, phases * reads, ZIPF_S);
    // Pending batches per shard first, then the measured stream
    // round-robin; both come from one per-shard sequence.
    let per_shard = PENDING + (phases * writes).div_ceil(shards);
    let mut by_shard: Vec<Vec<Batch>> = vec![Vec::new(); shards];
    for b in ingest_batches(seed, shards, per_shard * shards, BATCH_DOCS) {
        by_shard[b.shard].push(b);
    }
    let pending: Vec<Vec<Batch>> = (0..shards)
        .map(|s| by_shard[s][..PENDING].to_vec())
        .collect();
    let stream: Vec<Batch> = (0..phases * writes)
        .map(|i| by_shard[i % shards][PENDING + i / shards].clone())
        .collect();

    let dir: PathBuf = crate::out_dir().join(format!("zipf-stores-{}", std::process::id()));
    let build_s = prepare(&dir, &parts, &pending);
    report.layer("setup.build_s", build_s, "s");
    let mut fleet = repeated_setup(report, || setup(&dir, &parts));

    let (draws_a, draws_b) = draws.split_at(reads);
    let (stream_a, stream_b) = stream.split_at(writes);
    let a = run_phase(
        &mut fleet.rec,
        None,
        &fleet.shards,
        &pool,
        draws_a,
        stream_a,
        seconds,
    );
    let issued: Vec<usize> = draws_a[..a.samples.len()].to_vec();
    let (distinct, repeat) = distinct_and_repeat_share(&issued);
    report.line(format!(
        "inputs: {} reads over a pool of {POOL} (distinct share {distinct:.4}, repeat share {repeat:.4}); {} batches of {BATCH_DOCS}, one per {READS_PER_BATCH} reads",
        issued.len(),
        a.ingest.calls.len() + a.ingest.errors.len()
    ));
    for e in &a.errors {
        report.fail(e.clone());
    }
    report.attempted += a.samples.len() as u64;
    a.ingest.count_ops(report);
    let figures = query_figures(report, &a.samples, a.wall);
    report_query_figures(report, &figures);
    report_ingest(report, &a.ingest);
    // Every acknowledged batch, pending ones first, per shard.
    let mut acked = pending.clone();
    for (all, more) in acked.iter_mut().zip(&a.ingest.acked) {
        all.extend(more.iter().cloned());
    }

    if trace {
        compact_all(report, &fleet.shards);
        let tracer = Tracer::new();
        let mut probe = Probe::new(&tracer);
        set_tracer(&fleet.shards, Some(&tracer));
        let mut traced = fleet.rec.fork(
            fleet
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Traced::new(
                        InProcTransport::from_shared(s.clone()),
                        i as u32,
                        tracer.clone(),
                        probe.ctx.clone(),
                    )
                })
                .collect(),
        );
        let b = run_phase(
            &mut traced,
            Some(&mut probe),
            &fleet.shards,
            &pool,
            draws_b,
            stream_b,
            seconds,
        );
        set_tracer(&fleet.shards, None);
        for e in &b.errors {
            report.fail(e.clone());
        }
        report.attempted += b.samples.len() as u64;
        b.ingest.count_ops(report);
        let traced_figures = query_figures(report, &b.samples, b.wall);
        report.layer(
            "trace.overhead_frac",
            traced_figures.p50_ms / figures.p50_ms - 1.0,
            "ratio",
        );
        report.layer("text.analyze_us", median(&probe.analyze_us), "us");
        report_counters(report, &b.before, &b.after, b.samples.len());
        let out = crate::out_dir().join("spans-zipf_ingest.jsonl");
        report_layers(
            report,
            tracer.take(),
            b.wall,
            shards,
            &out,
            &crate::header(),
        );
        report_ingest(report, &b.ingest);
        for (all, more) in acked.iter_mut().zip(&b.ingest.acked) {
            all.extend(more.iter().cloned());
        }
    }
    let held: usize = parts
        .iter()
        .flat_map(|(_, d)| d.iter())
        .chain(acked.iter().flatten().flat_map(|b| &b.docs))
        .map(|d| d.text.len())
        .sum();
    report.line(format!(
        "store.disk_bytes_per_user_byte {:>23.4} (before the final compaction)",
        dir_bytes(&dir) as f64 / held.max(1) as f64
    ));
    compact_all(report, &fleet.shards);

    let mut fresh = fleet.rec.fork(
        fleet
            .shards
            .iter()
            .map(|s| InProcTransport::from_shared(s.clone()))
            .collect(),
    );
    fresh.disable_cache();
    check_cache_transparency(report, &mut fleet.rec, &mut fresh, &pool);
    drop(fresh);
    let base: Vec<u64> = parts.iter().map(|(_, d)| d.len() as u64).collect();
    check_durability(report, fleet, &dir, &parts, &base, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}
