//! `short_tcp_fetch`: the paper's Table 4 short-query path over a real
//! TCP fleet. One client with a forked receptionist runs a closed loop;
//! every operation is a distinct Central Vocabulary query followed by a
//! plain-text fetch of its hits.
//!
//! One client and a closed loop, because the operation's CPU time is
//! read from the process clock and must hold only its own work. An open
//! loop at a fixed rate also left the CPUs idle between operations: on
//! the 2-CPU virtual reference host every wake-up then waited on the
//! hypervisor, and over ten seeds at 150 q/s the median latency ranged
//! 1.8-9.4 ms.

use std::sync::Arc;
use std::time::{Duration, Instant};

use teraphim_core::{
    CacheConfig, FetchedDoc, GlobalHit, Librarian, Methodology, Receptionist, TeraphimError,
};
use teraphim_corpus::SyntheticCorpus;
use teraphim_net::tcp::TcpServer;
use teraphim_net::{DispatchMode, MuxPool, MuxTransport, ServerOptions, TcpOptions, Transport};
use teraphim_obs::{MetricsRegistry, TraceSink};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::common::*;
use crate::cpu;
use crate::inputs::{corpus_spec, derive, distinct_queries};
use crate::oracle::{Oracle, MERGED_TOLERANCE};
use crate::report::Report;
use crate::trace::{SharedService, Traced, Tracer};

/// Upper bound on the operation rate, for sizing the query stream.
const MAX_QPS: u64 = 1_200;
/// Unmeasured operations before a phase starts.
const WARMUP_OPS: usize = 25;

struct Fleet {
    shards: Vec<Shard>,
    pools: Vec<Arc<MuxPool>>,
    prototype: Receptionist<MuxTransport>,
    // Dropped last: shutting a server down ends its connections.
    _servers: Vec<TcpServer>,
}

fn setup(parts: &[(&str, &[TrecDoc])]) -> (Fleet, SetupParts) {
    let mut times = SetupParts::new();
    let t = cpu::process_cpu();
    let shards: Vec<Shard> = parts
        .iter()
        .enumerate()
        .map(|(i, (name, docs))| shard(Librarian::build(name, Analyzer::default(), docs), i))
        .collect();
    times.insert("setup.build_s", cpu::secs_since(t));

    let t = cpu::process_cpu();
    let options = ServerOptions {
        // The benchmark runs on one CPU (see `crate::cpu`).
        workers: 1,
        ..ServerOptions::default()
    };
    let servers: Vec<TcpServer> = shards
        .iter()
        .map(|s| {
            TcpServer::spawn_with(vec![SharedService(Arc::clone(s))], "127.0.0.1:0", options)
                .expect("bind a librarian server")
        })
        .collect();
    let pools: Vec<Arc<MuxPool>> = servers
        .iter()
        .map(|s| MuxPool::connect(s.addr(), 1, TcpOptions::default()).expect("connect"))
        .collect();
    let mut prototype = Receptionist::new(
        pools
            .iter()
            .map(|p| MuxTransport::new(Arc::clone(p)))
            .collect(),
        Analyzer::default(),
    );
    prototype.set_dispatch_mode(DispatchMode::Pipelined);
    prototype.enable_cache(CacheConfig::default());
    times.insert("setup.fleet_s", cpu::secs_since(t));

    let t = cpu::process_cpu();
    prototype.enable_cv().expect("CV preprocessing");
    times.insert("setup.cv_s", cpu::secs_since(t));
    let fleet = Fleet {
        shards,
        pools,
        prototype,
        _servers: servers,
    };
    (fleet, times)
}

/// The hits of one operation, once its fetched documents were checked.
type Answer = Result<Vec<GlobalHit>, String>;

/// One operation: the query, then the fetch of its hits as plain text.
fn op<T: Transport>(
    rec: &mut Receptionist<T>,
    probe: Option<&Probe>,
    id: u64,
    query: &str,
) -> Result<(Vec<GlobalHit>, Vec<FetchedDoc>), String> {
    span(probe, id, 0, "op", "CV", |op| {
        let hits = span(probe, id, op, "receptionist.query", "CV", |_| {
            rec.query(Methodology::CentralVocabulary, query, K)
        })?;
        let fetched = span(probe, id, op, "receptionist.fetch", "fetch", |_| {
            rec.fetch(&hits, true)
        })?;
        Ok::<_, TeraphimError>((hits, fetched))
    })
    .map_err(|e| e.to_string())
}

struct Phase {
    samples: Vec<Sample>,
    answers: Vec<(usize, Answer)>,
    wall: Duration,
    before: Counters,
    after: Counters,
}

/// Runs `queries` closed-loop over `rec` for `seconds`, each as soon as
/// the previous one returned.
fn run_phase<T: Transport>(
    rec: &mut Receptionist<T>,
    mut probe: Option<&mut Probe>,
    oracle: &Oracle,
    queries: &[String],
    warmup: &[String],
    seconds: u64,
) -> Phase {
    for q in warmup {
        let _ = op(rec, None, 0, q);
    }
    let mut before = Counters::default();
    before.add(rec.cache_stats(), rec.traffic());
    let mut samples = Vec::new();
    let mut answers = Vec::new();
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    for (i, q) in queries.iter().enumerate() {
        if Instant::now() >= stop {
            break;
        }
        let (outcome, sample) = measure(|| op(rec, probe.as_deref(), i as u64, q));
        samples.push(sample);
        // Checked now so that the texts need not be kept; rankings are
        // checked after the phase.
        let answer =
            outcome.and_then(|(hits, fetched)| oracle.check_fetch(&hits, &fetched).map(|()| hits));
        answers.push((i, answer));
        if let Some(p) = probe.as_deref_mut() {
            p.analyze(|| rec.analyze_query(q));
        }
    }
    let wall = start.elapsed();
    let mut after = Counters::default();
    after.add(rec.cache_stats(), rec.traffic());
    Phase {
        samples,
        answers,
        wall,
        before,
        after,
    }
}

fn verify(report: &mut Report, oracle: &Oracle, queries: &[String], answers: &[(usize, Answer)]) {
    // Each check, and whether the scores were also bit-identical.
    let checks = verify_all(answers, |(i, answer)| {
        let hits = answer.as_ref().map_err(Clone::clone)?;
        let ms = oracle.ms(&queries[*i]);
        oracle.check_top_k(hits, &ms, K, MERGED_TOLERANCE)?;
        Ok(oracle.check_top_k(hits, &ms, K, 0.0).is_ok())
    });
    let mut exact = 0;
    for (check, (i, _)) in checks.into_iter().zip(answers) {
        exact += usize::from(check == Ok(true));
        report.op(&format!("query {i}"), check.map(|_| ()));
    }
    report.line(format!(
        "CV answers bit-identical to the mono-server oracle: {exact} of {}",
        answers.len()
    ));
}

pub fn run(report: &mut Report, seed: u64, seconds: u64, trace: bool) {
    let spec = corpus_spec();
    let corpus = SyntheticCorpus::generate(&spec);
    let parts: Vec<(&str, &[TrecDoc])> = corpus
        .subcollections()
        .iter()
        .map(|s| (s.name.as_str(), s.docs.as_slice()))
        .collect();
    let n = (MAX_QPS * seconds) as usize;
    let phases = if trace { 2 } else { 1 };
    let stream = distinct_queries(
        &spec,
        derive(seed, "short-queries"),
        phases * (WARMUP_OPS + n),
        spec.short_query_len,
    );
    report.line(format!(
        "inputs: {} distinct queries generated (every query issued is distinct: distinct share 1.0, repeat share 0.0)",
        stream.len()
    ));

    let fleet = repeated_setup(report, || setup(&parts));
    let oracle = Oracle::build(&parts, false);
    let plain = |fleet: &Fleet| -> Vec<MuxTransport> {
        fleet
            .pools
            .iter()
            .map(|p| MuxTransport::new(Arc::clone(p)))
            .collect()
    };

    let (warm_a, rest) = stream.split_at(WARMUP_OPS);
    let (measured_a, rest) = rest.split_at(n);
    let mut rec = fleet.prototype.fork(plain(&fleet));
    let a = run_phase(&mut rec, None, &oracle, measured_a, warm_a, seconds);
    drop(rec);
    let figures = query_figures(report, &a.samples, a.wall);
    report_query_figures(report, &figures);
    verify(report, &oracle, measured_a, &a.answers);

    if trace {
        let (warm_b, measured_b) = rest.split_at(WARMUP_OPS);
        let tracer = Tracer::new();
        set_tracer(&fleet.shards, Some(&tracer));
        let mut probe = Probe::new(&tracer);
        let transports = plain(&fleet)
            .into_iter()
            .enumerate()
            .map(|(lib, t)| Traced::new(t, lib as u32, Arc::clone(&tracer), Arc::clone(&probe.ctx)))
            .collect();
        let mut rec = fleet.prototype.fork(transports);
        // A sink on the session makes the servers report their queue
        // wait with each reply.
        rec.set_trace_sink(TraceSink::metrics_only(Arc::new(MetricsRegistry::new())));
        let b = run_phase(
            &mut rec,
            Some(&mut probe),
            &oracle,
            measured_b,
            warm_b,
            seconds,
        );
        drop(rec);
        set_tracer(&fleet.shards, None);
        let traced = query_figures(report, &b.samples, b.wall);
        report.layer(
            "trace.overhead_frac",
            traced.p50_ms / figures.p50_ms - 1.0,
            "ratio",
        );
        verify(report, &oracle, measured_b, &b.answers);
        report.layer(
            "text.analyze_us",
            crate::stats::median(&probe.analyze_us),
            "us",
        );
        report_counters(report, &b.before, &b.after, b.answers.len());
        let out = crate::out_dir().join("spans-short_tcp_fetch.jsonl");
        report_layers(
            report,
            tracer.take(),
            b.wall,
            parts.len(),
            &out,
            &crate::header(),
        );
    }
}
