//! `long_inproc_mixed`: the paper's Table 3 long-query rows. One client
//! runs a closed loop over in-process transports; distinct long queries
//! rotate through MS, CN, CV and CI. MS is one librarian over the whole
//! collection. No sockets, no cache, no other load: the fan-out is
//! issued sequentially, so a query costs the sum of its librarians' work
//! and fan-out threads never contend for the CPUs.

use std::time::{Duration, Instant};

use teraphim_core::{CiParams, GlobalHit, Librarian, Methodology, Receptionist};
use teraphim_corpus::SyntheticCorpus;
use teraphim_net::{DispatchMode, InProcTransport, Transport};
use teraphim_text::sgml::TrecDoc;
use teraphim_text::Analyzer;

use crate::common::*;
use crate::cpu;
use crate::inputs::{corpus_spec, derive, distinct_queries};
use crate::oracle::{Oracle, MERGED_TOLERANCE};
use crate::report::Report;
use crate::trace::{Timed, Traced, Tracer};

/// Central Index parameters: groups of ten documents, 100 groups expanded.
pub const CI: CiParams = CiParams {
    group_size: 10,
    k_prime: 100,
};
/// Methodologies in rotation; MS is Central Nothing over one librarian.
const ROTATION: [&str; 4] = ["MS", "CN", "CV", "CI"];
/// Unmeasured queries before a phase starts.
const WARMUP_OPS: usize = 8;
/// Upper bound on the query rate, for sizing the query stream.
const MAX_QPS: u64 = 700;

type Lib = InProcTransport<Timed<Librarian>>;

struct Fleet {
    shards: Vec<Shard>,
    whole: Shard,
    dist: Receptionist<Lib>,
    mono: Receptionist<Lib>,
}

fn setup(parts: &[(&str, &[TrecDoc])], all: &[TrecDoc]) -> (Fleet, SetupParts) {
    let mut times = SetupParts::new();
    let t = cpu::process_cpu();
    let shards: Vec<Shard> = parts
        .iter()
        .enumerate()
        .map(|(i, (name, docs))| shard(Librarian::build(name, Analyzer::default(), docs), i))
        .collect();
    let whole = shard(
        Librarian::build("MS", Analyzer::default(), all),
        parts.len(),
    );
    times.insert("setup.build_s", cpu::secs_since(t));

    let t = cpu::process_cpu();
    let mut dist = Receptionist::new(
        shards
            .iter()
            .map(|s| InProcTransport::from_shared(s.clone()))
            .collect(),
        Analyzer::default(),
    );
    dist.set_dispatch_mode(DispatchMode::Sequential);
    let mono = Receptionist::new(
        vec![InProcTransport::from_shared(whole.clone())],
        Analyzer::default(),
    );
    times.insert("setup.fleet_s", cpu::secs_since(t));

    let mut fleet = Fleet {
        shards,
        whole,
        dist,
        mono,
    };
    let t = cpu::process_cpu();
    fleet.dist.enable_cv().expect("CV preprocessing");
    times.insert("setup.cv_s", cpu::secs_since(t));
    let t = cpu::process_cpu();
    fleet.dist.enable_ci(CI).expect("CI preprocessing");
    times.insert("setup.ci_s", cpu::secs_since(t));
    (fleet, times)
}

type Answer = Result<Vec<GlobalHit>, String>;

fn query<T: Transport>(
    dist: &mut Receptionist<T>,
    mono: &mut Receptionist<T>,
    probe: Option<&Probe>,
    i: usize,
    text: &str,
) -> Answer {
    let code = ROTATION[i % ROTATION.len()];
    let (rec, methodology) = match code {
        "MS" => (mono, Methodology::CentralNothing),
        "CN" => (dist, Methodology::CentralNothing),
        "CV" => (dist, Methodology::CentralVocabulary),
        _ => (dist, Methodology::CentralIndex),
    };
    span(probe, i as u64, 0, "receptionist.query", code, |_| {
        rec.query(methodology, text, K)
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

/// Issues queries back to back until `seconds` have passed.
fn run_phase<T: Transport>(
    dist: &mut Receptionist<T>,
    mono: &mut Receptionist<T>,
    mut probe: Option<&mut Probe>,
    queries: &[String],
    seconds: u64,
) -> Phase {
    let (warmup, measured) = queries.split_at(WARMUP_OPS);
    for (i, q) in warmup.iter().enumerate() {
        let _ = query(dist, mono, None, i, q);
    }
    let counters = |dist: &Receptionist<T>, mono: &Receptionist<T>| {
        let mut c = Counters::default();
        c.add(dist.cache_stats(), dist.traffic());
        c.add(mono.cache_stats(), mono.traffic());
        c
    };
    let before = counters(dist, mono);
    let mut samples = Vec::new();
    let mut answers = Vec::new();
    let start = Instant::now();
    let stop = start + Duration::from_secs(seconds);
    for (i, q) in measured.iter().enumerate() {
        if Instant::now() >= stop {
            break;
        }
        let (answer, sample) = measure(|| query(dist, mono, probe.as_deref(), i, q));
        samples.push(sample);
        answers.push((i, answer));
        if let Some(p) = probe.as_deref_mut() {
            p.analyze(|| dist.analyze_query(q));
        }
    }
    Phase {
        samples,
        answers,
        wall: start.elapsed(),
        before,
        after: counters(dist, mono),
    }
}

fn verify(report: &mut Report, oracle: &Oracle, queries: &[String], answers: &[(usize, Answer)]) {
    let measured = &queries[WARMUP_OPS..];
    // Each check, and for CV/CI whether the scores were also bit-identical.
    let checks = verify_all(answers, |(i, answer)| {
        let hits = match answer {
            Ok(hits) => hits,
            Err(e) => return (Err(e.clone()), None),
        };
        let text = &measured[*i];
        match ROTATION[i % ROTATION.len()] {
            "MS" => (
                oracle
                    .locate(hits)
                    .and_then(|h| oracle.check_top_k(&h, &oracle.ms(text), K, 0.0)),
                None,
            ),
            "CN" => (oracle.check_cn(hits, text, K), None),
            "CV" => {
                let ms = oracle.ms(text);
                let exact = oracle.check_top_k(hits, &ms, K, 0.0).is_ok();
                (
                    oracle.check_top_k(hits, &ms, K, MERGED_TOLERANCE),
                    Some(exact),
                )
            }
            _ => {
                let ms = oracle.ms(text);
                let exact = oracle.check_ci(hits, &ms, K, 0.0).is_ok();
                (oracle.check_ci(hits, &ms, K, MERGED_TOLERANCE), Some(exact))
            }
        }
    });
    let mut merged = 0;
    let mut exact = 0;
    for ((check, bits), (i, _)) in checks.into_iter().zip(answers) {
        report.op(
            &format!("{} query {i}", ROTATION[i % ROTATION.len()]),
            check,
        );
        merged += usize::from(bits.is_some());
        exact += usize::from(bits == Some(true));
    }
    report.line(format!(
        "CV/CI answers bit-identical to the mono-server oracle: {exact} of {merged}"
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
    let all: Vec<TrecDoc> = parts.iter().flat_map(|(_, d)| d.iter().cloned()).collect();
    let per_phase = WARMUP_OPS + (MAX_QPS * seconds) as usize;
    let phases = if trace { 2 } else { 1 };
    let stream = distinct_queries(
        &spec,
        derive(seed, "long-queries"),
        phases * per_phase,
        spec.long_query_len,
    );

    let mut fleet = repeated_setup(report, || setup(&parts, &all));
    let oracle = Oracle::build(&parts, true);

    let (queries_a, queries_b) = stream.split_at(per_phase);
    let a = run_phase(&mut fleet.dist, &mut fleet.mono, None, queries_a, seconds);
    report.line(format!(
        "inputs: {} distinct long queries issued (distinct share 1.0, repeat share 0.0), rotating {ROTATION:?}",
        a.answers.len()
    ));
    let figures = query_figures(report, &a.samples, a.wall);
    report_query_figures(report, &figures);
    verify(report, &oracle, queries_a, &a.answers);

    if trace {
        let tracer = Tracer::new();
        let mut probe = Probe::new(&tracer);
        let mut all_shards = fleet.shards.clone();
        all_shards.push(fleet.whole.clone());
        set_tracer(&all_shards, Some(&tracer));
        let traced = |s: &Shard, lib: usize| {
            Traced::new(
                InProcTransport::from_shared(s.clone()),
                lib as u32,
                tracer.clone(),
                probe.ctx.clone(),
            )
        };
        let mut dist = fleet.dist.fork(
            fleet
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| traced(s, i))
                .collect(),
        );
        let mut mono = fleet.mono.fork(vec![traced(&fleet.whole, parts.len())]);
        let b = run_phase(&mut dist, &mut mono, Some(&mut probe), queries_b, seconds);
        set_tracer(&all_shards, None);
        let traced_figures = query_figures(report, &b.samples, b.wall);
        report.layer(
            "trace.overhead_frac",
            traced_figures.p50_ms / figures.p50_ms - 1.0,
            "ratio",
        );
        verify(report, &oracle, queries_b, &b.answers);
        report.layer(
            "text.analyze_us",
            crate::stats::median(&probe.analyze_us),
            "us",
        );
        report_counters(report, &b.before, &b.after, b.answers.len());
        let out = crate::out_dir().join("spans-long_inproc_mixed.jsonl");
        report_layers(
            report,
            tracer.take(),
            b.wall,
            all_shards.len(),
            &out,
            &crate::header(),
        );
    }
}
