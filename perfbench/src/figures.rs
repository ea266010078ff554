//! `figures`: the `--bin all` figure pipeline (Fig 1, the Figs 2–7/15
//! characterisation, Figs 11–14) on one shared `SweepEngine`.
//!
//! Each iteration regenerates every figure on a fresh engine, so the
//! memo dedup inside the pipeline is measured and never carried between
//! iterations. Its six stages are the requests: a figure is answered
//! when its stage ends.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use tcp_baselines::DbcpConfig;
use tcp_core::{DbpConfig, TcpConfig};
use tcp_experiments::sweep::{Job, PrefetcherSpec, SweepEngine};
use tcp_experiments::{characterize, fig01, fig11, fig12, fig13, fig14};
use tcp_sim::SystemConfig;
use tcp_workloads::Benchmark;

use crate::layers::{self, Layers};
use crate::{Args, Outcome, Samples};

/// Micro-ops per simulation and per characterised trace. The shipped
/// `--bin all` runs Fig 13 at half the simulation scale; so does this.
/// Jobs this long spend most of their time per uop, as users' runs do.
const SIM_OPS: u64 = 60_000;
const TRACE_OPS: u64 = 60_000;
const FIG13_OPS: u64 = SIM_OPS / 2;
/// Every third benchmark of the suite, which keeps one regeneration near
/// two seconds on two threads, so a run repeats it several times.
const SUITE_STRIDE: usize = 3;

/// The figure stages in pipeline order.
const STAGES: [&str; 6] = ["fig01", "characterize", "fig11", "fig12", "fig13", "fig14"];

/// Runs the pipeline on `engine`, returning each stage's span and a
/// canonical text of every figure's numbers.
fn pipeline(engine: &SweepEngine, benches: &[Benchmark]) -> ([Duration; 6], String) {
    let mut spans = [Duration::ZERO; 6];
    let mut text = String::new();
    let mut t = Instant::now();
    let mut lap = |i: usize, t: &mut Instant| {
        spans[i] = t.elapsed();
        *t = Instant::now();
    };
    let f1 = fig01::run_with(engine, benches, SIM_OPS);
    lap(0, &mut t);
    let profiles = characterize::characterize_suite(benches, TRACE_OPS);
    lap(1, &mut t);
    let f11 = fig11::run_with(engine, benches, SIM_OPS);
    lap(2, &mut t);
    let f12 = fig12::run_with(engine, benches, SIM_OPS);
    lap(3, &mut t);
    let f13 = fig13::run_with(engine, benches, FIG13_OPS);
    lap(4, &mut t);
    let f14 = fig14::run_with(engine, benches, SIM_OPS);
    lap(5, &mut t);
    text.push_str(&format!(
        "{f1:?}\n{profiles:?}\n{f11:?}\n{f12:?}\n{f13:?}\n{f14:?}\n"
    ));
    (spans, text)
}

/// Every job each figure submits, in the order the pipeline submits
/// them (the characterisation stage submits none). Mirrors the figure
/// modules so the traced run can execute the same simulations itself;
/// the engine's counts check that the two agree.
fn figure_jobs(benches: &[Benchmark]) -> Vec<(&'static str, Vec<Job>)> {
    let t1 = SystemConfig::table1();
    let ideal = SystemConfig::table1_ideal_l2();
    let bus = SystemConfig::table1_with_prefetch_bus();
    let tcp8k = PrefetcherSpec::Tcp(TcpConfig::tcp_8k());
    let tcp8m = PrefetcherSpec::Tcp(TcpConfig::tcp_8m());
    let per_bench = |ops: u64, specs: &[(SystemConfig, PrefetcherSpec)]| -> Vec<Job> {
        benches
            .iter()
            .flat_map(|b| specs.iter().map(move |(m, s)| Job::new(b, ops, m, *s)))
            .collect()
    };
    let null = PrefetcherSpec::Null;
    let fig01 = per_bench(SIM_OPS, &[(t1, null), (ideal, null)]);
    let fig11 = per_bench(
        SIM_OPS,
        &[
            (t1, null),
            (t1, PrefetcherSpec::Dbcp(DbcpConfig::dbcp_2m())),
            (t1, tcp8k),
            (t1, tcp8m),
        ],
    );
    let fig12 = [tcp8k, tcp8m]
        .iter()
        .flat_map(|s| per_bench(SIM_OPS, &[(t1, *s)]))
        .collect();
    let full_index_bits = |bytes: usize| ((bytes / 32) as u32).trailing_zeros().min(10);
    let configs: Vec<TcpConfig> = fig13::SIZES
        .iter()
        .flat_map(|&b| {
            [
                TcpConfig::with_pht_bytes(b, 0),
                TcpConfig::with_pht_bytes(b, full_index_bits(b)),
            ]
        })
        .chain((0..=3u32).map(|bits| TcpConfig::with_pht_bytes(8 * 1024, bits)))
        .collect();
    let fig13 = configs
        .iter()
        .flat_map(|c| {
            benches
                .iter()
                .map(|b| Job::new(b, FIG13_OPS, &t1, PrefetcherSpec::Tcp(*c)))
        })
        .collect();
    let fig14 = per_bench(
        SIM_OPS,
        &[
            (t1, null),
            (t1, tcp8k),
            (
                bus,
                PrefetcherSpec::HybridTcp(TcpConfig::tcp_8k(), DbpConfig::default()),
            ),
        ],
    );
    vec![
        ("fig01", fig01),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
    ]
}

/// (requested, distinct) job counts of the whole pipeline.
fn expected_counts(jobs: &[(&str, Vec<Job>)]) -> (usize, usize) {
    let mut seen = BTreeSet::new();
    let mut requested = 0;
    for (_, js) in jobs {
        requested += js.len();
        seen.extend(js.iter().map(Job::key));
    }
    (requested, seen.len())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let benches: Vec<Benchmark> = crate::seeded_suite(args.seed)
        .into_iter()
        .step_by(SUITE_STRIDE)
        .collect();
    // Set-up: the inputs, the job plan, and one short job per prefetcher
    // preset so code pages and allocator arenas are warm before timing.
    let jobs = crate::timed_setup(&mut samples, crate::SETUP_REPS, || {
        let engine = SweepEngine::with_threads(args.threads);
        let warm: Vec<Job> = PrefetcherSpec::presets()
            .iter()
            .map(|(_, s)| Job::new(&benches[0], SIM_OPS, &SystemConfig::table1(), *s))
            .collect();
        engine.run(&warm);
        figure_jobs(&benches)
    });
    let (requested, distinct) = expected_counts(&jobs);
    let executed_uops: u64 = {
        let mut seen = BTreeSet::new();
        jobs.iter()
            .flat_map(|(_, js)| js)
            .filter(|j| seen.insert(j.key()))
            .map(|j| j.n_ops / 2 + j.n_ops)
            .sum::<u64>()
    };

    if args.trace {
        return traced(args, &benches, &jobs, (requested, distinct), out);
    }

    let mut reference: Option<String> = None;
    samples.requests_per_iter = STAGES.len() as u64;
    samples.uops_per_iter = executed_uops;
    crate::measure_loop(args.seconds, 3, true, &mut samples, |s| {
        let engine = SweepEngine::with_threads(args.threads);
        let (spans, text) = pipeline(&engine, &benches);
        // Each figure is answered when its stage ends.
        let mut done = 0.0;
        s.answers_ms.push(
            spans
                .iter()
                .map(|d| {
                    done += d.as_secs_f64() * 1e3;
                    done
                })
                .collect(),
        );
        let stats = engine.stats();
        out.check(
            stats.requested == requested && stats.executed == distinct,
            || {
                format!(
                    "engine ran {} of {} requested jobs; the pipeline plan has {distinct} of {requested}",
                    stats.executed, stats.requested
                )
            },
        );
        let reference = reference.get_or_insert_with(|| text.clone());
        out.check(*reference == text, || {
            "figure numbers differ between iterations".to_owned()
        });
    });
    samples.peak_rss_mb = crate::sys::peak_rss_mb(None).unwrap_or(0.0);
    samples.finish(&mut out);
    out.notes.push(format!(
        "digest figures {} ; sweep requested {requested} executed {distinct}",
        crate::digest(reference.as_deref().unwrap_or(""))
    ));
    Ok(out)
}

/// The traced run: the pipeline once with a span per figure, then the
/// same simulations executed by [`layers::run_batch`] figure by figure
/// (memo hits skipped, as the engine does), checked bit for bit against
/// the engine's results.
fn traced(
    args: &Args,
    benches: &[Benchmark],
    jobs: &[(&str, Vec<Job>)],
    (requested, distinct): (usize, usize),
    mut out: Outcome,
) -> Result<Outcome, String> {
    let engine = SweepEngine::with_threads(args.threads);
    let (spans, _) = pipeline(&engine, benches);
    let stats = engine.stats();
    out.check(
        stats.requested == requested && stats.executed == distinct,
        || format!("engine ran {} of {} jobs", stats.executed, stats.requested),
    );

    let mut l = Layers::default();
    let mut seen = BTreeSet::new();
    let mut digest_text = String::new();
    let t = Instant::now();
    for (_, js) in jobs {
        let fresh: Vec<Job> = js
            .iter()
            .filter(|j| seen.insert(j.key()))
            .cloned()
            .collect();
        let results = layers::run_batch(&fresh, args.threads, &mut l);
        let from_engine = engine.run(&fresh);
        for (r, e) in results.iter().zip(&from_engine) {
            digest_text.push_str(&crate::result_text(r));
            out.check(layers::same_result(r, e), || {
                format!(
                    "traced {} / {} differs from the engine's result",
                    r.benchmark, r.prefetcher
                )
            });
        }
    }
    let sims = t.elapsed();
    let c = Instant::now();
    characterize::characterize_suite(benches, TRACE_OPS);
    let characterize = c.elapsed();
    out.check(engine.memo_len() == distinct, || {
        "the traced plan asked the engine for a job the pipeline never ran".to_owned()
    });
    // The untraced reference, timed after the process has warmed up.
    let t = Instant::now();
    pipeline(&SweepEngine::with_threads(args.threads), benches);
    let untraced_wall = t.elapsed().as_secs_f64();

    let m = &mut out.metrics;
    l.emit(m);
    m.count("sweep.requested", stats.requested as u64);
    m.count("sweep.executed", stats.executed as u64);
    m.count("sweep.memo_hits", stats.memo_hits() as u64);
    m.count("sweep.store_hits", stats.store_hits as u64);
    m.secs("analysis.characterize_s", characterize);
    for (i, name) in STAGES.iter().enumerate() {
        if *name != "characterize" {
            m.secs(&format!("figures.{name}_s"), spans[i]);
        }
    }
    let traced_wall = (sims + characterize).as_secs_f64();
    let capacity = l.capacity.as_secs_f64() + characterize.as_secs_f64();
    let ratio = (l.layer_sum() + characterize).as_secs_f64() / capacity;
    crate::finish_traced(&mut out, traced_wall, untraced_wall, ratio);
    out.notes.push(format!(
        "digest figures-jobs {} ({} distinct jobs)",
        crate::digest(&digest_text),
        seen.len()
    ));
    Ok(out)
}
