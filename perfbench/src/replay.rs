//! `trace_replay`: miss traces of memory-bound benchmarks, captured and
//! encoded as TCPT files during set-up, replayed by several tenants
//! through one `TenantMux` with TCP-8K.
//!
//! Single-threaded, with no generation, executor or store in the timed
//! part, and every tenant's caches start empty. One request is one mux
//! run over all tenants' trace files; an iteration is a batch of
//! [`BATCH`] requests sent one after another.

use std::fs::{self, File};
use std::hint::black_box;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tcp_analysis::{miss_stream, write_trace, MissRecord, TraceReader};
use tcp_cache::{MemoryHierarchy, Prefetcher};
use tcp_cpu::MicroOp;
use tcp_experiments::sweep::PrefetcherSpec;
use tcp_sim::stream::{replay_stream, StreamOpts, TenantMux, TenantResult};
use tcp_sim::SystemConfig;
use tcp_workloads::Benchmark;

use crate::layers::{Layers, Timed};
use crate::{Args, Outcome, Samples};

/// The tenants: the suite's most memory-bound benchmarks.
const TENANTS: [&str; 4] = ["art", "swim", "mcf", "ammp"];
/// Miss records captured per tenant: a fixed count, so every seed
/// replays the same amount of work.
const RECORDS: usize = 16_384;
/// Requests per iteration. The client sends each when the previous one
/// is answered.
const BATCH: usize = 4;
/// Generation cap while capturing; every tenant misses far sooner.
const CAPTURE_OPS_CAP: u64 = 20_000_000;

fn tcp_8k() -> Box<dyn Prefetcher + Send> {
    PrefetcherSpec::from_name("tcp-8k")
        .expect("tcp-8k is a preset")
        .build()
}

/// Captures each tenant's L1 miss stream and writes it as a TCPT file.
fn capture(benches: &[Benchmark], dir: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let l1 = SystemConfig::table1().hierarchy.l1d;
    TENANTS
        .iter()
        .map(|name| {
            let b = benches
                .iter()
                .find(|b| b.name == *name)
                .ok_or_else(|| format!("benchmark {name} is not in the suite"))?;
            let records: Vec<MissRecord> = miss_stream(
                l1,
                b.generator(CAPTURE_OPS_CAP)
                    .filter_map(|op| op.mem_access()),
            )
            .take(RECORDS)
            .collect();
            if records.len() < RECORDS {
                return Err(format!("{name} missed only {} times", records.len()));
            }
            let path = dir.join(format!("{name}.tcpt"));
            let mut bytes = Vec::new();
            write_trace(&mut bytes, &records).map_err(|e| e.to_string())?;
            fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(((*name).to_owned(), path))
        })
        .collect()
}

fn open(path: &Path) -> BufReader<File> {
    BufReader::new(File::open(path).expect("set-up wrote the trace file"))
}

/// One mux run over every trace; `wrap` may interpose on each tenant's
/// prefetcher.
fn mux_run(
    traces: &[(String, PathBuf)],
    mut wrap: impl FnMut(Box<dyn Prefetcher + Send>) -> Box<dyn Prefetcher>,
) -> Vec<TenantResult> {
    let mut mux = TenantMux::new(SystemConfig::table1(), StreamOpts::default());
    for (name, path) in traces {
        mux.add_tenant(name, open(path), wrap(tcp_8k()));
    }
    mux.run()
}

fn result_text(results: &[TenantResult]) -> String {
    results
        .iter()
        .map(|r| crate::result_text(&r.to_run_result()))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let benches = crate::seeded_suite(args.seed);
    let dir = args.work_dir.join("trace_replay");
    let traces = crate::timed_setup(&mut samples, crate::SETUP_REPS, || {
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        }
        fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let traces = capture(&benches, &dir)?;
        // One unmeasured request, so the files are cached and the
        // allocator is warm before timing.
        mux_run(&traces, |p| p);
        Ok::<_, String>(traces)
    })?;

    if args.trace {
        return traced(&benches, &traces, out);
    }

    let mut first: Option<String> = None;
    let mut records = 0u64;
    samples.requests_per_iter = BATCH as u64;
    samples.sequential = true;
    samples.summary = crate::Summary::Fastest;
    crate::measure_loop(args.seconds, 3, true, &mut samples, |s| {
        // The checks run after the batch, so every request starts from
        // the same work done before it.
        let mut answers = Vec::with_capacity(BATCH);
        let mut batch = Vec::with_capacity(BATCH);
        let start = Instant::now();
        for _ in 0..BATCH {
            batch.push(mux_run(&traces, |p| p));
            answers.push(start.elapsed().as_secs_f64() * 1e3);
        }
        for results in batch {
            records = results.iter().map(|r| r.records).sum();
            out.check(results.iter().all(|r| r.error.is_none()), || {
                "a tenant's trace failed to decode".to_owned()
            });
            let text = result_text(&results);
            match &first {
                None => first = Some(text),
                Some(f) => out.check(*f == text, || {
                    "tenant results differ between runs".to_owned()
                }),
            }
        }
        s.answers_ms.push(answers);
    });
    samples.uops_per_iter = records * BATCH as u64;
    samples.peak_rss_mb = crate::sys::peak_rss_mb(None).unwrap_or(0.0);

    // Each tenant must match its solo replay of the same file.
    let muxed = mux_run(&traces, |p| p);
    for ((name, path), m) in traces.iter().zip(&muxed) {
        let solo = replay_stream(
            open(path),
            &SystemConfig::table1(),
            tcp_8k(),
            StreamOpts::default(),
        )
        .map_err(|e| e.to_string())?;
        out.check(
            solo.result.records == m.records
                && solo.result.cycles == m.cycles
                && solo.result.ipc.to_bits() == m.ipc.to_bits()
                && solo.result.stats == m.stats,
            || format!("tenant {name} differs from its solo replay"),
        );
    }
    samples.finish(&mut out);
    out.notes.push(format!(
        "digest trace_replay {} ({} tenants, {records} records per request)",
        crate::digest(first.as_deref().unwrap_or("")),
        traces.len()
    ));
    Ok(out)
}

/// The traced run: the mux once untraced, once with every tenant's
/// prefetcher behind the timing wrapper, then standalone decode and
/// hierarchy replays of the same files; the core and ring are what
/// remains of the traced mux wall.
fn traced(
    benches: &[Benchmark],
    traces: &[(String, PathBuf)],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let untraced = mux_run(traces, |p| p);
    let untraced_wall = t.elapsed().as_secs_f64();

    let mut probes = Vec::new();
    let mut prefetch_build = Duration::ZERO;
    let t = Instant::now();
    let results = mux_run(traces, |p| {
        let (timed, probe) = Timed::new(p);
        probes.push(probe);
        Box::new(timed)
    });
    let traced_wall = t.elapsed();
    out.check(result_text(&results) == result_text(&untraced), || {
        "traced mux results differ from the untraced run".to_owned()
    });
    for _ in traces {
        let t = Instant::now();
        black_box(tcp_8k());
        prefetch_build += t.elapsed();
    }

    // Standalone decode of every file.
    let t = Instant::now();
    let mut decoded = 0u64;
    for (_, path) in traces {
        let mut reader = TraceReader::new(open(path), SystemConfig::table1().hierarchy.l1d)
            .map_err(|e| e.to_string())?;
        while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
            decoded += black_box(chunk.len()) as u64;
        }
    }
    let decode = t.elapsed();

    // Standalone hierarchy replay of the same records, one load each,
    // clocked at each tenant's measured cycles per record.
    let mut l = Layers::default();
    let cfg = SystemConfig::table1();
    for ((_, path), r) in traces.iter().zip(&results) {
        let mut reader =
            TraceReader::new(open(path), cfg.hierarchy.l1d).map_err(|e| e.to_string())?;
        let mut accesses = Vec::with_capacity(r.records as usize);
        while let Some(chunk) = reader.next_chunk().map_err(|e| e.to_string())? {
            accesses.extend(
                chunk
                    .records()
                    .filter_map(|m| MicroOp::load(m.pc, m.addr).mem_access()),
            );
        }
        let t = Instant::now();
        let (timed, probe) = Timed::new(tcp_8k());
        let mut h = MemoryHierarchy::new(cfg.hierarchy, Box::new(timed));
        l.cache_build += t.elapsed();
        let per = r.cycles.max(1) as f64 / r.records.max(1) as f64;
        let t = Instant::now();
        for (i, acc) in accesses.into_iter().enumerate() {
            black_box(h.access(acc, (i as f64 * per) as u64));
        }
        l.cache_access += t.elapsed().saturating_sub(probe.self_time());
    }

    // The capture the set-up paid: generation plus the L1 miss filter.
    let t = Instant::now();
    for name in TENANTS {
        let b = benches
            .iter()
            .find(|b| b.name == name)
            .expect("captured above");
        let mut generated = 0u64;
        let accesses = b
            .generator(CAPTURE_OPS_CAP)
            .inspect(|_| generated += 1)
            .filter_map(|op| op.mem_access());
        black_box(
            miss_stream(cfg.hierarchy.l1d, accesses)
                .take(RECORDS)
                .count(),
        );
        l.uops += generated;
    }
    l.gen = t.elapsed();

    for (r, p) in results.iter().zip(&probes) {
        l.add_stats(&r.stats);
        l.sim_cycles += r.cycles;
        l.ipcs.push(r.ipc);
        l.table_bytes += r.prefetcher_bytes as u64;
        l.on_miss_calls += p.on_miss_calls();
        l.prefetch_self += p.self_time();
    }
    l.prefetch_build = prefetch_build;
    l.core = traced_wall
        .saturating_sub(decode)
        .saturating_sub(l.cache_access)
        .saturating_sub(l.prefetch_self);
    // One worker, busy for the whole mux run.
    l.busy = traced_wall;
    l.capacity = traced_wall;

    let m = &mut out.metrics;
    l.emit(m);
    // Generation happened in the set-up, outside the mux wall.
    m.secs("analysis.decode_s", decode);
    m.count("analysis.records", decoded);
    m.count(
        "stream.ring_high_water",
        results
            .iter()
            .map(|r| r.ring_high_water as u64)
            .max()
            .unwrap_or(0),
    );
    let in_wall = decode + l.cache_access + l.prefetch_self + l.core;
    crate::finish_traced(
        &mut out,
        traced_wall.as_secs_f64(),
        untraced_wall,
        in_wall.as_secs_f64() / traced_wall.as_secs_f64(),
    );
    Ok(out)
}
