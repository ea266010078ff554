//! `serve_cold` and `serve_warm`: one closed-loop client submits a JSONL
//! batch to the `tcp-serve` binary and reads every result line.
//!
//! `serve_cold` starts each request batch on an empty store, so every
//! request simulates and every checkpoint is written. `serve_warm` sends
//! the same batch plus seeded repeats to a store the set-up filled, so
//! no request simulates: the store's read side, memo lookups and JSON
//! are the whole run.

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use tcp_experiments::store::{decode_record, encode_record, SweepStore};
use tcp_experiments::sweep::{CheckpointOpts, Job, PrefetcherSpec, SweepEngine};
use tcp_json::Json;
use tcp_mem::SplitMix64;
use tcp_sim::{RunResult, SystemConfig};
use tcp_workloads::{suite, Benchmark};

use crate::layers::{self, Layers};
use crate::{Args, Outcome, Samples};

/// Micro-ops per request: short jobs, so per-job machine construction
/// and checkpoint writes are a large share of the cost.
const OPS: u64 = 10_000;
const MACHINES: [&str; 2] = ["table1", "table1-ideal-l2"];
/// Requests per executor batch and checkpoint: `tcp-serve`'s default.
/// Batch sizes are multiples of it, so every chunk fills without EOF.
const CHUNK: usize = 8;
/// Repeated requests appended to the warm batch.
const WARM_REPEATS: usize = 88;
/// Extra records in the warm store: short runs at this many distinct op
/// counts per benchmark and machine, starting at [`FILLER_OPS`].
const FILLER_VARIANTS: u64 = 40;
const FILLER_OPS: u64 = 1_000;

#[derive(Clone)]
struct Request {
    bench: &'static str,
    preset: &'static str,
    machine: &'static str,
    ops: u64,
}

impl Request {
    fn line(&self) -> String {
        let mut o = BTreeMap::new();
        o.insert("benchmark".to_owned(), Json::Str(self.bench.to_owned()));
        o.insert("prefetcher".to_owned(), Json::Str(self.preset.to_owned()));
        o.insert("machine".to_owned(), Json::Str(self.machine.to_owned()));
        o.insert("ops".to_owned(), Json::Num(self.ops as f64));
        tcp_json::to_string(&Json::Obj(o))
    }
}

/// Every shipped benchmark × every preset × both machines, in twelve
/// rounds: one per preset and machine, in a fixed order, each covering
/// every benchmark. Seed 0 keeps suite order within each round; other
/// seeds shuffle it and add a seeded jitter of under 64 ops to each
/// request, so each seed's requests are distinct jobs of the same size.
/// The fixed round order keeps the work before any point in the batch
/// about the same for every seed.
fn cold_batch(seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    for (preset, _) in PrefetcherSpec::presets() {
        for machine in MACHINES {
            let mut round: Vec<Request> = suite()
                .iter()
                .map(|b| Request {
                    bench: b.name,
                    preset,
                    machine,
                    ops: OPS + if seed == 0 { 0 } else { rng.next_below(64) },
                })
                .collect();
            if seed != 0 {
                crate::shuffle(&mut round, rng.next_u64());
            }
            out.extend(round);
        }
    }
    out
}

/// One chunk of short requests covering every preset.
fn warmup_chunk() -> Vec<Request> {
    let bench = suite()[0].name;
    PrefetcherSpec::presets()
        .iter()
        .map(|(preset, _)| (*preset, MACHINES[0]))
        .chain([("null", MACHINES[1]), ("tcp-8k", MACHINES[1])])
        .map(|(preset, machine)| Request {
            bench,
            preset,
            machine,
            ops: OPS,
        })
        .collect()
}

/// Fills `store` with [`FILLER_VARIANTS`] short no-prefetch runs of
/// every benchmark on both machines, through the same engine and store
/// the service uses. The warm service loads them all on every start, so
/// store loading outweighs process start-up.
fn fill_store(args: &Args, store: &Path) -> Result<(), String> {
    let mut st = SweepStore::open(store).map_err(|e| e.to_string())?;
    let jobs: Vec<Job> = suite()
        .iter()
        .flat_map(|b| {
            MACHINES.iter().flat_map(move |m| {
                let machine = if *m == MACHINES[0] {
                    SystemConfig::table1()
                } else {
                    SystemConfig::table1_ideal_l2()
                };
                (0..FILLER_VARIANTS)
                    .map(move |k| Job::new(b, FILLER_OPS + k, &machine, PrefetcherSpec::Null))
            })
        })
        .collect();
    let opts = CheckpointOpts {
        batch_jobs: jobs.len(),
        ..CheckpointOpts::default()
    };
    SweepEngine::with_threads(args.threads)
        .run_with(&mut st, &jobs, &opts)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The cold batch followed by [`WARM_REPEATS`] seeded picks from it.
fn warm_batch(cold: &[Request], seed: u64) -> (Vec<Request>, Vec<usize>) {
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    let picks: Vec<usize> = (0..WARM_REPEATS)
        .map(|_| rng.next_below(cold.len() as u64) as usize)
        .collect();
    let mut all = cold.to_vec();
    all.extend(picks.iter().map(|&i| cold[i].clone()));
    (all, picks)
}

fn job_of(r: &Request, benches: &BTreeMap<&str, Benchmark>) -> Job {
    job_from_json(
        &tcp_json::parse(&r.line()).expect("request lines are JSON"),
        benches,
    )
    .expect("the batch names only known benchmarks and presets")
}

/// Decodes a request the way `tcp-serve` does: benchmark by name,
/// prefetcher by preset name, machine, ops.
fn job_from_json(v: &Json, benches: &BTreeMap<&str, Benchmark>) -> Option<Job> {
    let bench = benches.get(v.get("benchmark")?.as_str()?)?;
    let spec = PrefetcherSpec::from_name(v.get("prefetcher")?.as_str()?)?;
    let machine = match v.get("machine")?.as_str()? {
        "table1" => SystemConfig::table1(),
        "table1-ideal-l2" => SystemConfig::table1_ideal_l2(),
        _ => return None,
    };
    Some(Job::new(
        bench,
        v.get("ops")?.as_f64()? as u64,
        &machine,
        spec,
    ))
}

/// What the client saw from one `tcp-serve` process.
struct ServeRun {
    lines: Vec<String>,
    answers_ms: Vec<f64>,
    peak_rss_mb: f64,
    stderr: String,
    ok: bool,
}

/// Spawns `tcp-serve` on `store`, submits `input` (whole lines, a
/// multiple of [`CHUNK`]) and reads `n` result lines, timing each from
/// submission. Stdin stays open until the last result is read, so the
/// peak RSS is read from a live process.
fn serve_once(args: &Args, store: &Path, input: &str, n: usize) -> Result<ServeRun, String> {
    assert!(n.is_multiple_of(CHUNK), "batch must fill every chunk");
    let mut child = Command::new(&args.serve_bin)
        .arg("--store")
        .arg(store)
        .args(["--threads", &args.threads.to_string()])
        .args(["--stream", "--batch", &CHUNK.to_string(), "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting {}: {e}", args.serve_bin.display()))?;
    let mut stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let pid = child.id();
    let submitted = Instant::now();
    let (lines, answers_ms, peak, stderr_text) = std::thread::scope(|sc| {
        let err = sc.spawn(move || {
            let mut s = String::new();
            let _ = stderr.read_to_string(&mut s);
            s
        });
        let writer = sc.spawn(move || stdin.write_all(input.as_bytes()).map(|()| stdin));
        let mut reader = BufReader::new(stdout);
        let mut lines = Vec::with_capacity(n);
        let mut times = Vec::with_capacity(n);
        let mut line = String::new();
        while lines.len() < n {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    times.push(submitted.elapsed().as_secs_f64() * 1e3);
                    lines.push(line.trim_end().to_owned());
                }
            }
        }
        let peak = crate::sys::peak_rss_mb(Some(pid)).unwrap_or(0.0);
        // Closing stdin lets the service finish; drain what it still says.
        drop(writer.join().expect("writer thread"));
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        lines.extend(rest.lines().map(str::to_owned));
        (lines, times, peak, err.join().expect("stderr thread"))
    });
    let status = child
        .wait()
        .map_err(|e| format!("waiting for tcp-serve: {e}"))?;
    Ok(ServeRun {
        ok: status.success() && lines.len() == n,
        lines,
        answers_ms,
        peak_rss_mb: peak,
        stderr: stderr_text,
    })
}

/// The service's own summary counts, read from its stderr:
/// (requests, simulated, from store, from memo, failed, quarantined).
fn service_counts(stderr: &str) -> Option<[u64; 6]> {
    let nums = |line: &str| -> Vec<u64> {
        line.split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse().ok())
            .collect()
    };
    let summary = stderr.lines().find(|l| l.contains(" requests, "))?;
    let s = nums(summary);
    let store = stderr.lines().find(|l| l.contains(" quarantined "))?;
    let q = nums(store);
    Some([
        *s.first()?,
        *s.get(1)?,
        *s.get(2)?,
        *s.get(3)?,
        *s.get(4)?,
        *q.get(3)?,
    ])
}

/// Canonical form of a result line without its `index`.
fn without_index(line: &str) -> Option<String> {
    match tcp_json::parse(line).ok()? {
        Json::Obj(mut o) => {
            o.remove("index");
            Some(tcp_json::to_string(&Json::Obj(o)))
        }
        _ => None,
    }
}

/// The result line `tcp-serve` prints for `r` at position `index`.
fn result_line(index: usize, r: &RunResult) -> String {
    let mut o = BTreeMap::new();
    o.insert("index".to_owned(), Json::Num(index as f64));
    o.insert("benchmark".to_owned(), Json::Str(r.benchmark.clone()));
    o.insert("prefetcher".to_owned(), Json::Str(r.prefetcher.clone()));
    o.insert(
        "prefetcher_bytes".to_owned(),
        Json::Str(r.prefetcher_bytes.to_string()),
    );
    o.insert("ipc".to_owned(), Json::Num(r.ipc));
    o.insert("cycles".to_owned(), Json::Str(r.cycles.to_string()));
    o.insert("ops".to_owned(), Json::Str(r.ops.to_string()));
    tcp_json::to_string(&Json::Obj(o))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

fn input_of(batch: &[Request]) -> String {
    batch.iter().map(|r| r.line() + "\n").collect()
}

/// Checks a cold run's lines against in-process `run_benchmark` results,
/// one per request, with exact cycles and ops.
fn check_cold(out: &mut Outcome, lines: &[String], expected: &[RunResult]) {
    for (i, (line, r)) in lines.iter().zip(expected).enumerate() {
        let want = result_line(i, r);
        out.check(*line == want, || {
            format!("request {i}: got {line}, want {want}")
        });
    }
    out.check(lines.len() == expected.len(), || {
        format!(
            "{} result lines for {} requests",
            lines.len(),
            expected.len()
        )
    });
}

pub fn run(args: &Args, warm: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut samples = Samples::default();
    let work = args
        .work_dir
        .join(if warm { "serve_warm" } else { "serve_cold" });
    let store = work.join("store");
    let cold = cold_batch(args.seed);
    let (warm_reqs, picks) = warm_batch(&cold, args.seed);
    let cold_input = input_of(&cold);
    let warm_input = input_of(&warm_reqs);

    // Set-up. Cold: a fresh work directory and one chunk of requests,
    // one per preset, served on a throwaway store so the binary, allocator
    // and file system are warm. Warm: one cold run of the batch, whose
    // lines are also the warm run's reference, then the filler records.
    let warmup = input_of(&warmup_chunk());
    let filled = crate::timed_setup(
        &mut samples,
        if warm { 3 } else { crate::SETUP_REPS },
        || -> Result<Option<ServeRun>, String> {
            fresh_dir(&work)?;
            if warm {
                fresh_dir(&store)?;
                let cold_run = serve_once(args, &store, &cold_input, cold.len())?;
                fill_store(args, &store)?;
                Ok(Some(cold_run))
            } else {
                let warmup_store = work.join("warmup");
                fresh_dir(&warmup_store)?;
                let run = serve_once(args, &warmup_store, &warmup, CHUNK)?;
                if !run.ok {
                    return Err(format!("warm-up batch failed: {}", run.stderr));
                }
                Ok(None)
            }
        },
    )?;
    if let Some(f) = &filled {
        out.check(f.ok, || {
            format!("filling the warm store failed: {}", f.stderr)
        });
    }

    if args.trace {
        return traced(args, warm, &store, &cold, &warm_reqs, filled, out);
    }

    let (input, n) = if warm {
        (&warm_input, warm_reqs.len())
    } else {
        (&cold_input, cold.len())
    };
    let mut first: Option<ServeRun> = None;
    let mut iteration_error: Option<String> = None;
    samples.requests_per_iter = n as u64;
    // Warm iterations are one thread loading the store and answering
    // from it; cold ones simulate on the executor and fsync checkpoints.
    samples.summary = if warm {
        crate::Summary::Fastest
    } else {
        crate::Summary::Median
    };
    samples.uops_per_iter = if warm {
        0
    } else {
        cold.iter().map(|r| r.ops / 2 + r.ops).sum()
    };
    // Cold iterations each get a new empty store directory, so no
    // deletion of the previous iteration's files falls in a timed run.
    let cold_stores = work.join("cold_stores");
    let mut iteration = 0usize;
    crate::measure_loop(args.seconds, 3, false, &mut samples, |s| {
        let dir = if warm {
            store.clone()
        } else {
            iteration += 1;
            cold_stores.join(iteration.to_string())
        };
        let run = match serve_once(args, &dir, input, n) {
            Ok(r) => r,
            Err(e) => {
                iteration_error.get_or_insert(e);
                return;
            }
        };
        s.answers_ms.push(run.answers_ms.clone());
        s.peak_rss_mb = s.peak_rss_mb.max(run.peak_rss_mb);
        let counts = service_counts(&run.stderr);
        let (sims, quarantined) = counts.map_or((u64::MAX, u64::MAX), |c| (c[1], c[5]));
        out.check(run.ok, || format!("tcp-serve failed: {}", run.stderr));
        out.check(quarantined == 0, || {
            format!("store quarantined records: {}", run.stderr)
        });
        out.check(!warm || sims == 0, || {
            format!("warm batch simulated {sims} jobs")
        });
        match &first {
            None => first = Some(run),
            Some(f) => out.check(f.lines == run.lines, || {
                "result lines differ between iterations".to_owned()
            }),
        }
    });
    if let Some(e) = iteration_error {
        return Err(e);
    }
    let first = first.expect("at least one iteration");

    // Reference results: the same jobs run in process.
    let benches: BTreeMap<&str, Benchmark> = suite().into_iter().map(|b| (b.name, b)).collect();
    let jobs: Vec<Job> = cold.iter().map(|r| job_of(r, &benches)).collect();
    let expected = tcp_sim::sweep::run_jobs_stealing(jobs.len(), args.threads, |i| {
        let j = &jobs[i];
        tcp_sim::run_benchmark(&j.benchmark, j.n_ops, &j.machine, j.prefetcher.build())
    });
    if warm {
        let cold_lines = &filled.as_ref().expect("warm set-up fills").lines;
        check_cold(&mut out, cold_lines, &expected);
        for (i, line) in first.lines.iter().enumerate() {
            let same = if i < cold.len() {
                *line == cold_lines[i]
            } else {
                without_index(line) == without_index(&cold_lines[picks[i - cold.len()]])
            };
            out.check(same, || {
                format!("warm line {i} differs from the cold result: {line}")
            });
        }
    } else {
        check_cold(&mut out, &first.lines, &expected);
    }
    samples.finish(&mut out);
    let text: String = expected.iter().map(crate::result_text).collect();
    out.notes.push(format!(
        "digest {} {} ({} requests; service counts requests/simulated/store/memo/failed/quarantined {:?})",
        if warm { "serve_warm" } else { "serve_cold" },
        crate::digest(&text),
        n,
        service_counts(&first.stderr).unwrap_or_default()
    ));
    Ok(out)
}

/// The traced run: one untraced `tcp-serve` run for reference, then the
/// same batch served in process through the same public pieces
/// (`SweepStore`, `tcp_json`, `SweepEngine::run_with`) with a span
/// around each, then the simulations themselves split into layers.
fn traced(
    args: &Args,
    warm: bool,
    store: &Path,
    cold: &[Request],
    warm_reqs: &[Request],
    filled: Option<ServeRun>,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let batch = if warm { warm_reqs } else { cold };
    if !warm {
        fresh_dir(store)?;
    }
    let t = Instant::now();
    let reference = serve_once(args, store, &input_of(batch), batch.len())?;
    let untraced_wall = t.elapsed().as_secs_f64();
    out.check(reference.ok, || {
        format!("tcp-serve failed: {}", reference.stderr)
    });
    let counts = service_counts(&reference.stderr).unwrap_or_default();

    // In-process replica on a copy of the store the service started from.
    let replica: PathBuf = store.with_file_name("replica");
    fresh_dir(&replica)?;
    if warm {
        let src = store.join(tcp_experiments::store::STORE_FILE);
        fs::copy(&src, replica.join(tcp_experiments::store::STORE_FILE))
            .map_err(|e| format!("copying {}: {e}", src.display()))?;
    }
    let benches: BTreeMap<&str, Benchmark> = suite().into_iter().map(|b| (b.name, b)).collect();
    let lines: Vec<String> = batch.iter().map(Request::line).collect();
    let start = Instant::now();
    let t = Instant::now();
    let mut st = SweepStore::open(&replica).map_err(|e| e.to_string())?;
    let open = t.elapsed();
    let engine = SweepEngine::with_threads(args.threads);
    let (mut parse, mut sweep, mut emit) = Default::default();
    let mut produced = Vec::with_capacity(batch.len());
    for (c, chunk) in lines.chunks(CHUNK).enumerate() {
        let t = Instant::now();
        let jobs: Vec<Job> = chunk
            .iter()
            .map(|l| {
                tcp_json::parse(l)
                    .ok()
                    .and_then(|v| job_from_json(&v, &benches))
            })
            .collect::<Option<_>>()
            .ok_or("a request line did not decode")?;
        parse += t.elapsed();
        let t = Instant::now();
        let results = engine
            .run_with(&mut st, &jobs, &CheckpointOpts::default())
            .map_err(|e| e.to_string())?;
        sweep += t.elapsed();
        let t = Instant::now();
        for (k, r) in results.iter().enumerate() {
            produced.push(result_line(c * CHUNK + k, r));
        }
        emit += t.elapsed();
    }
    let replica_wall = start.elapsed();
    out.check(produced == reference.lines, || {
        "in-process replica lines differ from tcp-serve's".to_owned()
    });
    if let Some(f) = &filled {
        for (i, line) in reference.lines.iter().take(cold.len()).enumerate() {
            out.check(*line == f.lines[i], || {
                format!("warm line {i} differs from cold")
            });
        }
    }
    let stats = engine.stats();
    let store_stats = st.stats();
    out.check(
        store_stats.total_quarantined() == 0 && counts[5] == 0,
        || "store quarantined records".to_owned(),
    );

    // Store codec and checkpoint writes, replayed standalone over the
    // records this batch produced.
    let mut jobs_by_key: BTreeMap<String, Job> = BTreeMap::new();
    let mut records: Vec<(String, RunResult)> = Vec::new();
    for r in batch {
        let job = job_of(r, &benches);
        let key = job.key();
        if let std::collections::btree_map::Entry::Vacant(slot) = jobs_by_key.entry(key) {
            let stored = st
                .get(slot.key())
                .ok_or("a served request is missing from the store")?;
            records.push((slot.key().clone(), stored.clone()));
            slot.insert(job);
        }
    }
    let t = Instant::now();
    for (k, r) in &records {
        let (dk, dr) = decode_record(&encode_record(k, r)).map_err(|e| format!("{e:?}"))?;
        out.check(dk == *k && layers::same_result(&dr, r), || {
            format!("store record for {k} does not round-trip")
        });
    }
    let codec = t.elapsed();
    let flush_dir = store.with_file_name("flush");
    fresh_dir(&flush_dir)?;
    let mut fst = SweepStore::open(&flush_dir).map_err(|e| e.to_string())?;
    let mut flush = std::time::Duration::ZERO;
    if !warm {
        for chunk in records.chunks(CHUNK) {
            for (k, r) in chunk {
                fst.insert(k, r);
            }
            let t = Instant::now();
            fst.flush().map_err(|e| e.to_string())?;
            flush += t.elapsed();
        }
    }
    let store_bytes = fs::metadata(replica.join(tcp_experiments::store::STORE_FILE))
        .map(|m| m.len())
        .unwrap_or(0);

    // The simulations, split into layers. A warm batch simulates none of
    // them; its layer times are what the store saved.
    let mut l = Layers::default();
    let jobs: Vec<Job> = records
        .iter()
        .map(|(k, _)| jobs_by_key[k].clone())
        .collect();
    let mut traced_results = Vec::new();
    for chunk in jobs.chunks(CHUNK) {
        traced_results.extend(layers::run_batch(chunk, args.threads, &mut l));
    }
    for ((k, stored), r) in records.iter().zip(&traced_results) {
        out.check(layers::same_result(stored, r), || {
            format!("traced simulation of {k} differs from the served result")
        });
    }

    let m = &mut out.metrics;
    l.emit(m);
    m.count("sweep.requested", stats.requested as u64);
    m.count("sweep.executed", stats.executed as u64);
    m.count("sweep.memo_hits", stats.memo_hits() as u64);
    m.count("sweep.store_hits", stats.store_hits as u64);
    m.secs("store.open_s", open);
    m.secs("store.codec_s", codec);
    m.secs("store.flush_s", flush);
    m.count("store.flushes", store_stats.flushes as u64);
    m.count("store.records", st.len() as u64);
    m.push("store.bytes", store_bytes as f64, "bytes");
    m.count(
        "store.quarantined",
        store_stats.total_quarantined() as u64 + counts[5],
    );
    m.secs("json.parse_s", parse);
    m.secs("json.emit_s", emit);
    let spans = (open + parse + sweep + emit).as_secs_f64();
    crate::finish_traced(
        &mut out,
        replica_wall.as_secs_f64(),
        untraced_wall,
        spans / replica_wall.as_secs_f64(),
    );
    out.notes.push(format!(
        "service counts requests/simulated/store/memo/failed/quarantined {counts:?} ; replica requested {} executed {} store hits {} memo hits {}",
        stats.requested,
        stats.executed,
        stats.store_hits,
        stats.memo_hits()
    ));
    Ok(out)
}
