//! The repository benchmark: end-to-end host-time metrics for four user
//! workloads, and a separate traced run that splits one run of each
//! into the simulator's layers. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <figures|serve_cold|serve_warm|trace_replay>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --serve-bin <path to tcp-serve> --work-dir <work dir>
//!           [--threads <n>]
//! ```
//!
//! It runs from the repository root and reports exactly the metrics
//! `BENCHMARK.json` declares. The last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it are the human-readable report. A failed check exits non-zero.

#![forbid(unsafe_code)]

mod figures;
mod layers;
mod replay;
mod serve;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tcp_json::Json;
use tcp_mem::SplitMix64;
use tcp_perf::{median, percentile};
use tcp_workloads::{suite, Benchmark};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
    /// Executor threads: the host's processors, at most two, so every
    /// workload runs the same pool on every host that has two. `--threads`
    /// lowers it for the sensitivity check in the README.
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(name.to_owned(), value.clone());
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin: PathBuf::from(get("serve-bin")?),
        work_dir: PathBuf::from(get("work-dir")?),
        threads: match map.get("threads") {
            Some(t) => t
                .parse::<usize>()
                .map_err(|e| format!("--threads: {e}"))?
                .clamp(1, sys::nproc()),
            None => sys::nproc().min(2),
        },
    })
}

/// Named metric values with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_owned(), value, unit.to_owned()));
    }
    pub fn secs(&mut self, name: &str, d: Duration) {
        self.push(name, d.as_secs_f64(), "s");
    }
    pub fn count(&mut self, name: &str, n: u64) {
        self.push(name, n as f64, "count");
    }
}

/// What one workload run produced: operation counts, the failures found
/// by its checks, metrics, and report lines (digest, tail percentile).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// How a stretch's samples over the run's iterations become one value
/// (see [`Samples::finish`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Summary {
    /// The median. For iterations spread over executor threads and the
    /// disk: there a fast sample is a rare lucky one (both processors
    /// quiet at once, or an fsync that found the disk idle), so the
    /// fastest swings from run to run while the median holds.
    #[default]
    Median,
    /// The fastest. For one thread serving short requests: interference
    /// only slows a request, and with a hundred samples or more the
    /// fastest is the request run on a quiet host, while the median
    /// follows the host's load from minute to minute.
    Fastest,
}

/// Everything the untraced measurement loop collected.
#[derive(Default)]
pub struct Samples {
    /// Host seconds per iteration.
    pub walls: Vec<f64>,
    /// Per iteration, milliseconds from the iteration's start to each
    /// request's answer, in request order.
    pub answers_ms: Vec<Vec<f64>>,
    /// Whether each request is sent when the previous one is answered;
    /// otherwise the whole batch is sent at the iteration's start.
    pub sequential: bool,
    pub summary: Summary,
    /// Requests answered per iteration.
    pub requests_per_iter: u64,
    /// Simulated uops executed per iteration (memo and store hits excluded).
    pub uops_per_iter: u64,
    /// (user + sys, sys) CPU seconds over all iterations.
    pub cpu: (f64, f64),
    pub peak_rss_mb: f64,
    pub setups: Vec<f64>,
}

impl Samples {
    /// Turns the samples into the end-to-end metrics and report lines.
    ///
    /// Every iteration serves the same requests in the same order. Each
    /// iteration is cut at its answers into stretches: start to first
    /// answer, answer to answer, last answer to the iteration's end. Each
    /// stretch is summarised over the run's iterations (by the workload's
    /// [`Summary`]) and the iteration is rebuilt from the summaries:
    /// `wall_s` is their sum, and a request's response time is the
    /// stretches from its sending to its answer. `cpu_s` is the run's CPU
    /// utilisation (CPU seconds per wall second) times `wall_s`.
    pub fn finish(&self, out: &mut Outcome) {
        let stretches = self.stretches_ms();
        let wall = stretches.iter().sum::<f64>() / 1e3;
        let utilisation = self.cpu.0 / self.walls.iter().sum::<f64>();
        let responses = self.responses_ms(&stretches);
        let (tail_ms, pct) = tail(&responses);
        let m = &mut out.metrics;
        m.push("wall_s", wall, "s");
        m.push("cpu_s", utilisation * wall, "s");
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.push(
            "requests_per_s",
            self.requests_per_iter as f64 / wall,
            "1/s",
        );
        m.push("response_p50_ms", median(&responses), "ms");
        m.push("response_tail_ms", tail_ms, "ms");
        m.push("setup_s", median(&self.setups), "s");
        out.notes
            .push(format!("set-up repetitions {:.4?} s", self.setups));
        out.notes.push(format!(
            "iterations {} ; measured iteration wall fastest {:.4} s, median {:.4} s, slowest {:.4} s ; stretches summarised by their {} ; CPU utilisation {utilisation:.3}",
            self.walls.len(),
            percentile(&self.walls, 0.0),
            median(&self.walls),
            percentile(&self.walls, 1.0),
            match self.summary {
                Summary::Median => "median",
                Summary::Fastest => "fastest",
            },
        ));
        out.notes.push(format!(
            "requests per iteration {} ({}) ; response tail = p{pct:.2} of {} requests",
            self.requests_per_iter,
            if self.sequential {
                "each sent when the previous one is answered"
            } else {
                "sent together"
            },
            responses.len()
        ));
        out.notes.push(format!(
            "sys_s {:.6} s (ungated: under the 10 ms tick of /proc accounting on some workloads)",
            self.cpu.1 / self.walls.len() as f64
        ));
        out.notes.push(format!(
            "sim_uops_per_s {:.0} uops/s (ungated: executed uops per host second; memo and store hits excluded)",
            self.uops_per_iter as f64 / wall
        ));
    }

    /// Each stretch summarised over the iterations; the last one ends
    /// with the iteration. An iteration cut short (a failed request) has
    /// no samples for the answers it lacks, and its rest counts as the
    /// last stretch.
    fn stretches_ms(&self) -> Vec<f64> {
        let n = self.answers_ms.iter().map(Vec::len).max().unwrap_or(0);
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); n + 1];
        for (answers, wall) in self.answers_ms.iter().zip(&self.walls) {
            let mut prev = 0.0;
            for (i, &t) in answers.iter().enumerate() {
                per[i].push(t - prev);
                prev = t;
            }
            per[n].push(wall * 1e3 - prev);
        }
        per.iter()
            .map(|s| match self.summary {
                Summary::Median => median(s),
                Summary::Fastest => percentile(s, 0.0),
            })
            .collect()
    }

    /// Each request's rebuilt response time, from its sending to its
    /// answer. A run whose every iteration failed before any answer
    /// reports the whole iteration.
    fn responses_ms(&self, stretches: &[f64]) -> Vec<f64> {
        let answers = &stretches[..stretches.len() - 1];
        if answers.is_empty() {
            return vec![stretches.iter().sum()];
        }
        if self.sequential {
            return answers.to_vec();
        }
        answers
            .iter()
            .scan(0.0, |done, s| {
                *done += s;
                Some(*done)
            })
            .collect()
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// (value, percentile). Under 21 samples that percentile is at or below
/// the median, so the maximum is reported instead.
fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let p = if n > 20 {
        (n - 10) as f64 / n as f64
    } else {
        1.0
    };
    (percentile(values, p), 100.0 * p)
}

/// Runs `iteration` until `seconds` of measurement have passed (at
/// least `min_iters` times), collecting walls and CPU time. `own_cpu`
/// selects this process's CPU time, otherwise its reaped children's.
pub fn measure_loop<F>(
    seconds: f64,
    min_iters: usize,
    own_cpu: bool,
    samples: &mut Samples,
    mut iteration: F,
) where
    F: FnMut(&mut Samples),
{
    let before = sys::CpuTimes::now();
    let start = Instant::now();
    while samples.walls.len() < min_iters || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        iteration(samples);
        samples.walls.push(t.elapsed().as_secs_f64());
    }
    let after = sys::CpuTimes::now();
    samples.cpu = if own_cpu {
        after.own_since(&before)
    } else {
        after.children_since(&before)
    };
}

/// Set-up repetitions of the workloads whose set-up is short; `setup_s`
/// is their median.
pub const SETUP_REPS: usize = 15;

/// Times `setup` `reps` times, keeping the last result; `setup_s` is
/// the median.
pub fn timed_setup<T>(samples: &mut Samples, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(setup());
        samples.setups.push(t.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// The shipped suite for seed 0; otherwise every benchmark's generator
/// seed is re-drawn from `seed`.
pub fn seeded_suite(seed: u64) -> Vec<Benchmark> {
    let mut benches = suite();
    if seed != 0 {
        for b in &mut benches {
            b.spec.seed =
                SplitMix64::new(b.spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        }
    }
    benches
}

/// Fisher–Yates shuffle driven by `seed`; seed 0 keeps the order.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    if seed == 0 {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a digest of a canonical text of simulated statistics, so two
/// builds can be compared exactly.
pub fn digest(text: &str) -> String {
    format!("{:016x}", tcp_experiments::store::fnv1a64(text.as_bytes()))
}

/// Canonical text of one result's simulated statistics.
pub fn result_text(r: &tcp_sim::RunResult) -> String {
    format!(
        "{}|{}|{}|{}|{}|{:?}\n",
        r.benchmark, r.prefetcher, r.cycles, r.ops, r.ipc, r.stats
    )
}

/// Fills in the traced run's ratios and any layer the workload never
/// entered (as 0).
pub fn finish_traced(out: &mut Outcome, traced_wall: f64, untraced_wall: f64, busy_ratio: f64) {
    out.metrics.push("trace.wall_s", traced_wall, "s");
    out.metrics
        .push("trace.layer_sum_ratio", busy_ratio, "ratio");
    out.metrics
        .push("trace.overhead", traced_wall / untraced_wall, "ratio");
    out.notes.push(format!(
        "traced wall {traced_wall:.3} s ; untraced wall {untraced_wall:.3} s ; tracing overhead {:.3}x ; layer sum / traced capacity {busy_ratio:.3}",
        traced_wall / untraced_wall
    ));
}

/// The metrics `BENCHMARK.json` declares for this run, as (name, unit):
/// `end_to_end` untraced, `per_layer` traced. `sys_s`, `sim_uops_per_s`
/// and `failure_rate` are printed but not declared: each reads 0 on some
/// workload (see `perfbench/README.md`).
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let spec = tcp_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    spec.get(key)
        .and_then(Json::as_arr)
        .and_then(|list| {
            list.iter()
                .map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_owned(),
                        m.get("unit")?.as_str()?.to_owned(),
                    ))
                })
                .collect()
        })
        .ok_or_else(|| format!("BENCHMARK.json: {key} is not a list of named metrics with units"))
}

fn render(args: &Args, expected: &[(String, String)], out: &Outcome) -> (String, bool) {
    let have: BTreeMap<&str, (f64, &str)> = out
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| (n.as_str(), (*v, u.as_str())))
        .collect();
    let mut metrics = BTreeMap::new();
    let mut table = String::new();
    // A metric the report lacks, with the wrong unit, or not finite makes
    // the run incorrect; a layer the workload never entered reads 0.
    let mut problems = Vec::new();
    for (name, unit) in expected {
        let value = match have.get(name.as_str()) {
            Some((v, u)) if u != unit => {
                problems.push(format!("{name} is in {u}, expected {unit}"));
                *v
            }
            Some((v, _)) => *v,
            None if args.trace => 0.0,
            None => {
                problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            problems.push(format!("{name} is {value}"));
        }
        table.push_str(&format!("  {name:<26} {value:>16.6} {unit}\n"));
        let mut m = BTreeMap::new();
        m.insert("value".to_owned(), Json::Num(value));
        m.insert("unit".to_owned(), Json::Str((*unit).to_owned()));
        metrics.insert((*name).to_owned(), Json::Obj(m));
    }
    let failed = out.failures.len() as u64;
    let correct = failed == 0 && problems.is_empty() && out.attempted > 0;
    let mut obj = BTreeMap::new();
    obj.insert("correct".to_owned(), Json::Bool(correct));
    obj.insert(
        "attempted".to_owned(),
        Json::Num(out.attempted.max(1) as f64),
    );
    obj.insert("failed".to_owned(), Json::Num(failed as f64));
    obj.insert("metrics".to_owned(), Json::Obj(metrics));
    let mut text = format!(
        "== perfbench {} seed {} {} ({} threads of {} processors) ==\n",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.threads,
        sys::nproc()
    );
    text.push_str(&table);
    text.push_str(&format!(
        "  failure_rate {:.6} ({failed} failed of {} attempted)\n",
        failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    ));
    for note in &out.notes {
        text.push_str(&format!("  {note}\n"));
    }
    for f in out.failures.iter().take(20) {
        text.push_str(&format!("  FAILED: {f}\n"));
    }
    for p in &problems {
        text.push_str(&format!("  INCOMPLETE: {p}\n"));
    }
    text.push_str(&tcp_json::to_string(&Json::Obj(obj)));
    (text, correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let expected = match declared_metrics(args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "figures" => figures::run(&args),
        "serve_cold" => serve::run(&args, false),
        "serve_warm" => serve::run(&args, true),
        "trace_replay" => replay::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (text, correct) = render(&args, &expected, &out);
    println!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
