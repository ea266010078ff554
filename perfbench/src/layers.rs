//! The traced run's layer split, measured from outside the program.
//!
//! A traced job rebuilds `run_benchmark` from its public pieces with a
//! span around each: `PrefetcherSpec::build`, `MemoryHierarchy::new` and
//! the `OooCore` run. A forwarding [`Prefetcher`] wrapper times every
//! callback, which gives the prefetcher's self time. Generation and
//! hierarchy time come from standalone replays of the same generator and
//! access stream; the core's time is what remains of the run span.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use tcp_cache::{HierarchyStats, L1MissInfo, MemoryHierarchy, PrefetchRequest, Prefetcher};
use tcp_cpu::OooCore;
use tcp_experiments::sweep::Job;
use tcp_mem::{LineAddr, MemAccess};
use tcp_sim::RunResult;

use crate::Metrics;

/// Self time and miss-callback count shared between a [`Timed`]
/// wrapper (owned by the hierarchy) and the caller that reads it.
#[derive(Clone, Default)]
pub struct Probe {
    self_time: Rc<Cell<Duration>>,
    on_miss_calls: Rc<Cell<u64>>,
}

impl Probe {
    pub fn self_time(&self) -> Duration {
        self.self_time.get()
    }
    pub fn on_miss_calls(&self) -> u64 {
        self.on_miss_calls.get()
    }
    fn add(&self, since: Instant) {
        self.self_time.set(self.self_time.get() + since.elapsed());
    }
}

/// Forwards every call to `inner`, timing the callbacks.
pub struct Timed {
    inner: Box<dyn Prefetcher + Send>,
    probe: Probe,
}

impl Timed {
    pub fn new(inner: Box<dyn Prefetcher + Send>) -> (Timed, Probe) {
        let probe = Probe::default();
        (
            Timed {
                inner,
                probe: probe.clone(),
            },
            probe,
        )
    }
}

impl Prefetcher for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
    fn on_miss(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        let t = Instant::now();
        self.inner.on_miss(info, out);
        self.probe.add(t);
        self.probe
            .on_miss_calls
            .set(self.probe.on_miss_calls.get() + 1);
    }
    fn on_hit(
        &mut self,
        access: &MemAccess,
        line: LineAddr,
        cycle: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let t = Instant::now();
        self.inner.on_hit(access, line, cycle, out);
        self.probe.add(t);
    }
    fn on_promoted_first_use(&mut self, info: &L1MissInfo, out: &mut Vec<PrefetchRequest>) {
        let t = Instant::now();
        self.inner.on_promoted_first_use(info, out);
        self.probe.add(t);
    }
    fn on_l1_evict(&mut self, line: LineAddr, cycle: u64) {
        let t = Instant::now();
        self.inner.on_l1_evict(line, cycle);
        self.probe.add(t);
    }
    fn on_l1_fill(&mut self, line: LineAddr, cycle: u64) {
        let t = Instant::now();
        self.inner.on_l1_fill(line, cycle);
        self.probe.add(t);
    }
}

/// Host time per layer, summed over jobs, plus the work counts the
/// layers did. Every time here is busy time on some worker thread.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub gen: Duration,
    pub uops: u64,
    pub core: Duration,
    pub sim_cycles: u64,
    pub ipcs: Vec<f64>,
    pub cache_build: Duration,
    pub cache_access: Duration,
    pub stats: HierarchyStats,
    pub prefetch_build: Duration,
    pub prefetch_self: Duration,
    pub table_bytes: u64,
    pub on_miss_calls: u64,
    /// Σ job spans (worker busy time).
    pub busy: Duration,
    /// Σ over batches of (batch wall × workers), less the workers' time
    /// in the standalone replays: the capacity the busy time is
    /// measured against.
    pub capacity: Duration,
    /// Σ over batches of the busiest worker's busy time less the
    /// idlest one's: the time the batch waits on its straggler.
    pub tail: Duration,
}

impl Layers {
    /// Sum of the layer self times; equals `busy` by construction for
    /// simulation jobs because the core is the remainder.
    pub fn layer_sum(&self) -> Duration {
        self.gen
            + self.core
            + self.cache_build
            + self.cache_access
            + self.prefetch_build
            + self.prefetch_self
    }

    pub fn add_stats(&mut self, s: &HierarchyStats) {
        let t = &mut self.stats;
        t.loads += s.loads;
        t.stores += s.stores;
        t.l1_hits += s.l1_hits;
        t.l1_misses += s.l1_misses;
        t.l1_mshr_merges += s.l1_mshr_merges;
        t.mshr_stall_cycles += s.mshr_stall_cycles;
        t.l2_demand_accesses += s.l2_demand_accesses;
        t.l2_demand_hits += s.l2_demand_hits;
        t.l2_demand_misses += s.l2_demand_misses;
        t.prefetches_issued += s.prefetches_issued;
        t.prefetches_already_resident += s.prefetches_already_resident;
        t.prefetches_dropped += s.prefetches_dropped;
        t.prefetches_to_memory += s.prefetches_to_memory;
        t.l1_prefetch_fills += s.l1_prefetch_fills;
        t.l1_writebacks += s.l1_writebacks;
        t.l2_writebacks += s.l2_writebacks;
        t.victim_hits += s.victim_hits;
        t.dtlb_misses += s.dtlb_misses;
        t.store_buffer_stall_cycles += s.store_buffer_stall_cycles;
        t.l2_breakdown.prefetched_original += s.l2_breakdown.prefetched_original;
        t.l2_breakdown.non_prefetched_original += s.l2_breakdown.non_prefetched_original;
        t.l2_breakdown.prefetched_extra += s.l2_breakdown.prefetched_extra;
    }

    /// Appends the simulator layers' metrics (`workloads.*`, `cpu.*`,
    /// `cache.*`, `prefetch.*`, and the `sweep.*` timings).
    pub fn emit(&self, m: &mut Metrics) {
        let s = &self.stats;
        m.push("workloads.gen_s", self.gen.as_secs_f64(), "s");
        m.push("workloads.uops", self.uops as f64, "count");
        m.push("cpu.self_s", self.core.as_secs_f64(), "s");
        m.push("cpu.sim_cycles", self.sim_cycles as f64, "count");
        m.push("cpu.ipc_geomean", geomean(&self.ipcs), "ipc");
        m.push("cache.build_s", self.cache_build.as_secs_f64(), "s");
        m.push("cache.access_s", self.cache_access.as_secs_f64(), "s");
        m.push("cache.l1_misses", s.l1_misses as f64, "count");
        m.push("cache.l2_demand_misses", s.l2_demand_misses as f64, "count");
        m.push(
            "cache.mshr_stall_cycles",
            s.mshr_stall_cycles as f64,
            "count",
        );
        m.push("prefetch.build_s", self.prefetch_build.as_secs_f64(), "s");
        m.push("prefetch.table_bytes", self.table_bytes as f64, "bytes");
        m.push("prefetch.on_miss_calls", self.on_miss_calls as f64, "count");
        m.push("prefetch.self_s", self.prefetch_self.as_secs_f64(), "s");
        m.push("prefetch.issued", s.prefetches_issued as f64, "count");
        let original = s.l2_breakdown.original();
        m.push(
            "prefetch.coverage",
            ratio(s.l2_breakdown.prefetched_original, original),
            "ratio",
        );
        // A useful prefetch is one a demand access later consumed.
        m.push(
            "prefetch.accuracy",
            ratio(s.l2_breakdown.prefetched_original, s.prefetches_issued),
            "ratio",
        );
        m.push("sweep.worker_busy_s", self.busy.as_secs_f64(), "s");
        m.push(
            "sweep.idle_frac",
            1.0 - self.busy.as_secs_f64() / self.capacity.as_secs_f64().max(f64::MIN_POSITIVE),
            "ratio",
        );
        m.push("sweep.tail_s", self.tail.as_secs_f64(), "s");
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    tcp_analysis::geometric_mean(v)
}

/// One traced job: its result and its layer times.
struct TracedJob {
    result: RunResult,
    layers: Layers,
    /// Time in the standalone replays, which only tracing does.
    replays: Duration,
    thread: ThreadId,
}

/// Simulates `job` exactly as `tcp_sim::run_benchmark` does (half the
/// ops warm up, unmeasured), with spans around each layer, then replays
/// the generator alone and the access stream into a fresh hierarchy.
fn run_traced(job: &Job) -> TracedJob {
    let n_ops = job.n_ops;
    let (warmup, total) = (n_ops / 2, n_ops / 2 + n_ops);
    let mut l = Layers::default();

    let t0 = Instant::now();
    let prefetcher = job.prefetcher.build();
    let t1 = Instant::now();
    let (timed, probe) = Timed::new(prefetcher);
    let (name, bytes) = (timed.name().to_owned(), timed.storage_bytes());
    let mut hierarchy = MemoryHierarchy::new(job.machine.hierarchy, Box::new(timed));
    let t2 = Instant::now();
    let mut core = OooCore::new(job.machine.core);
    let run = core.run_with_warmup(job.benchmark.generator(total), warmup, &mut hierarchy);
    let stats = hierarchy.finalize();
    let t3 = Instant::now();
    drop(hierarchy);

    let g0 = Instant::now();
    let mut generated = 0u64;
    for op in job.benchmark.generator(total) {
        black_box(op);
        generated += 1;
    }
    let gen = g0.elapsed();

    // The standalone hierarchy sees the same accesses in the same order;
    // the clock advances at the run's measured cycles per op.
    let (replay_timed, replay_probe) = Timed::new(job.prefetcher.build());
    let mut replay = MemoryHierarchy::new(job.machine.hierarchy, Box::new(replay_timed));
    let cycles_per_op = run.cycles.max(1) as f64 / run.ops.max(1) as f64;
    let r0 = Instant::now();
    for (i, op) in job.benchmark.generator(total).enumerate() {
        if let Some(acc) = op.mem_access() {
            black_box(replay.access(acc, (i as f64 * cycles_per_op) as u64));
        }
    }
    let replayed = r0.elapsed();
    drop(replay);
    let replays = g0.elapsed();
    let access = replayed
        .saturating_sub(gen)
        .saturating_sub(replay_probe.self_time());

    l.prefetch_build = t1 - t0;
    l.cache_build = t2 - t1;
    l.gen = gen;
    l.cache_access = access;
    l.prefetch_self = probe.self_time();
    l.core = (t3 - t2)
        .saturating_sub(gen)
        .saturating_sub(access)
        .saturating_sub(l.prefetch_self);
    l.uops = generated;
    l.sim_cycles = run.cycles;
    l.ipcs.push(run.ipc());
    l.table_bytes = bytes as u64;
    l.on_miss_calls = probe.on_miss_calls();
    l.busy = t3 - t0;
    l.add_stats(&stats);
    TracedJob {
        result: RunResult {
            benchmark: job.benchmark.name.to_owned(),
            prefetcher: name,
            prefetcher_bytes: bytes,
            ipc: run.ipc(),
            cycles: run.cycles,
            ops: run.ops,
            stats,
        },
        layers: l,
        replays,
        thread: std::thread::current().id(),
    }
}

/// Runs `jobs` as one batch on `tcp_sim::sweep::run_jobs_stealing`
/// with `threads` workers, folding every job's layers into `into`.
pub fn run_batch(jobs: &[Job], threads: usize, into: &mut Layers) -> Vec<RunResult> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let start = Instant::now();
    let traced = tcp_sim::sweep::run_jobs_stealing(jobs.len(), threads, |i| run_traced(&jobs[i]));
    let end = Instant::now();
    let workers = threads.min(jobs.len());
    // Busy time per worker; a worker that stole nothing was idle.
    let mut busy: Vec<(ThreadId, Duration)> = Vec::new();
    for t in &traced {
        match busy.iter_mut().find(|(id, _)| *id == t.thread) {
            Some((_, b)) => *b += t.layers.busy,
            None => busy.push((t.thread, t.layers.busy)),
        }
    }
    let most = busy.iter().map(|(_, b)| *b).max().unwrap_or_default();
    let least = if busy.len() < workers {
        Duration::ZERO
    } else {
        busy.iter().map(|(_, b)| *b).min().unwrap_or_default()
    };
    let replays: Duration = traced.iter().map(|t| t.replays).sum();
    into.capacity += ((end - start) * workers as u32).saturating_sub(replays);
    into.tail += most - least;
    traced
        .into_iter()
        .map(|t| {
            into.merge(&t.layers);
            t.result
        })
        .collect()
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        self.gen += o.gen;
        self.uops += o.uops;
        self.core += o.core;
        self.sim_cycles += o.sim_cycles;
        self.ipcs.extend_from_slice(&o.ipcs);
        self.cache_build += o.cache_build;
        self.cache_access += o.cache_access;
        self.add_stats(&o.stats);
        self.prefetch_build += o.prefetch_build;
        self.prefetch_self += o.prefetch_self;
        self.table_bytes += o.table_bytes;
        self.on_miss_calls += o.on_miss_calls;
        self.busy += o.busy;
    }
}

/// `true` when two results of the same job agree bit for bit.
pub fn same_result(a: &RunResult, b: &RunResult) -> bool {
    a.benchmark == b.benchmark
        && a.prefetcher == b.prefetcher
        && a.prefetcher_bytes == b.prefetcher_bytes
        && a.ipc.to_bits() == b.ipc.to_bits()
        && a.cycles == b.cycles
        && a.ops == b.ops
        && a.stats == b.stats
}
