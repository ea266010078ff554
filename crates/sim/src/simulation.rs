//! Chunked, inspectable simulation: run a benchmark in steps, reading
//! statistics between chunks.
//!
//! [`Simulation`] is the one place a benchmark's generator, core, and
//! hierarchy are put together: the runners in [`crate::runner`] step it
//! in watchdog-interval chunks and finish it.

use crate::SystemConfig;
use tcp_cache::{HierarchyStats, MemoryHierarchy, Prefetcher};
use tcp_cpu::{CoreRun, SteppedCore};
use tcp_workloads::{Benchmark, WorkloadGen};

/// Progress after one [`Simulation::step`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepProgress {
    /// Micro-ops executed so far (total, warm-up included).
    pub ops: u64,
    /// Cycles elapsed so far (the measured window once the warm-up
    /// boundary is crossed).
    pub cycles: u64,
    /// The op stream is exhausted.
    pub done: bool,
}

/// A paused-and-resumable simulation of one benchmark on one machine.
///
/// [`crate::run_benchmark`] runs one to completion; driving it directly
/// lets a tool advance in chunks and watch statistics evolve — e.g. to
/// find when a prefetcher's coverage ramps up, or to animate warm-up
/// behaviour.
///
/// # Examples
///
/// ```
/// use tcp_sim::{Simulation, SystemConfig};
/// use tcp_cache::NullPrefetcher;
/// use tcp_workloads::suite;
///
/// let bench = suite().into_iter().next().unwrap();
/// let mut sim = Simulation::new(&bench, 10_000, &SystemConfig::table1(), Box::new(NullPrefetcher));
/// let p1 = sim.step(4_000);
/// assert_eq!(p1.ops, 4_000);
/// assert!(!p1.done);
/// let p2 = sim.step(100_000); // clamped at the stream end
/// assert!(p2.done);
/// assert_eq!(p2.ops, 10_000);
/// ```
pub struct Simulation {
    // Built hierarchy first and generator last, and dropped in field
    // order, i.e. the reverse. Dropping the hierarchy before the
    // generator's kernel tables instead hit a ~14 MiB higher `tcp-serve`
    // peak RSS in 8 of 20 runs of a 312-job batch, against 2 of 20 with
    // this order (glibc malloc, 2 worker threads).
    gen: WorkloadGen,
    core: SteppedCore,
    hierarchy: MemoryHierarchy,
    total_ops: u64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("ops_executed", &self.core.ops_executed())
            .field("total_ops", &self.total_ops)
            .finish()
    }
}

impl Simulation {
    /// Prepares a simulation of `bench` for `n_ops` micro-ops.
    pub fn new(
        bench: &Benchmark,
        n_ops: u64,
        cfg: &SystemConfig,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        Simulation::warm(bench, 0, n_ops, cfg, prefetcher)
    }

    /// Prepares a simulation of `warmup_ops + n_ops` micro-ops whose first
    /// `warmup_ops` are an unmeasured warm-up
    /// ([`SteppedCore::with_warmup`]).
    pub(crate) fn warm(
        bench: &Benchmark,
        warmup_ops: u64,
        n_ops: u64,
        cfg: &SystemConfig,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        Simulation {
            hierarchy: MemoryHierarchy::new(cfg.hierarchy, prefetcher),
            core: SteppedCore::with_warmup(cfg.core, warmup_ops),
            gen: bench.generator(warmup_ops + n_ops),
            total_ops: warmup_ops + n_ops,
        }
    }

    /// Advances by up to `chunk` micro-ops.
    pub fn step(&mut self, chunk: u64) -> StepProgress {
        let mut advanced = 0;
        while advanced < chunk {
            let Some(op) = self.gen.next() else { break };
            self.core.step(op, &mut self.hierarchy);
            advanced += 1;
        }
        StepProgress {
            ops: self.core.ops_executed(),
            cycles: self.core.cycles(),
            done: advanced < chunk || self.core.ops_executed() >= self.total_ops,
        }
    }

    /// IPC over the measured window so far.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// Live hierarchy statistics (not finalized; "prefetched extra" for
    /// still-resident lines is only accounted at [`Simulation::finish`]).
    pub fn stats(&self) -> &HierarchyStats {
        self.hierarchy.stats()
    }

    /// Core-side progress snapshot.
    pub fn core_run(&self) -> CoreRun {
        self.core.snapshot()
    }

    /// Finishes the run: drains in-flight fills and returns the finalized
    /// hierarchy statistics alongside the core snapshot.
    pub fn finish(mut self) -> (CoreRun, HierarchyStats) {
        let stats = self.hierarchy.finalize();
        (self.core.snapshot(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_cache::NullPrefetcher;
    use tcp_core::{Tcp, TcpConfig};
    use tcp_workloads::suite;

    #[test]
    fn chunked_run_matches_batch_run() {
        let bench = suite().into_iter().find(|b| b.name == "art").unwrap();
        let cfg = SystemConfig::table1();
        let n = 60_000;

        let mut sim = Simulation::new(&bench, n, &cfg, Box::new(Tcp::new(TcpConfig::tcp_8k())));
        let mut done = false;
        while !done {
            done = sim.step(7_000).done;
        }
        let (run, stats) = sim.finish();

        // The runner (watchdog-sized chunks) with zero warm-up over the
        // same stream.
        let batch =
            crate::run_benchmark_warm(&bench, 0, n, &cfg, Box::new(Tcp::new(TcpConfig::tcp_8k())));
        assert_eq!(run.ops, batch.ops);
        assert_eq!(run.cycles, batch.cycles);
        assert_eq!(stats, batch.stats);
    }

    #[test]
    fn progress_is_monotonic_and_clamped() {
        let bench = suite().into_iter().next().unwrap();
        let mut sim = Simulation::new(
            &bench,
            5_000,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        let p1 = sim.step(2_000);
        let p2 = sim.step(2_000);
        let p3 = sim.step(9_999);
        assert!(p1.ops < p2.ops && p2.ops < p3.ops);
        assert!(p1.cycles <= p2.cycles && p2.cycles <= p3.cycles);
        assert!(p3.done);
        assert_eq!(p3.ops, 5_000);
        assert!(sim.ipc() > 0.0);
    }

    #[test]
    fn mid_run_stats_are_visible() {
        let bench = suite().into_iter().find(|b| b.name == "gzip").unwrap();
        let mut sim = Simulation::new(
            &bench,
            30_000,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        sim.step(30_000);
        assert!(sim.stats().l1_misses > 0);
        assert!(sim.core_run().loads > 0);
    }

    #[test]
    fn unused_simulation_reports_zero() {
        let bench = suite().into_iter().next().unwrap();
        let sim = Simulation::new(
            &bench,
            100,
            &SystemConfig::table1(),
            Box::new(NullPrefetcher),
        );
        assert_eq!(sim.ipc(), 0.0);
    }
}
