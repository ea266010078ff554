//! Property tests of the full-system runner, including the warm-up rule
//! shared by the batch core loop and the checked single-run loop.
//!
//! Each property runs 8 cases, each generated from one SplitMix64 seed
//! that a failing assertion prints; the seed alone determines the case.
//! `scripts/check-robustness.sh` runs this suite.

use tcp_repro::cache::{MemoryHierarchy, NullPrefetcher};
use tcp_repro::core::{Tcp, TcpConfig};
use tcp_repro::cpu::OooCore;
use tcp_repro::mem::SplitMix64;
use tcp_repro::sim::{
    run_benchmark, run_benchmark_warm, try_run_benchmark_warm, SystemConfig, Watchdog,
};
use tcp_repro::workloads::{suite, Benchmark};

const CASES: u64 = 8;

/// Calls `case` with `CASES` seeds drawn from `base`.
fn for_each_seed(base: u64, mut case: impl FnMut(u64)) {
    let mut seeds = SplitMix64::new(base);
    for _ in 0..CASES {
        case(seeds.next_u64());
    }
}

/// A uniform draw from `lo..hi`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo)
}

/// A uniformly drawn suite benchmark.
fn pick(rng: &mut SplitMix64) -> Benchmark {
    let mut benches = suite();
    let at = rng.next_below(benches.len() as u64) as usize;
    benches.swap_remove(at)
}

#[test]
fn any_benchmark_any_small_length_is_sane() {
    for_each_seed(0x5100_0001, |seed| {
        let mut rng = SplitMix64::new(seed);
        let b = pick(&mut rng);
        let n = range(&mut rng, 5_000, 40_000);
        let r = run_benchmark(&b, n, &SystemConfig::table1(), Box::new(NullPrefetcher));
        assert_eq!(r.ops, n, "seed {seed:#x} ({})", b.name);
        assert!(r.ipc > 0.0 && r.ipc <= 8.0, "seed {seed:#x}: ipc {}", r.ipc);
        assert_eq!(
            r.stats.l1_hits + r.stats.l1_misses + r.stats.l1_mshr_merges,
            r.stats.accesses(),
            "seed {seed:#x} ({})",
            b.name
        );
    });
}

#[test]
fn warmup_length_never_changes_measured_op_count() {
    let crafty = &suite()[3];
    for_each_seed(0x5100_0002, |seed| {
        let mut rng = SplitMix64::new(seed);
        let warm = range(&mut rng, 0, 60_000);
        let n = range(&mut rng, 10_000, 40_000);
        let cfg = SystemConfig::table1();
        let r = run_benchmark_warm(crafty, warm, n, &cfg, Box::new(NullPrefetcher));
        assert_eq!(r.ops, n, "seed {seed:#x}: warm-up {warm}");
    });
}

#[test]
fn tcp_never_corrupts_results_only_timing() {
    // Attaching a prefetcher must not change demand-access counts — only
    // hit/miss composition and cycles.
    for_each_seed(0x5100_0003, |seed| {
        let b = pick(&mut SplitMix64::new(seed));
        let n = 30_000;
        let cfg = SystemConfig::table1();
        let base = run_benchmark(&b, n, &cfg, Box::new(NullPrefetcher));
        let tcp = run_benchmark(&b, n, &cfg, Box::new(Tcp::new(TcpConfig::tcp_8k())));
        let at = format!("seed {seed:#x} ({})", b.name);
        assert_eq!(base.stats.accesses(), tcp.stats.accesses(), "{at}");
        assert_eq!(base.stats.loads, tcp.stats.loads, "{at}");
        assert_eq!(base.stats.stores, tcp.stats.stores, "{at}");
    });
}

#[test]
fn batch_core_loop_equals_the_checked_runner_at_every_warmup_split() {
    // Splits of 0, mid-stream, exactly the measured length, and beyond
    // it, plus an all-warm-up run that never crosses the boundary.
    for_each_seed(0x5100_0004, |seed| {
        let mut rng = SplitMix64::new(seed);
        let b = pick(&mut rng);
        let n = range(&mut rng, 2_000, 12_000);
        let mid = range(&mut rng, 1, n);
        let beyond = n + range(&mut rng, 1, n);
        let cfg = SystemConfig::table1();
        for (warmup, n_ops) in [(0, n), (mid, n), (n, n), (beyond, n), (n, 0)] {
            let at = format!("seed {seed:#x} ({}): warm-up {warmup}, {n_ops} ops", b.name);
            let mut h =
                MemoryHierarchy::new(cfg.hierarchy, Box::new(Tcp::new(TcpConfig::tcp_8k())));
            let core =
                OooCore::new(cfg.core).run_with_warmup(b.generator(warmup + n_ops), warmup, &mut h);
            let stats = h.finalize();
            let checked = try_run_benchmark_warm(
                &b,
                warmup,
                n_ops,
                &cfg,
                Box::new(Tcp::new(TcpConfig::tcp_8k())),
                &Watchdog::default(),
            )
            .unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(core.cycles, checked.cycles, "{at}");
            assert_eq!(core.ops, checked.ops, "{at}");
            assert_eq!(core.ipc().to_bits(), checked.ipc.to_bits(), "{at}");
            assert_eq!(core.loads, checked.stats.loads, "{at}");
            assert_eq!(core.stores, checked.stats.stores, "{at}");
            assert_eq!(stats, checked.stats, "{at}");
        }
    });
}
