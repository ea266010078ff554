//! Property tests of the out-of-order core's scheduling invariants.
//!
//! Each property runs 24 cases, each generated from one SplitMix64 seed
//! that a failing assertion prints; the seed alone determines the case.
//! `scripts/check-robustness.sh` runs this suite.

use tcp_repro::cache::{HierarchyConfig, MemoryHierarchy, NullPrefetcher};
use tcp_repro::cpu::{CoreConfig, CoreRun, MicroOp, OooCore, OpClass};
use tcp_repro::mem::{Addr, SplitMix64};

const CASES: u64 = 24;

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

/// A random mix of every op class with short dependences, `lo..hi` long.
fn arbitrary_stream(rng: &mut SplitMix64, lo: u64, hi: u64) -> Vec<MicroOp> {
    let len = range(rng, lo, hi);
    (0..len)
        .map(|i| {
            let pc = Addr::new(0x400 + i * 4);
            let addr = Addr::new(rng.next_below(1 << 27) % (1 << 26));
            let dep = rng.next_below(16) as u32;
            let dep_opt = (dep > 0).then_some(dep);
            match rng.next_below(6) {
                0 => MicroOp::int_alu(pc, dep_opt, None),
                1 => MicroOp::fp_alu(pc, dep_opt, None),
                2 => MicroOp::load(pc, addr),
                3 => MicroOp::store(pc, addr),
                4 => MicroOp::branch(pc, dep_opt),
                _ => MicroOp::dependent_load(pc, addr, dep.max(1)),
            }
        })
        .collect()
}

fn hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::new(HierarchyConfig::default(), Box::new(NullPrefetcher))
}

fn run(stream: Vec<MicroOp>, h: &mut MemoryHierarchy) -> CoreRun {
    OooCore::new(CoreConfig::default()).run(stream, h)
}

#[test]
fn ipc_is_physically_bounded() {
    for_each_seed(0x1BC0_0001, |seed| {
        let stream = arbitrary_stream(&mut SplitMix64::new(seed), 50, 400);
        let n = stream.len() as u64;
        let r = run(stream, &mut hierarchy());
        assert_eq!(r.ops, n, "seed {seed:#x}");
        assert!(
            r.ipc() <= 8.0 + 1e-9,
            "seed {seed:#x}: cannot exceed machine width: {}",
            r.ipc()
        );
        assert!(
            r.cycles >= n / 8,
            "seed {seed:#x}: cycles {} below width floor",
            r.cycles
        );
    });
}

#[test]
fn load_store_counts_match_stream() {
    for_each_seed(0x1BC0_0002, |seed| {
        let stream = arbitrary_stream(&mut SplitMix64::new(seed), 20, 200);
        let loads = stream.iter().filter(|o| o.class == OpClass::Load).count() as u64;
        let stores = stream.iter().filter(|o| o.class == OpClass::Store).count() as u64;
        let mut h = hierarchy();
        let r = run(stream, &mut h);
        assert_eq!(r.loads, loads, "seed {seed:#x}");
        assert_eq!(r.stores, stores, "seed {seed:#x}");
        assert_eq!(h.finalize().accesses(), loads + stores, "seed {seed:#x}");
    });
}

#[test]
fn adding_dependences_never_speeds_things_up() {
    // Independent loads vs the same loads chained: the chained run must
    // take at least as many cycles.
    for_each_seed(0x1BC0_0003, |seed| {
        let mut rng = SplitMix64::new(seed);
        let len = range(&mut rng, 50, 250);
        let addrs: Vec<u64> = (0..len).map(|_| rng.next_below(1 << 24)).collect();
        let free = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| MicroOp::load(Addr::new(i as u64 * 4), Addr::new(a)))
            .collect();
        let chained = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| MicroOp::dependent_load(Addr::new(i as u64 * 4), Addr::new(a), 1))
            .collect();
        let r_free = run(free, &mut hierarchy());
        let r_chained = run(chained, &mut hierarchy());
        assert!(
            r_chained.cycles >= r_free.cycles,
            "seed {seed:#x}: chained {} < free {}",
            r_chained.cycles,
            r_free.cycles
        );
    });
}

#[test]
fn warmup_split_measures_only_the_tail() {
    for_each_seed(0x1BC0_0004, |seed| {
        let split = range(&mut SplitMix64::new(seed), 1, 400);
        let n = 500u64;
        let stream: Vec<MicroOp> = (0..n)
            .map(|i| MicroOp::load(Addr::new(i * 4), Addr::new((i * 64) % (1 << 20))))
            .collect();
        let r =
            OooCore::new(CoreConfig::default()).run_with_warmup(stream, split, &mut hierarchy());
        assert_eq!(r.ops, n - split, "seed {seed:#x}");
        assert!(r.cycles > 0, "seed {seed:#x}");
    });
}
