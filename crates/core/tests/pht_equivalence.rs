//! Equivalence suite for the row-materialising `PatternHistoryTable`
//! against a dense reference table.
//!
//! The reference below is the dense layout the PHT used before rows were
//! materialised on first train: every plane sized `sets × assoc` up
//! front. Both tables are driven by the same SplitMix64-generated
//! train / lookup / `lookup_targets` sequence, and every prediction,
//! the `(trains, lookups, hits)` counters and the occupancy bits must
//! agree. Each configuration runs `CASES` cases, each generated from one
//! seed that a failing assertion prints; the seed alone determines the
//! case. `scripts/check-robustness.sh` runs this suite.

use tcp_cache::kernels;
use tcp_core::{truncated_sum, PatternHistoryTable, PhtConfig};
use tcp_mem::{SetIndex, SplitMix64, Tag};

const CASES: u64 = 6;

/// Operations per case.
const OPS: usize = 3_000;

/// The dense PHT: all five planes allocated for the configured
/// `sets × assoc` table at construction.
struct DensePht {
    cfg: PhtConfig,
    tags: Vec<u64>,
    valid: Vec<u64>,
    last_use: Vec<u64>,
    n_targets: Vec<u32>,
    targets: Vec<Tag>,
    order: u64,
    trains: u64,
    lookups: u64,
    hits: u64,
}

impl DensePht {
    fn new(cfg: PhtConfig) -> Self {
        let ways = cfg.sets as usize * cfg.assoc as usize;
        DensePht {
            cfg,
            tags: vec![0; ways],
            valid: vec![0; cfg.sets as usize],
            last_use: vec![0; ways],
            n_targets: vec![0; ways],
            targets: vec![Tag::default(); ways * cfg.targets as usize],
            order: 0,
            trains: 0,
            lookups: 0,
            hits: 0,
        }
    }

    fn counters(&self) -> (u64, u64, u64) {
        (self.trains, self.lookups, self.hits)
    }

    fn index(&self, seq: &[Tag], miss_index: SetIndex) -> usize {
        let n = self.cfg.miss_index_bits;
        let total = self.cfg.sets.trailing_zeros();
        let m = total.saturating_sub(n).max(1);
        let high = truncated_sum(seq, m);
        let low = if n == 0 {
            0
        } else {
            u64::from(miss_index.raw()) & ((1 << n) - 1)
        };
        (((high << n) | low) & u64::from(self.cfg.sets - 1)) as usize
    }

    fn entry_tag(&self, seq: &[Tag]) -> Tag {
        seq.last()
            .copied()
            .unwrap_or_default()
            .truncate(self.cfg.tag_bits)
    }

    fn train(&mut self, seq: &[Tag], next: Tag, miss_index: SetIndex) {
        self.trains += 1;
        self.order += 1;
        let set = self.index(seq, miss_index);
        let etag = self.entry_tag(seq);
        let next = next.truncate(self.cfg.tag_bits);
        let assoc = self.cfg.assoc as usize;
        let base = set * assoc;
        let max_targets = self.cfg.targets as usize;
        let vm = self.valid[set];
        if let Some(w) = kernels::find_tag(&self.tags[base..base + assoc], vm, etag.raw()) {
            let way = base + w;
            let row = &mut self.targets[way * max_targets..(way + 1) * max_targets];
            let n = self.n_targets[way] as usize;
            if let Some(pos) = row[..n].iter().position(|&t| t == next) {
                row[..=pos].rotate_right(1);
            } else {
                let keep = n.min(max_targets - 1);
                row[..=keep].rotate_right(1);
                row[0] = next;
                self.n_targets[way] = (keep + 1) as u32;
            }
            self.last_use[way] = self.order;
            return;
        }
        let full = if assoc == 64 {
            u64::MAX
        } else {
            (1 << assoc) - 1
        };
        let w = if vm != full {
            (!vm).trailing_zeros() as usize
        } else {
            kernels::min_index(&self.last_use[base..base + assoc])
        };
        let way = base + w;
        self.tags[way] = etag.raw();
        self.valid[set] = vm | 1 << w;
        self.last_use[way] = self.order;
        self.n_targets[way] = 1;
        self.targets[way * max_targets] = next;
    }

    fn lookup(&mut self, seq: &[Tag], miss_index: SetIndex) -> Option<Tag> {
        let way = self.find_and_touch(seq, miss_index)?;
        Some(self.targets[way * self.cfg.targets as usize])
    }

    fn lookup_targets(&mut self, seq: &[Tag], miss_index: SetIndex, out: &mut Vec<Tag>) {
        if let Some(way) = self.find_and_touch(seq, miss_index) {
            let n = self.n_targets[way] as usize;
            let start = way * self.cfg.targets as usize;
            out.extend_from_slice(&self.targets[start..start + n]);
        }
    }

    fn find_and_touch(&mut self, seq: &[Tag], miss_index: SetIndex) -> Option<usize> {
        self.lookups += 1;
        self.order += 1;
        let set = self.index(seq, miss_index);
        let etag = self.entry_tag(seq);
        let assoc = self.cfg.assoc as usize;
        let base = set * assoc;
        let w = kernels::find_tag(&self.tags[base..base + assoc], self.valid[set], etag.raw())?;
        let way = base + w;
        self.last_use[way] = self.order;
        self.hits += 1;
        Some(way)
    }

    fn occupancy(&self) -> f64 {
        let used: u32 = self.valid.iter().map(|m| m.count_ones()).sum();
        used as f64 / self.tags.len() as f64
    }
}

/// Calls `case` with `CASES` seeds drawn from `base`.
fn for_each_seed(base: u64, mut case: impl FnMut(u64)) {
    let mut seeds = SplitMix64::new(base);
    for _ in 0..CASES {
        case(seeds.next_u64());
    }
}

/// A tag from a small alphabet, so sequences recur and hit, with bit 16
/// set at random so 16-bit truncation aliases distinct tags.
fn draw_tag(rng: &mut SplitMix64, alphabet: u64) -> Tag {
    Tag::new(rng.next_below(alphabet) | rng.next_below(2) << 16)
}

/// Drives a fresh sparse table and a fresh dense reference with the same
/// seeded operation stream and asserts they agree after every operation.
fn check_equivalent(cfg: PhtConfig, base: u64) {
    let mut hits = 0;
    for_each_seed(base, |seed| {
        let mut rng = SplitMix64::new(seed);
        // Narrow alphabets and few L1 sets force hits, refreshes and
        // evictions; wide ones spread training over many PHT sets.
        let alphabet = [4, 32, 1 << 10][rng.next_below(3) as usize];
        let l1_sets = [1, 16, 1024][rng.next_below(3) as usize];
        let mut sparse = PatternHistoryTable::new(cfg);
        let mut dense = DensePht::new(cfg);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for op in 0..OPS {
            let len = 1 + rng.next_below(3) as usize;
            let seq: Vec<Tag> = (0..len).map(|_| draw_tag(&mut rng, alphabet)).collect();
            let set = SetIndex::new(rng.next_below(l1_sets) as u32);
            match rng.next_below(3) {
                0 => {
                    let next = draw_tag(&mut rng, alphabet);
                    sparse.train(&seq, next, set);
                    dense.train(&seq, next, set);
                }
                1 => assert_eq!(
                    sparse.lookup(&seq, set),
                    dense.lookup(&seq, set),
                    "seed {seed:#x} op {op}: lookup {seq:?} at {set:?}"
                ),
                _ => {
                    got.clear();
                    want.clear();
                    sparse.lookup_targets(&seq, set, &mut got);
                    dense.lookup_targets(&seq, set, &mut want);
                    assert_eq!(got, want, "seed {seed:#x} op {op}: targets {seq:?}");
                }
            }
            assert_eq!(
                sparse.counters(),
                dense.counters(),
                "seed {seed:#x} op {op}"
            );
        }
        assert_eq!(
            sparse.occupancy().to_bits(),
            dense.occupancy().to_bits(),
            "seed {seed:#x}: occupancy {} vs {}",
            sparse.occupancy(),
            dense.occupancy()
        );
        assert!(
            sparse.rows() <= cfg.sets as usize,
            "seed {seed:#x}: {} rows for {} sets",
            sparse.rows(),
            cfg.sets
        );
        hits += sparse.counters().2;
    });
    // The stream must exercise matching entries, not only misses.
    assert!(hits > 0, "no lookup hit in {CASES} cases from {base:#x}");
}

#[test]
fn pht_8k_matches_dense_reference() {
    check_equivalent(PhtConfig::pht_8k(), 0x9417_0001);
}

#[test]
fn pht_8m_matches_dense_reference() {
    check_equivalent(PhtConfig::pht_8m(), 0x9417_0002);
}

#[test]
fn fig13_32k_table_matches_dense_reference() {
    check_equivalent(PhtConfig::with_bytes(32 * 1024, 4), 0x9417_0003);
}

#[test]
fn one_set_two_way_table_matches_dense_reference() {
    let cfg = PhtConfig {
        sets: 1,
        assoc: 2,
        miss_index_bits: 0,
        tag_bits: 16,
        targets: 1,
    };
    check_equivalent(cfg, 0x9417_0004);
}

#[test]
fn sixty_four_way_table_matches_dense_reference() {
    let cfg = PhtConfig {
        sets: 4,
        assoc: 64,
        miss_index_bits: 1,
        tag_bits: 16,
        targets: 1,
    };
    check_equivalent(cfg, 0x9417_0005);
}

#[test]
fn four_target_table_matches_dense_reference() {
    let cfg = PhtConfig {
        targets: 4,
        ..PhtConfig::pht_8k()
    };
    check_equivalent(cfg, 0x9417_0006);
}
