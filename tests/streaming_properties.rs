//! Property tests of the streaming trace pipeline: for arbitrary traces
//! — including every chunk-boundary-straddling length — the streaming
//! decode must yield exactly the records the materialized decode yields,
//! and the streaming replay must produce bit-identical statistics to the
//! materialized replay.
//!
//! Each property runs 8 cases, each generated from one SplitMix64 seed
//! that a failing assertion prints; the seed alone determines the case.
//! `scripts/check-robustness.sh` runs this suite.

use tcp_repro::analysis::{read_trace, write_trace, MissRecord, TraceStream, STREAM_CHUNK};
use tcp_repro::cache::NullPrefetcher;
use tcp_repro::mem::{Addr, CacheGeometry, SplitMix64};
use tcp_repro::sim::stream::{replay_records, replay_stream, StreamOpts};
use tcp_repro::sim::SystemConfig;

const CASES: u64 = 8;

/// Calls `case` with `CASES` seeds drawn from `base`.
fn for_each_seed(base: u64, mut case: impl FnMut(u64)) {
    let mut seeds = SplitMix64::new(base);
    for _ in 0..CASES {
        case(seeds.next_u64());
    }
}

/// Encodes `n` deterministic records (mixed by `salt`) under the Table 1
/// L1D geometry.
fn trace_of(n: u64, salt: u64) -> Vec<u8> {
    let geom = SystemConfig::table1().hierarchy.l1d;
    let records: Vec<MissRecord> = (0..n)
        .map(|i| {
            let mixed = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
            let addr = Addr::new(0x0400_0000 + (mixed % (1 << 26)) / 64 * 64);
            let (tag, set) = geom.split(addr);
            MissRecord {
                addr,
                line: geom.line_addr(addr),
                tag,
                set,
                pc: Addr::new(0x400 + (i % 4096) * 4),
            }
        })
        .collect();
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &records).expect("in-memory trace write");
    bytes
}

/// 0, 1, chunk−1, chunk, chunk+1, and a multi-chunk tail of
/// `3 × chunk + extra` records.
fn boundary_lengths(extra: u64) -> [u64; 6] {
    let c = STREAM_CHUNK as u64;
    [0, 1, c - 1, c, c + 1, 3 * c + extra % c]
}

#[test]
fn streaming_decode_is_bit_identical_at_every_boundary() {
    let geom: CacheGeometry = SystemConfig::table1().hierarchy.l1d;
    for_each_seed(0x57E0_0001, |seed| {
        let mut rng = SplitMix64::new(seed);
        let (salt, extra) = (rng.next_u64(), rng.next_below(1024));
        for n in boundary_lengths(extra) {
            let bytes = trace_of(n, salt);
            let materialized = read_trace(bytes.as_slice(), geom).unwrap();
            let streamed: Vec<MissRecord> = TraceStream::new(bytes.as_slice(), geom)
                .unwrap()
                .collect::<Result<_, _>>()
                .unwrap();
            assert_eq!(streamed, materialized, "seed {seed:#x}: length {n}");
        }
    });
}

#[test]
fn streaming_replay_stats_are_bit_identical() {
    let cfg = SystemConfig::table1();
    for_each_seed(0x57E0_0002, |seed| {
        let mut rng = SplitMix64::new(seed);
        let (salt, extra) = (rng.next_u64(), rng.next_below(1024));
        for n in boundary_lengths(extra) {
            let bytes = trace_of(n, salt);
            let records = read_trace(bytes.as_slice(), cfg.hierarchy.l1d).unwrap();
            let materialized = replay_records(&records, &cfg, Box::new(NullPrefetcher));
            let streamed = replay_stream(
                bytes.as_slice(),
                &cfg,
                Box::new(NullPrefetcher),
                StreamOpts::default(),
            )
            .unwrap();
            assert_eq!(streamed.result, materialized, "seed {seed:#x}: length {n}");
            assert!(
                streamed.ring_high_water <= streamed.ring_capacity,
                "seed {seed:#x}: length {n}"
            );
        }
    });
}

#[test]
fn ring_depth_never_changes_results() {
    let cfg = SystemConfig::table1();
    for_each_seed(0x57E0_0003, |seed| {
        let mut rng = SplitMix64::new(seed);
        let salt = rng.next_u64();
        let chunks = 1 + rng.next_below(5) as usize;
        let bytes = trace_of(2 * STREAM_CHUNK as u64 + 17, salt);
        let replay =
            |opts| replay_stream(bytes.as_slice(), &cfg, Box::new(NullPrefetcher), opts).unwrap();
        let reference = replay(StreamOpts::default());
        let varied = replay(StreamOpts {
            ring_chunks: chunks,
            ..StreamOpts::default()
        });
        assert_eq!(
            varied.result, reference.result,
            "seed {seed:#x}: {chunks} chunks"
        );
    });
}
