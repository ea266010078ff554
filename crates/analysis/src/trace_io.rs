//! Compact binary serialisation of miss traces.
//!
//! Profiling a workload takes minutes; analysing its miss stream is
//! cheap. Persisting the stream lets downstream tools (or repeated
//! analysis runs) skip regeneration. The format is deliberately simple
//! and self-describing:
//!
//! ```text
//! magic "TCPT" | version u8 | record count u64-LE
//! per record: pc u64-LE | addr u64-LE
//! ```
//!
//! Tags, sets, and line addresses are derived from the address at read
//! time for whatever geometry the reader cares about, so one trace file
//! serves any cache shape.

use std::fmt;
use std::io::{self, Read, Write};

use crate::{MissRecord, TraceReader};
use tcp_mem::CacheGeometry;

const MAGIC: &[u8; 4] = b"TCPT";
const VERSION: u8 = 1;

/// Serialized bytes per record: pc u64-LE followed by addr u64-LE.
pub(crate) const RECORD_BYTES: usize = 16;

/// Records preallocated before reading begins. A corrupted header can
/// declare an absurd record count; growth beyond this cap is paid as the
/// records actually arrive, so a lying header cannot trigger a huge
/// allocation up front.
const PREALLOC_CAP: usize = 1 << 16;

/// Why a trace could not be read.
///
/// Every corruption mode a caller can reach — wrong file type, wrong
/// format version, bytes missing relative to the declared record count —
/// has its own variant, so tooling can distinguish "not a trace" from
/// "damaged trace" from "I/O trouble".
#[derive(Debug)]
pub enum TraceError {
    /// The stream does not begin with the `TCPT` magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The stream is a TCP trace but of an unsupported format version.
    UnsupportedVersion {
        /// Version byte in the stream.
        found: u8,
        /// Version this reader supports.
        supported: u8,
    },
    /// The stream ended before the declared record count was read, with
    /// the cut landing exactly on a record boundary: every byte present
    /// decodes to a whole record, some records are simply missing.
    Truncated {
        /// Records the header declared.
        declared: u64,
        /// Full records actually read.
        read: u64,
    },
    /// The stream ended *inside* a record: after `read` whole records a
    /// torn prefix of the next one remains. The torn bytes are never
    /// decoded — no partial record reaches the caller.
    TruncatedMidRecord {
        /// Records the header declared.
        declared: u64,
        /// Full records actually read.
        read: u64,
        /// Bytes of the torn record present in the stream (1..=15).
        partial_bytes: usize,
    },
    /// An I/O error from the underlying reader (including a stream too
    /// short to hold the header).
    Io(io::Error),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic { found } => {
                write!(f, "not a TCP trace file (magic {found:02X?})")
            }
            TraceError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported trace version {found} (this reader supports {supported})"
                )
            }
            TraceError::Truncated { declared, read } => {
                write!(
                    f,
                    "truncated trace: header declares {declared} records, stream holds {read}"
                )
            }
            TraceError::TruncatedMidRecord {
                declared,
                read,
                partial_bytes,
            } => {
                write!(
                    f,
                    "truncated trace: header declares {declared} records, stream holds {read} \
                     plus {partial_bytes} bytes of a torn record"
                )
            }
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::BadMagic { .. }
            | TraceError::UnsupportedVersion { .. }
            | TraceError::Truncated { .. }
            | TraceError::TruncatedMidRecord { .. } => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Writes `records` to `w` in the trace format.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
///
/// # Examples
///
/// ```
/// use tcp_analysis::{read_trace, write_trace, miss_stream};
/// use tcp_mem::{Addr, CacheGeometry, MemAccess};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let l1 = CacheGeometry::new(32 * 1024, 32, 1);
/// let accesses = (0..100u64).map(|i| MemAccess::load(Addr::new(4), Addr::new(i * 64)));
/// let misses: Vec<_> = miss_stream(l1, accesses).collect();
///
/// let mut buf = Vec::new();
/// write_trace(&mut buf, &misses)?;
/// let back = read_trace(&mut buf.as_slice(), l1)?;
/// assert_eq!(back, misses);
/// # Ok(())
/// # }
/// ```
pub fn write_trace<W: Write>(mut w: W, records: &[MissRecord]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&(records.len() as u64).to_le_bytes())?;
    for r in records {
        w.write_all(&r.pc.raw().to_le_bytes())?;
        w.write_all(&r.addr.raw().to_le_bytes())?;
    }
    Ok(())
}

/// Reads and validates the fixed header (magic, version, record count)
/// and returns the declared record count, for [`TraceReader::new`].
pub(crate) fn read_header<R: Read>(r: &mut R) -> Result<u64, TraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceError::BadMagic { found: magic });
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(TraceError::UnsupportedVersion {
            found: version[0],
            supported: VERSION,
        });
    }
    let mut count_bytes = [0u8; 8];
    r.read_exact(&mut count_bytes)?;
    Ok(u64::from_le_bytes(count_bytes))
}

/// Reads until `buf` is full or the stream ends, returning the bytes
/// filled. Unlike `read_exact`, a short fill reports *how many* bytes
/// arrived, which is what lets truncation-at-a-record-boundary and
/// truncation-mid-record surface as distinct errors.
pub(crate) fn fill_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads a trace written by [`write_trace`], re-deriving line/tag/set
/// fields under `geom`: the [`TraceReader`] chunk decoder, with every
/// chunk's records collected into one `Vec`.
///
/// # Errors
///
/// Returns [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`]
/// when the stream is not a readable TCP trace,
/// [`TraceError::Truncated`] when it ends on a record boundary before
/// the declared record count (including a corrupted header declaring
/// more records than the stream holds),
/// [`TraceError::TruncatedMidRecord`] when it ends inside a record (the
/// torn bytes are never decoded into a partial record), and
/// [`TraceError::Io`] for underlying reader failures.
pub fn read_trace<R: Read>(r: R, geom: CacheGeometry) -> Result<Vec<MissRecord>, TraceError> {
    let mut reader = TraceReader::new(r, geom)?;
    let declared = usize::try_from(reader.declared()).unwrap_or(0);
    let mut out = Vec::with_capacity(declared.min(PREALLOC_CAP));
    while let Some(chunk) = reader.next_chunk()? {
        out.extend(chunk.records());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miss_stream;
    use tcp_mem::{Addr, MemAccess};

    fn l1() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 32, 1)
    }

    fn sample(n: u64) -> Vec<MissRecord> {
        let accs =
            (0..n).map(|i| MemAccess::load(Addr::new(0x400 + i), Addr::new(i * 96 % (1 << 22))));
        miss_stream(l1(), accs).collect()
    }

    #[test]
    fn roundtrip_preserves_every_record() {
        let misses = sample(5_000);
        let mut buf = Vec::new();
        write_trace(&mut buf, &misses).unwrap();
        let back = read_trace(&mut buf.as_slice(), l1()).unwrap();
        assert_eq!(back, misses);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &[]).unwrap();
        assert!(read_trace(&mut buf.as_slice(), l1()).unwrap().is_empty());
    }

    #[test]
    fn rereading_under_other_geometry_rederives_fields() {
        let misses = sample(500);
        let mut buf = Vec::new();
        write_trace(&mut buf, &misses).unwrap();
        let l2 = CacheGeometry::new(1024 * 1024, 64, 4);
        let back = read_trace(&mut buf.as_slice(), l2).unwrap();
        for (orig, re) in misses.iter().zip(&back) {
            assert_eq!(orig.addr, re.addr);
            assert_eq!(l2.split(orig.addr), (re.tag, re.set));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&mut b"NOPE\x01\0\0\0\0\0\0\0\0".as_slice(), l1()).unwrap_err();
        assert!(
            matches!(err, TraceError::BadMagic { found } if &found == b"NOPE"),
            "{err}"
        );
        assert!(err.to_string().contains("not a TCP trace"));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"TCPT");
        buf.push(99);
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = read_trace(&mut buf.as_slice(), l1()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::UnsupportedVersion {
                    found: 99,
                    supported: VERSION
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let misses = sample(10);
        let n = misses.len() as u64;
        let mut buf = Vec::new();
        write_trace(&mut buf, &misses).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_trace(&mut buf.as_slice(), l1()).unwrap_err();
        // Losing 5 bytes cuts into the final 16-byte record: 11 torn
        // bytes remain, and the cut is reported as mid-record.
        assert!(
            matches!(
                err,
                TraceError::TruncatedMidRecord { declared, read, partial_bytes }
                    if declared == n && read == n - 1 && partial_bytes == 11
            ),
            "{err}"
        );
    }

    /// Regression: a cut exactly on a record boundary and a cut inside a
    /// record are *distinct* errors, and neither leaks a partial record
    /// (the torn bytes never decode — the error carries them as a count).
    #[test]
    fn boundary_and_mid_record_truncation_are_distinct() {
        let misses = sample(10);
        let n = misses.len() as u64;
        let healthy = {
            let mut buf = Vec::new();
            write_trace(&mut buf, &misses).unwrap();
            buf
        };

        // Cut exactly at the last record's boundary: 16 bytes gone.
        let mut at_boundary = healthy.clone();
        at_boundary.truncate(at_boundary.len() - RECORD_BYTES);
        let err = read_trace(&mut at_boundary.as_slice(), l1()).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated { declared, read } if declared == n && read == n - 1),
            "boundary cut must be Truncated: {err}"
        );

        // Cut one byte deeper: the same record count survives whole, but
        // now 15 torn bytes of the final record remain.
        for torn in 1..RECORD_BYTES {
            let mut mid = healthy.clone();
            mid.truncate(mid.len() - RECORD_BYTES + torn);
            let err = read_trace(&mut mid.as_slice(), l1()).unwrap_err();
            assert!(
                matches!(
                    err,
                    TraceError::TruncatedMidRecord { declared, read, partial_bytes }
                        if declared == n && read == n - 1 && partial_bytes == torn
                ),
                "cut {torn} bytes into a record must be TruncatedMidRecord: {err}"
            );
        }
    }

    #[test]
    fn truncated_header_is_an_io_error() {
        // Stream ends inside the magic / version / count fields.
        for len in 0..13 {
            let misses = sample(3);
            let mut buf = Vec::new();
            write_trace(&mut buf, &misses).unwrap();
            buf.truncate(len);
            let err = read_trace(&mut buf.as_slice(), l1()).unwrap_err();
            assert!(matches!(err, TraceError::Io(_)), "len {len}: {err}");
        }
    }

    #[test]
    fn corrupted_count_far_beyond_payload_fails_fast_without_huge_allocation() {
        // A lying header declaring u64::MAX records must neither allocate
        // for them up front nor loop: the first missing record surfaces as
        // a typed truncation error.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"TCPT");
        buf.push(VERSION);
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        // Two real records' worth of payload.
        buf.extend_from_slice(&[0u8; 32]);
        let err = read_trace(&mut buf.as_slice(), l1()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Truncated {
                    declared: u64::MAX,
                    read: 2
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn count_mildly_larger_than_payload_reports_actual_read() {
        let misses = sample(4);
        let mut buf = Vec::new();
        write_trace(&mut buf, &misses).unwrap();
        // Rewrite the header count to twice the real record count.
        let n = misses.len() as u64;
        buf[5..13].copy_from_slice(&(n * 2).to_le_bytes());
        let err = read_trace(&mut buf.as_slice(), l1()).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated { declared, read } if declared == n * 2 && read == n),
            "{err}"
        );
    }

    #[test]
    fn error_display_and_source_are_usable() {
        let io_err: TraceError = io::Error::new(io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(std::error::Error::source(&io_err).is_some());
        let trunc = TraceError::Truncated {
            declared: 10,
            read: 3,
        };
        assert!(std::error::Error::source(&trunc).is_none());
        assert!(trunc.to_string().contains("10"));
        assert!(trunc.to_string().contains("3"));
        let torn = TraceError::TruncatedMidRecord {
            declared: 10,
            read: 3,
            partial_bytes: 7,
        };
        assert!(std::error::Error::source(&torn).is_none());
        assert!(torn.to_string().contains("7 bytes of a torn record"));
    }
}
