//! Chunked, bounded-memory streaming decode of persisted miss traces.
//!
//! This is the one trace decoder. Its peak memory is O([`STREAM_CHUNK`])
//! no matter how long the trace is, and everything else is built on it:
//!
//! * [`TraceReader`] — validates the header once, then decodes up to
//!   [`STREAM_CHUNK`] records per [`TraceReader::next_chunk`] call into a
//!   reused struct-of-arrays [`TraceChunk`] (zero per-record allocation);
//! * [`TraceChunk`] — the SoA buffer: parallel `pc` / `addr` / `line` /
//!   `tag` / `set` columns, with record-view accessors;
//! * [`TraceStream`] — an iterator adapter over the reader yielding
//!   `Result<MissRecord, TraceError>` one record at a time;
//! * [`read_trace`](crate::read_trace) — collects every chunk's records
//!   into one `Vec<MissRecord>` (O(trace) memory, for callers that want
//!   the whole trace at once).
//!
//! The byte decode walks fixed-width blocks of [`BLOCK`] records whose
//! trip counts are compile-time constants — the same shape as the
//! `tcp_cache::kernels` probe kernels — so the u64 field extraction
//! unrolls flat instead of running one `read_exact` syscall-shaped call
//! per record.
//!
//! Truncation discipline: a stream cut on a record boundary surfaces as
//! [`TraceError::Truncated`], a cut inside a record as
//! [`TraceError::TruncatedMidRecord`], and in both cases every *whole*
//! record before the cut is still delivered first — torn bytes never
//! decode into a partial record.

use std::io::Read;

use crate::trace_io::{fill_up_to, read_header, TraceError, RECORD_BYTES};
use crate::MissRecord;
use tcp_mem::{Addr, CacheGeometry, LineAddr, SetIndex, Tag};

/// Records decoded per [`TraceReader::next_chunk`] call — the unit the
/// bounded rings in `tcp-sim` are sized in.
pub const STREAM_CHUNK: usize = 1024;

/// Records per fixed-width decode block inside a chunk. Matches the
/// `tcp_cache::kernels::CHUNK` width: small enough to unroll flat,
/// wide enough to amortize loop control.
const BLOCK: usize = 8;

/// Little-endian u64 from the first eight bytes of `bytes`.
///
/// Callers pass literal-range slices of a `[u8; RECORD_BYTES]` record,
/// so the length is statically right; `copy_from_slice` enforces it.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// One decoded chunk of a trace, stored struct-of-arrays: the five
/// [`MissRecord`] fields live in parallel columns so consumers that only
/// need tags (censuses) or only addresses (replay) touch dense arrays.
///
/// The columns are allocated once at [`STREAM_CHUNK`] capacity and
/// reused for every chunk of the trace.
#[derive(Debug)]
pub struct TraceChunk {
    pcs: Vec<Addr>,
    addrs: Vec<Addr>,
    lines: Vec<LineAddr>,
    tags: Vec<Tag>,
    sets: Vec<SetIndex>,
}

impl TraceChunk {
    fn with_capacity(cap: usize) -> Self {
        TraceChunk {
            pcs: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
            lines: Vec::with_capacity(cap),
            tags: Vec::with_capacity(cap),
            sets: Vec::with_capacity(cap),
        }
    }

    /// Records held by this chunk (final chunks may be short).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Program-counter column.
    pub fn pcs(&self) -> &[Addr] {
        &self.pcs
    }

    /// Miss-address column.
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    /// Line-address column.
    pub fn lines(&self) -> &[LineAddr] {
        &self.lines
    }

    /// Tag column (derived under the reader's geometry).
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Set-index column (derived under the reader's geometry).
    pub fn sets(&self) -> &[SetIndex] {
        &self.sets
    }

    /// The `i`-th record, assembled from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> MissRecord {
        MissRecord {
            addr: self.addrs[i],
            line: self.lines[i],
            tag: self.tags[i],
            set: self.sets[i],
            pc: self.pcs[i],
        }
    }

    /// Iterates the chunk's records in trace order.
    pub fn records(&self) -> impl Iterator<Item = MissRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Decodes `bytes` (a whole number of records) into the columns,
    /// replacing any previous contents. The hot path is
    /// column-at-a-time, `tcp_cache::kernels` style: each column fills
    /// in its own dense pass (raw u64 extraction first, then the
    /// shift/mask derivations over the finished `addrs` column), with
    /// [`BLOCK`]-record groups whose trip counts are compile-time
    /// constants. Exact-size slice iterators feed `Vec::extend`, so
    /// there is no per-record capacity check and no per-record
    /// allocation anywhere.
    fn decode(&mut self, bytes: &[u8], geom: CacheGeometry) {
        debug_assert_eq!(bytes.len() % RECORD_BYTES, 0);
        self.pcs.clear();
        self.addrs.clear();
        self.lines.clear();
        self.tags.clear();
        self.sets.clear();
        let (recs, rest) = bytes.as_chunks::<RECORD_BYTES>();
        debug_assert!(rest.is_empty());
        let (blocks, tail) = recs.as_chunks::<BLOCK>();
        // Field-extraction passes: fixed-width blocks unroll flat.
        for block in blocks {
            let mut lane = 0;
            while lane < BLOCK {
                self.pcs.push(Addr::new(le_word(&block[lane][..8])));
                lane += 1;
            }
            let mut lane = 0;
            while lane < BLOCK {
                self.addrs.push(Addr::new(le_word(&block[lane][8..])));
                lane += 1;
            }
        }
        for rec in tail {
            self.pcs.push(Addr::new(le_word(&rec[..8])));
        }
        for rec in tail {
            self.addrs.push(Addr::new(le_word(&rec[8..])));
        }
        // Derivation passes: pure shift/mask maps over the dense addr
        // column, each an exact-size iterator the extend specialization
        // turns into a straight-line fill.
        self.lines
            .extend(self.addrs.iter().map(|a| geom.line_addr(*a)));
        self.tags
            .extend(self.addrs.iter().map(|a| geom.split(*a).0));
        self.sets
            .extend(self.addrs.iter().map(|a| geom.split(*a).1));
    }
}

/// Chunked reader over a serialized trace, decoding [`STREAM_CHUNK`]
/// records at a time into a reused [`TraceChunk`].
/// [`read_trace`](crate::read_trace) and [`TraceStream`] are built on it.
///
/// # Examples
///
/// ```
/// use tcp_analysis::{miss_stream, write_trace, TraceReader};
/// use tcp_mem::{Addr, CacheGeometry, MemAccess};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let l1 = CacheGeometry::new(32 * 1024, 32, 1);
/// let accesses = (0..5000u64).map(|i| MemAccess::load(Addr::new(4), Addr::new(i * 64)));
/// let misses: Vec<_> = miss_stream(l1, accesses).collect();
/// let mut bytes = Vec::new();
/// write_trace(&mut bytes, &misses)?;
///
/// let mut reader = TraceReader::new(bytes.as_slice(), l1)?;
/// let mut total = 0;
/// while let Some(chunk) = reader.next_chunk()? {
///     total += chunk.len();
/// }
/// assert_eq!(total, misses.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceReader<R> {
    inner: R,
    geom: CacheGeometry,
    declared: u64,
    decoded: u64,
    /// Byte staging buffer, `RECORD_BYTES × STREAM_CHUNK`, reused.
    buf: Vec<u8>,
    chunk: TraceChunk,
    /// A truncation noticed while a partially-filled chunk still held
    /// undelivered whole records: surfaced on the *next* call so the
    /// prefix is never lost.
    pending: Option<TraceError>,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Validates the trace header and prepares the chunk buffers.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMagic`] /
    /// [`TraceError::UnsupportedVersion`] when the stream is not a
    /// readable TCP trace, and [`TraceError::Io`] when it is too short to
    /// hold the header or the reader fails.
    pub fn new(mut inner: R, geom: CacheGeometry) -> Result<Self, TraceError> {
        let declared = read_header(&mut inner)?;
        Ok(TraceReader {
            inner,
            geom,
            declared,
            decoded: 0,
            buf: vec![0u8; RECORD_BYTES * STREAM_CHUNK],
            chunk: TraceChunk::with_capacity(STREAM_CHUNK),
            pending: None,
            done: false,
        })
    }

    /// Record count the header declared.
    pub fn declared(&self) -> u64 {
        self.declared
    }

    /// Whole records decoded so far.
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Geometry under which tag/set/line columns are derived.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The most recently decoded chunk (empty before the first
    /// [`TraceReader::next_chunk`] call).
    pub fn chunk(&self) -> &TraceChunk {
        &self.chunk
    }

    /// Decodes the next chunk of up to [`STREAM_CHUNK`] records.
    ///
    /// Returns `Ok(Some(chunk))` while records remain, `Ok(None)` once
    /// the declared count has been delivered, and fuses after the end or
    /// an error. When the stream is truncated, every whole record before
    /// the cut is delivered in (possibly short) chunks *first*; the
    /// truncation error surfaces on the following call.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] / [`TraceError::TruncatedMidRecord`]
    /// when the stream ends before the declared record count (on or off
    /// a record boundary), [`TraceError::Io`] for reader failures.
    pub fn next_chunk(&mut self) -> Result<Option<&TraceChunk>, TraceError> {
        if self.done {
            return Ok(None);
        }
        if let Some(e) = self.pending.take() {
            self.done = true;
            return Err(e);
        }
        let want = (self.declared - self.decoded).min(STREAM_CHUNK as u64) as usize;
        if want == 0 {
            self.done = true;
            return Ok(None);
        }
        let target = want * RECORD_BYTES;
        let filled = match fill_up_to(&mut self.inner, &mut self.buf[..target]) {
            Ok(n) => n,
            Err(e) => {
                self.done = true;
                return Err(TraceError::Io(e));
            }
        };
        let full = filled / RECORD_BYTES;
        let extra = filled % RECORD_BYTES;
        self.chunk
            .decode(&self.buf[..full * RECORD_BYTES], self.geom);
        self.decoded += full as u64;
        if filled < target {
            let err = if extra == 0 {
                TraceError::Truncated {
                    declared: self.declared,
                    read: self.decoded,
                }
            } else {
                TraceError::TruncatedMidRecord {
                    declared: self.declared,
                    read: self.decoded,
                    partial_bytes: extra,
                }
            };
            if full == 0 {
                self.done = true;
                return Err(err);
            }
            self.pending = Some(err);
        }
        Ok(Some(&self.chunk))
    }

    /// Wraps the reader into a per-record iterator.
    pub fn into_stream(self) -> TraceStream<R> {
        TraceStream {
            reader: self,
            pos: 0,
            finished: false,
        }
    }
}

/// Per-record iterator over a streamed trace: yields
/// `Ok(record)` for every whole record, then at most one `Err` if the
/// stream was corrupt, then fuses.
///
/// # Examples
///
/// ```
/// use tcp_analysis::{miss_stream, write_trace, TraceStream};
/// use tcp_mem::{Addr, CacheGeometry, MemAccess};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let l1 = CacheGeometry::new(32 * 1024, 32, 1);
/// let accesses = (0..100u64).map(|i| MemAccess::load(Addr::new(4), Addr::new(i * 64)));
/// let misses: Vec<_> = miss_stream(l1, accesses).collect();
/// let mut bytes = Vec::new();
/// write_trace(&mut bytes, &misses)?;
///
/// let streamed: Result<Vec<_>, _> = TraceStream::new(bytes.as_slice(), l1)?.collect();
/// assert_eq!(streamed?, misses);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceStream<R> {
    reader: TraceReader<R>,
    pos: usize,
    finished: bool,
}

impl<R: Read> TraceStream<R> {
    /// Validates the header and prepares a per-record stream.
    ///
    /// # Errors
    ///
    /// Header errors, exactly as [`TraceReader::new`].
    pub fn new(inner: R, geom: CacheGeometry) -> Result<Self, TraceError> {
        Ok(TraceReader::new(inner, geom)?.into_stream())
    }

    /// Record count the header declared.
    pub fn declared(&self) -> u64 {
        self.reader.declared()
    }
}

impl<R: Read> Iterator for TraceStream<R> {
    type Item = Result<MissRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        loop {
            if self.pos < self.reader.chunk().len() {
                let rec = self.reader.chunk().get(self.pos);
                self.pos += 1;
                return Some(Ok(rec));
            }
            match self.reader.next_chunk() {
                Ok(Some(_)) => self.pos = 0,
                Ok(None) => {
                    self.finished = true;
                    return None;
                }
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{miss_stream, read_trace, write_trace};
    use tcp_mem::MemAccess;

    fn l1() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 32, 1)
    }

    fn sample(n: u64) -> Vec<MissRecord> {
        let accs =
            (0..n).map(|i| MemAccess::load(Addr::new(0x400 + i), Addr::new(i * 96 % (1 << 22))));
        miss_stream(l1(), accs).collect()
    }

    fn encode(records: &[MissRecord]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&mut buf, records).unwrap();
        buf
    }

    /// Streaming and materialized decode agree record-for-record at
    /// every chunk-boundary-straddling length.
    #[test]
    fn stream_matches_materialized_at_chunk_boundaries() {
        for n in [
            0,
            1,
            BLOCK as u64 - 1,
            BLOCK as u64,
            BLOCK as u64 + 1,
            STREAM_CHUNK as u64 - 1,
            STREAM_CHUNK as u64,
            STREAM_CHUNK as u64 + 1,
            3 * STREAM_CHUNK as u64 + 5,
        ] {
            // sample() depends on the miss stream, so pad the access
            // count to guarantee at least n misses, then trim.
            let mut records = sample(n * 4 + 8);
            records.truncate(n as usize);
            let bytes = encode(&records);
            let materialized = read_trace(bytes.as_slice(), l1()).unwrap();
            let streamed: Vec<MissRecord> = TraceStream::new(bytes.as_slice(), l1())
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(streamed, materialized, "length {n}");
        }
    }

    #[test]
    fn chunks_are_bounded_and_columns_agree() {
        let records = sample(2 * STREAM_CHUNK as u64 + 37);
        let bytes = encode(&records);
        let mut reader = TraceReader::new(bytes.as_slice(), l1()).unwrap();
        assert_eq!(reader.declared(), records.len() as u64);
        let mut seen = 0usize;
        while let Some(chunk) = reader.next_chunk().unwrap() {
            assert!(chunk.len() <= STREAM_CHUNK);
            assert!(!chunk.is_empty());
            for (i, rec) in chunk.records().enumerate() {
                let at = seen + i;
                assert_eq!(rec, records[at]);
                assert_eq!(chunk.tags()[i], records[at].tag);
                assert_eq!(chunk.sets()[i], records[at].set);
                assert_eq!(chunk.lines()[i], records[at].line);
                assert_eq!(chunk.pcs()[i], records[at].pc);
                assert_eq!(chunk.addrs()[i], records[at].addr);
            }
            seen += chunk.len();
        }
        assert_eq!(seen, records.len());
        assert_eq!(reader.decoded(), records.len() as u64);
        // The reader fuses: further calls keep returning None.
        assert!(reader.next_chunk().unwrap().is_none());
    }

    /// Whole records before a mid-record cut are all delivered; the torn
    /// tail surfaces as `TruncatedMidRecord` afterwards, and no partial
    /// record is ever produced.
    #[test]
    fn mid_record_cut_delivers_prefix_then_errors() {
        let records = sample(STREAM_CHUNK as u64 + 10);
        let n = records.len();
        let mut bytes = encode(&records);
        bytes.truncate(bytes.len() - RECORD_BYTES - 7); // tear the 2nd-to-last record
        let mut stream = TraceStream::new(bytes.as_slice(), l1()).unwrap();
        let mut delivered = Vec::new();
        let mut error = None;
        for item in &mut stream {
            match item {
                Ok(rec) => delivered.push(rec),
                Err(e) => error = Some(e),
            }
        }
        assert_eq!(delivered.len(), n - 2);
        assert_eq!(delivered, records[..n - 2]);
        match error.expect("truncation must surface") {
            TraceError::TruncatedMidRecord {
                declared,
                read,
                partial_bytes,
            } => {
                assert_eq!(declared, n as u64);
                assert_eq!(read, n as u64 - 2);
                assert_eq!(partial_bytes, RECORD_BYTES - 7);
            }
            other => panic!("expected TruncatedMidRecord, got {other}"),
        }
        // The stream fuses after the error.
        assert!(stream.next().is_none());
    }

    #[test]
    fn boundary_cut_is_plain_truncated() {
        let records = sample(20);
        let n = records.len() as u64;
        let mut bytes = encode(&records);
        bytes.truncate(bytes.len() - 2 * RECORD_BYTES);
        let items: Vec<_> = TraceStream::new(bytes.as_slice(), l1()).unwrap().collect();
        assert_eq!(items.len() as u64, n - 1, "prefix records plus one error");
        assert!(matches!(
            items.last(),
            Some(Err(TraceError::Truncated { declared, read }))
                if *declared == n && *read == n - 2
        ));
    }

    #[test]
    fn header_errors_surface_at_construction() {
        let err = TraceReader::new(b"NOPE\x01\0\0\0\0\0\0\0\0".as_slice(), l1()).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }), "{err}");
        let err = TraceStream::new(b"TC".as_slice(), l1()).unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
    }

    #[test]
    fn rederives_fields_under_the_readers_geometry() {
        let records = sample(300);
        let bytes = encode(&records);
        let l2 = CacheGeometry::new(1024 * 1024, 64, 4);
        let streamed: Vec<MissRecord> = TraceStream::new(bytes.as_slice(), l2)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        for (orig, re) in records.iter().zip(&streamed) {
            assert_eq!(orig.addr, re.addr);
            assert_eq!(l2.split(orig.addr), (re.tag, re.set));
            assert_eq!(l2.line_addr(orig.addr), re.line);
        }
    }
}
