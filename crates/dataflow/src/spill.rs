//! On-disk spill format for out-of-core wide operators.
//!
//! When a shuffle's buffered partitions exceed the [`crate::MemBudget`],
//! record batches are serialized to a compact length-prefixed format under
//! the run-scoped spill directory and merge-streamed back on the consuming
//! side. The format is deliberately minimal (no serde in the offline
//! container): fixed little-endian primitives, length-prefixed strings and
//! sequences, and a batch frame of
//!
//! ```text
//! [u64 LE payload byte length][u32 LE record count][payload]
//! ```
//!
//! Decoding a batch and re-encoding it reproduces the bytes exactly
//! (pinned by proptests), which is what makes spilled shuffles
//! byte-identical to in-RAM ones.

use crate::budget::{MemBudget, SpillDir};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Records per spill batch: bounds the encode/decode buffer regardless of
/// partition size.
pub(crate) const SPILL_BATCH_RECORDS: usize = 1 << 16;

/// Fixed-layout binary encoding for records that may be spilled to disk.
///
/// `encoded_len` must return exactly the number of bytes `encode` appends
/// — operators use it to account buffered bytes against the budget without
/// actually encoding.
pub trait SpillCodec: Sized {
    /// Exact number of bytes [`SpillCodec::encode`] will append.
    fn encoded_len(&self) -> usize;
    /// Append this record's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one record from the front of `input`, advancing it. Returns
    /// `None` on truncated input.
    fn decode(input: &mut &[u8]) -> Option<Self>;
}

macro_rules! impl_spill_codec_int {
    ($($ty:ty),*) => {$(
        impl SpillCodec for $ty {
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$ty>()
            }
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                const N: usize = std::mem::size_of::<$ty>();
                let (head, rest) = input.split_first_chunk::<N>()?;
                *input = rest;
                Some(<$ty>::from_le_bytes(*head))
            }
        }
    )*};
}

impl_spill_codec_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl SpillCodec for usize {
    fn encoded_len(&self) -> usize {
        8
    }
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(|v| v as usize)
    }
}

impl SpillCodec for bool {
    fn encoded_len(&self) -> usize {
        1
    }
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u8::decode(input).map(|v| v != 0)
    }
}

impl SpillCodec for f32 {
    fn encoded_len(&self) -> usize {
        4
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u32::decode(input).map(f32::from_bits)
    }
}

impl SpillCodec for f64 {
    fn encoded_len(&self) -> usize {
        8
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        u64::decode(input).map(f64::from_bits)
    }
}

impl SpillCodec for String {
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        if input.len() < len {
            return None;
        }
        let (head, rest) = input.split_at(len);
        let s = std::str::from_utf8(head).ok()?.to_owned();
        *input = rest;
        Some(s)
    }
}

impl<T: SpillCodec> SpillCodec for Vec<T> {
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(SpillCodec::encoded_len).sum::<usize>()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let mut items = Vec::with_capacity(len.min(SPILL_BATCH_RECORDS));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Some(items)
    }
}

impl<T: SpillCodec> SpillCodec for Option<T> {
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, SpillCodec::encoded_len)
    }
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => T::decode(input).map(Some),
            _ => None,
        }
    }
}

impl<A: SpillCodec, B: SpillCodec> SpillCodec for (A, B) {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: SpillCodec, B: SpillCodec, C: SpillCodec> SpillCodec for (A, B, C) {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<A: SpillCodec, B: SpillCodec, C: SpillCodec, D: SpillCodec> SpillCodec for (A, B, C, D) {
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len() + self.3.encoded_len()
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
        self.3.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((
            A::decode(input)?,
            B::decode(input)?,
            C::decode(input)?,
            D::decode(input)?,
        ))
    }
}

/// Write one `[len][count][payload]` batch frame; returns bytes written.
/// `scratch` is reused across calls to avoid re-allocating the payload
/// buffer.
fn write_batch<T: SpillCodec, W: Write>(
    out: &mut W,
    records: &[T],
    scratch: &mut Vec<u8>,
) -> io::Result<u64> {
    scratch.clear();
    for record in records {
        record.encode(scratch);
    }
    out.write_all(&(scratch.len() as u64).to_le_bytes())?;
    out.write_all(&(records.len() as u32).to_le_bytes())?;
    out.write_all(scratch)?;
    Ok(12 + scratch.len() as u64)
}

/// Read one batch frame into `records`; returns `false` at clean EOF.
fn read_batch<T: SpillCodec, R: Read>(input: &mut R, records: &mut Vec<T>) -> io::Result<bool> {
    let mut header = [0u8; 8];
    match input.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let payload_len = u64::from_le_bytes(header) as usize;
    let mut count_bytes = [0u8; 4];
    input.read_exact(&mut count_bytes)?;
    let count = u32::from_le_bytes(count_bytes) as usize;
    let mut payload = vec![0u8; payload_len];
    input.read_exact(&mut payload)?;
    let mut cursor: &[u8] = &payload;
    records.clear();
    records.reserve(count);
    for _ in 0..count {
        let record = T::decode(&mut cursor)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt spill batch"))?;
        records.push(record);
    }
    if !cursor.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing bytes in spill batch",
        ));
    }
    Ok(true)
}

/// Byte span of one bucket inside a spill file.
#[derive(Debug, Clone, Copy)]
struct BucketSpan {
    offset: u64,
    len: u64,
}

/// One map-side input partition's shuffle buckets, spilled to a single
/// file: the `n` target buckets are written sequentially, each as a run of
/// batch frames, with the byte span of every bucket kept in memory so the
/// consuming side can stream exactly the bucket it needs.
#[derive(Debug)]
pub(crate) struct SpilledBuckets {
    _dir: Arc<SpillDir>,
    path: PathBuf,
    spans: Vec<BucketSpan>,
}

impl SpilledBuckets {
    /// Spill `buckets` to a fresh file in the budget's run directory and
    /// record the spill volume against the budget's counters.
    pub fn write<T: SpillCodec>(budget: &MemBudget, buckets: &[Vec<T>]) -> io::Result<Self> {
        let (dir, path) = budget.spill_file()?;
        let mut out = BufWriter::new(File::create(&path)?);
        let mut scratch = Vec::new();
        let mut spans = Vec::with_capacity(buckets.len());
        let mut offset = 0u64;
        let mut batches = 0u64;
        for bucket in buckets {
            let mut len = 0u64;
            for chunk in bucket.chunks(SPILL_BATCH_RECORDS.max(1)) {
                len += write_batch(&mut out, chunk, &mut scratch)?;
                batches += 1;
            }
            spans.push(BucketSpan { offset, len });
            offset += len;
        }
        out.flush()?;
        budget.note_spill(batches, offset);
        Ok(SpilledBuckets {
            _dir: dir,
            path,
            spans,
        })
    }

    /// Read bucket `j` back, appending its records (in original order) to
    /// `out`.
    pub fn read_bucket_into<T: SpillCodec>(&self, j: usize, out: &mut Vec<T>) -> io::Result<()> {
        let span = self.spans[j];
        if span.len == 0 {
            return Ok(());
        }
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(span.offset))?;
        let mut reader = BufReader::new(file).take(span.len);
        let mut batch = Vec::new();
        while read_batch(&mut reader, &mut batch)? {
            out.append(&mut batch);
        }
        Ok(())
    }
}

/// A sorted run of records spilled to its own file, for external sorts:
/// write runs with [`SpillRun::write`], then merge-stream them back with
/// [`SpillRun::cursor`].
#[derive(Debug)]
pub struct SpillRun {
    _dir: Arc<SpillDir>,
    path: PathBuf,
    records: u64,
}

impl SpillRun {
    /// Spill `records` (already sorted by the caller) to a fresh file.
    pub fn write<T: SpillCodec>(budget: &MemBudget, records: &[T]) -> io::Result<Self> {
        let (dir, path) = budget.spill_file()?;
        let mut out = BufWriter::new(File::create(&path)?);
        let mut scratch = Vec::new();
        let mut bytes = 0u64;
        let mut batches = 0u64;
        for chunk in records.chunks(SPILL_BATCH_RECORDS.max(1)) {
            bytes += write_batch(&mut out, chunk, &mut scratch)?;
            batches += 1;
        }
        out.flush()?;
        budget.note_spill(batches, bytes);
        Ok(SpillRun {
            _dir: dir,
            path,
            records: records.len() as u64,
        })
    }

    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// `true` when the run holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// A streaming cursor over the run, one batch resident at a time.
    pub fn cursor<T: SpillCodec>(&self) -> io::Result<RunCursor<T>> {
        Ok(RunCursor {
            reader: BufReader::new(File::open(&self.path)?),
            batch: Vec::new().into_iter(),
        })
    }
}

/// Streaming reader over one [`SpillRun`]; holds a single decoded batch in
/// memory at a time.
#[derive(Debug)]
pub struct RunCursor<T> {
    reader: BufReader<File>,
    batch: std::vec::IntoIter<T>,
}

impl<T: SpillCodec> RunCursor<T> {
    /// Next record, or `Ok(None)` at end of run.
    pub fn next_record(&mut self) -> io::Result<Option<T>> {
        loop {
            if let Some(record) = self.batch.next() {
                return Ok(Some(record));
            }
            let mut batch = Vec::new();
            if !read_batch(&mut self.reader, &mut batch)? {
                return Ok(None);
            }
            self.batch = batch.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip<T: SpillCodec + Clone + PartialEq + std::fmt::Debug>(records: &[T]) {
        let mut payload = Vec::new();
        for r in records {
            r.encode(&mut payload);
        }
        assert_eq!(
            payload.len(),
            records.iter().map(SpillCodec::encoded_len).sum::<usize>(),
            "encoded_len exact"
        );
        let mut cursor: &[u8] = &payload;
        let decoded: Vec<T> = (0..records.len())
            .map(|_| T::decode(&mut cursor).expect("decode"))
            .collect();
        assert!(cursor.is_empty(), "decode consumed everything");
        assert_eq!(&decoded, records);
        // Re-encoding the decoded records reproduces the bytes exactly.
        let mut again = Vec::new();
        for r in &decoded {
            r.encode(&mut again);
        }
        assert_eq!(again, payload, "re-encode is bit-exact");
    }

    proptest! {
        #[test]
        fn prop_primitive_tuples_round_trip(records in proptest::collection::vec(
            (any::<u32>(), (any::<u8>(), any::<u64>())), 0..200)) {
            round_trip(&records);
        }

        #[test]
        fn prop_strings_round_trip(records in proptest::collection::vec(
            (any::<u32>(), "[a-zA-Z0-9 àéîøū]{0,24}"), 0..100)) {
            round_trip(&records);
        }

        #[test]
        fn prop_nested_round_trip(records in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u16>(), 0..8),
             proptest::option::of(any::<i64>())), 0..100)) {
            round_trip(&records);
        }

        #[test]
        fn prop_floats_round_trip_bit_exact(records in proptest::collection::vec(
            (any::<f64>(), any::<f32>()), 0..100)) {
            // PartialEq on NaN would fail, so compare bit patterns.
            let mut payload = Vec::new();
            for r in &records { r.encode(&mut payload); }
            let mut cursor: &[u8] = &payload;
            for r in &records {
                let (a, b) = <(f64, f32)>::decode(&mut cursor).expect("decode");
                prop_assert_eq!(a.to_bits(), r.0.to_bits());
                prop_assert_eq!(b.to_bits(), r.1.to_bits());
            }
            prop_assert!(cursor.is_empty());
        }

        #[test]
        fn prop_spilled_buckets_round_trip(buckets in proptest::collection::vec(
            proptest::collection::vec((any::<u32>(), any::<u64>()), 0..50), 1..8)) {
            let budget = MemBudget::limited(1);
            let spilled = SpilledBuckets::write(&budget, &buckets).expect("spill");
            prop_assert_eq!(spilled.spans.len(), buckets.len());
            for (j, bucket) in buckets.iter().enumerate() {
                let mut back: Vec<(u32, u64)> = Vec::new();
                spilled.read_bucket_into(j, &mut back).expect("read bucket");
                prop_assert_eq!(&back, bucket);
            }
            if buckets.iter().any(|b| !b.is_empty()) {
                prop_assert!(budget.spilled_bytes() > 0);
            }
        }

        #[test]
        fn prop_spill_run_streams_in_order(mut records in proptest::collection::vec(
            (any::<u32>(), any::<u32>()), 0..500)) {
            records.sort_unstable();
            let budget = MemBudget::limited(1);
            let run = SpillRun::write(&budget, &records).expect("spill run");
            prop_assert_eq!(run.len(), records.len() as u64);
            let mut cursor = run.cursor::<(u32, u32)>().expect("cursor");
            let mut back = Vec::new();
            while let Some(r) = cursor.next_record().expect("stream") {
                back.push(r);
            }
            prop_assert_eq!(back, records);
        }
    }

    #[test]
    fn batch_frames_span_multiple_batches() {
        // More records than one batch frame holds: exercises the chunked
        // writer and the cursor's batch-refill path.
        let records: Vec<u32> = (0..(SPILL_BATCH_RECORDS as u32 * 2 + 17)).collect();
        let budget = MemBudget::limited(1);
        let run = SpillRun::write(&budget, &records).expect("spill run");
        assert!(budget.spill_batches() >= 3, "multiple frames written");
        let mut cursor = run.cursor::<u32>().expect("cursor");
        let mut count = 0u32;
        while let Some(r) = cursor.next_record().expect("stream") {
            assert_eq!(r, count);
            count += 1;
        }
        assert_eq!(count as usize, records.len());
    }

    #[test]
    fn truncated_batch_is_invalid_data() {
        let mut payload = Vec::new();
        let records: Vec<u32> = vec![1, 2, 3];
        let mut scratch = Vec::new();
        write_batch(&mut payload, &records, &mut scratch).unwrap();
        payload.truncate(payload.len() - 1);
        let mut reader: &[u8] = &payload;
        let mut batch: Vec<u32> = Vec::new();
        assert!(read_batch(&mut reader, &mut batch).is_err());
    }
}
