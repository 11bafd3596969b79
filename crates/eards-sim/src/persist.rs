//! Snapshot serialization: the [`Persist`] trait and its binary codec.
//!
//! Every stateful layer of the simulator implements [`Persist`] so a whole
//! run can be checkpointed mid-flight and resumed bit-identically. The
//! format is a hand-rolled, versioned, length-prefixed binary codec — no
//! serde, matching the hand-rolled exporters in `eards-obs::export` — with
//! these conventions:
//!
//! * all integers are **little-endian** fixed width; `usize` is encoded as
//!   `u64`;
//! * floats are encoded as their IEEE-754 bit pattern (`f64::to_bits`), so
//!   restore is exact, NaN payloads included;
//! * variable-length data (strings, sequences, nested blocks) carries a
//!   `u32` length prefix;
//! * enums are encoded as a `u8` discriminant tag followed by the variant's
//!   fields;
//! * a snapshot file starts with the 8-byte magic [`SNAPSHOT_MAGIC`]
//!   followed by a version byte ([`SNAPSHOT_VERSION`]); readers reject
//!   unknown versions instead of guessing.
//!
//! The codec is built to run at memory speed without LTO: every `Writer`
//! and `Reader` primitive and every `impl Persist` method is `#[inline]`
//! (lint rule `SNAP003`), so a snapshot compiles into straight-line code
//! in the crate that takes it instead of one call per field; fixed-width
//! reads take an array with one bounds check, and their end-of-input
//! error is built out of line.
//!
//! Only **canonical** state is serialized. Transient state — recycled
//! scratch buffers, observability sinks, derived caches — is rebuilt on
//! restore; each implementer documents its split. Snapshot code must be
//! deterministic: no wall-clock reads, no ambient RNGs (lint rule `D005`
//! enforces this inside `impl Persist` blocks).

use std::collections::BTreeMap;
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Magic bytes opening every snapshot produced by this workspace.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"EARDSNAP";

/// Current snapshot format version. Bump on any encoding change; readers
/// reject snapshots written by other versions.
///
/// v2: the score-based scheduler's policy block gained the degradation-
/// ladder driver state (rung tag + work EWMA + exhaustion flag), and the
/// runner grew the backpressure `parked` queue — v1 snapshots no longer
/// decode and are rejected cleanly here instead of mis-parsing.
///
/// v3: the score-based scheduler's policy block gained the shard
/// round-robin cursor (the queue-assignment state of the sharded
/// hierarchical solver), so v2 policy blocks no longer decode.
///
/// v4: snapshots carry no job data. VM records lost their job copy, the
/// runner's job outcomes gave way to its completion order (VM ids), and
/// the runner header checks a digest of the trace instead of its length.
///
/// v5: the event queue holds no job arrivals (the job table is the arrival
/// schedule), and the engine wrapper's clock and processed-event counter
/// gave way to the runner's clock and the arrivals' sequence number.
///
/// v6: a finished VM is a fixed-width record (`u32` id, start and
/// completion instants) in one length-prefixed run after the live VMs,
/// which lost their completion instant; the run, in completion order,
/// replaces the runner's separate completion order.
pub const SNAPSHOT_VERSION: u8 = 6;

/// A type whose canonical state can be written to and rebuilt from the
/// snapshot codec.
///
/// The contract is exact round-tripping: `restore(persist(x)) == x` for
/// every observable behaviour of the type (RNG streams continue where they
/// left off, queues pop in the same order, counters keep counting).
pub trait Persist: Sized {
    /// Appends this value's canonical state to `w`.
    fn persist(&self, w: &mut Writer);

    /// Rebuilds a value from `r`, consuming exactly the bytes `persist`
    /// wrote.
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before a field could be read.
    UnexpectedEof {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Number of bytes the read needed.
        needed: usize,
    },
    /// The input does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The input's version byte is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion(u8),
    /// A field decoded to a value that violates an invariant.
    Corrupt(String),
    /// Decoding finished with unread bytes left over.
    TrailingBytes(usize),
    /// A sequence was too long for its `u32` length prefix. Raised on the
    /// *encoding* side: the [`Writer`] records it and
    /// [`Writer::into_bytes`] surfaces it instead of emitting a snapshot
    /// with a silently wrong length.
    SequenceTooLong(usize),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof { offset, needed } => {
                write!(
                    f,
                    "unexpected end of snapshot at byte {offset} (needed {needed} more)"
                )
            }
            PersistError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            PersistError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            PersistError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing bytes after the last field")
            }
            PersistError::SequenceTooLong(n) => {
                write!(f, "sequence of {n} entries exceeds the u32 length prefix")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Append-only encoder for the snapshot codec.
///
/// Encoding itself is infallible (`Persist::persist` takes no `Result`),
/// but a pathological input — a sequence longer than the `u32` length
/// prefix can express — must not produce a silently corrupt snapshot.
/// The writer therefore records the first such error *stickily* and
/// [`Writer::into_bytes`] refuses to hand out the bytes, so every
/// snapshot that reaches disk or a restore path is well-formed.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
    err: Option<PersistError>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates an empty writer with room for `bytes` bytes, so a snapshot
    /// of about that size is not regrown and copied as it fills.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
            err: None,
        }
    }

    /// Consumes the writer, returning the encoded bytes — or the first
    /// encoding error recorded by a `put_*` call, in which case the
    /// (corrupt) bytes are discarded.
    pub fn into_bytes(self) -> Result<Vec<u8>, PersistError> {
        match self.err {
            Some(e) => Err(e),
            None => Ok(self.buf),
        }
    }

    /// The first encoding error recorded so far, if any.
    pub fn error(&self) -> Option<&PersistError> {
        self.err.as_ref()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its exact IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a sequence length prefix (`u32`).
    ///
    /// If `n` exceeds `u32::MAX` the writer records a
    /// [`PersistError::SequenceTooLong`] (first error wins) and encodes a
    /// zero prefix; [`Writer::into_bytes`] will then return the error
    /// instead of the bytes, so the malformed snapshot never escapes.
    #[inline]
    pub fn put_len(&mut self, n: usize) {
        match u32::try_from(n) {
            Ok(n) => self.put_u32(n),
            Err(_) => {
                if self.err.is_none() {
                    self.err = Some(PersistError::SequenceTooLong(n));
                }
                // Placeholder so the buffer stays structurally aligned for
                // any further writes; the bytes are discarded anyway.
                self.put_u32(0);
            }
        }
    }

    /// Writes a length-prefixed sequence of [`Persist`] values.
    #[inline]
    pub fn put_seq<T: Persist>(&mut self, items: &[T]) {
        self.put_len(items.len());
        for item in items {
            item.persist(self);
        }
    }

    /// Writes an `Option` as a presence byte plus the value.
    #[inline]
    pub fn put_opt<T: Persist>(&mut self, v: &Option<T>) {
        match v {
            None => self.put_bool(false),
            Some(x) => {
                self.put_bool(true);
                x.persist(self);
            }
        }
    }

    /// Writes a length-prefixed run of fixed-width records: the count,
    /// then the records' bytes in one copy, with no tag or presence byte
    /// per record. [`Reader::get_run`] reads it back in one bounds check.
    #[inline]
    pub fn put_run<const N: usize>(&mut self, records: &[[u8; N]]) {
        self.put_len(records.len());
        self.buf.extend_from_slice(records.as_flattened());
    }

    /// Writes a length-prefixed nested block filled in by `f`, so readers
    /// can bound (or skip) a sub-payload whose internal layout they do not
    /// control — e.g. policy-private state.
    pub fn put_block(&mut self, f: impl FnOnce(&mut Writer)) {
        let mut inner = Writer::new();
        f(&mut inner);
        // An error recorded inside the block is as fatal as one outside:
        // propagate it to this writer (first error wins).
        if self.err.is_none() {
            self.err = inner.err.take();
        }
        self.put_len(inner.buf.len());
        self.buf.extend_from_slice(&inner.buf);
    }
}

/// Cursor-based decoder for the snapshot codec.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Errors unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), PersistError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(PersistError::TrailingBytes(n)),
        }
    }

    /// The `n` bytes at the cursor, advancing past them.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.eof(n));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// The `N` bytes at the cursor as an array, advancing past them. The
    /// fixed width lets every primitive read compile to one bounds check
    /// and one load.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        match self.data.get(self.pos..).and_then(<[u8]>::first_chunk::<N>) {
            Some(bytes) => {
                self.pos += N;
                Ok(*bytes)
            }
            None => Err(self.eof(N)),
        }
    }

    /// The error for a read of `n` bytes that runs past the input. Kept
    /// out of line so the successful read path stays small.
    #[cold]
    #[inline(never)]
    fn eof(&self, n: usize) -> PersistError {
        PersistError::UnexpectedEof {
            offset: self.pos,
            needed: n - self.remaining(),
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        let [b] = self.take_array::<1>()?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        self.take_array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        self.take_array().map(u64::from_le_bytes)
    }

    /// Reads a `usize` encoded as `u64`.
    #[inline]
    pub fn get_usize(&mut self) -> Result<usize, PersistError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| PersistError::Corrupt("usize field exceeds platform width".into()))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PersistError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PersistError::Corrupt("string field is not UTF-8".into()))
    }

    /// Reads a sequence length prefix, bounded by the remaining input so a
    /// corrupt count cannot trigger a huge allocation.
    #[inline]
    pub fn get_len(&mut self) -> Result<usize, PersistError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(PersistError::Corrupt(format!(
                "length prefix {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a length-prefixed sequence of [`Persist`] values.
    #[inline]
    pub fn get_seq<T: Persist>(&mut self) -> Result<Vec<T>, PersistError> {
        let n = self.get_len()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::restore(self)?);
        }
        Ok(items)
    }

    /// Reads a run written by [`Writer::put_run`]: the records as `N`-byte
    /// arrays, after one check that the whole run is present.
    #[inline]
    pub fn get_run<const N: usize>(&mut self) -> Result<&'a [[u8; N]], PersistError> {
        let n = self.get_u32()? as usize;
        let Some(bytes) = n.checked_mul(N).filter(|&b| b <= self.remaining()) else {
            return Err(PersistError::Corrupt(format!(
                "run of {n} {N}-byte records exceeds remaining {} bytes",
                self.remaining()
            )));
        };
        Ok(self.take(bytes)?.as_chunks::<N>().0)
    }

    /// Reads an `Option` written by [`Writer::put_opt`].
    #[inline]
    pub fn get_opt<T: Persist>(&mut self) -> Result<Option<T>, PersistError> {
        if self.get_bool()? {
            Ok(Some(T::restore(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed nested block written by
    /// [`Writer::put_block`], returning a sub-reader confined to it. The
    /// parent cursor advances past the whole block regardless of how much
    /// of it the sub-reader consumes.
    pub fn get_block(&mut self) -> Result<Reader<'a>, PersistError> {
        let n = self.get_len()?;
        Ok(Reader::new(self.take(n)?))
    }
}

/// Writes the snapshot file preamble: magic bytes plus version.
pub fn write_header(w: &mut Writer) {
    w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
    w.put_u8(SNAPSHOT_VERSION);
}

/// Validates the snapshot file preamble, returning the version byte.
pub fn read_header(r: &mut Reader<'_>) -> Result<u8, PersistError> {
    let magic = r
        .take(SNAPSHOT_MAGIC.len())
        .map_err(|_| PersistError::BadMagic)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.get_u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    Ok(version)
}

/// Writes `bytes` to `path` atomically: the data goes to `<path>.tmp`
/// first, is fsynced, and is then renamed over the target. A reader (or
/// a resume after a crash) therefore sees either the complete previous
/// file or the complete new one — never a torn write. The checkpoint
/// and sweep layers rely on this: a worker SIGKILLed mid-checkpoint must
/// not leave a half-written file that a retry would try to restore.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".tmp");
            path.with_file_name(n)
        }
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("write_atomic: {} has no file name", path.display()),
            ))
        }
    };
    let written = (|| {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        Ok(())
    })();
    // Any failure must leave the filesystem as if the call never
    // happened: the target untouched and no orphaned `.tmp` debris for a
    // retry (or a directory listing) to trip over.
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

macro_rules! persist_via {
    ($t:ty, $put:ident, $get:ident) => {
        impl Persist for $t {
            #[inline]
            fn persist(&self, w: &mut Writer) {
                w.$put(*self);
            }
            #[inline]
            fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
                r.$get()
            }
        }
    };
}

persist_via!(u8, put_u8, get_u8);
persist_via!(u32, put_u32, get_u32);
persist_via!(u64, put_u64, get_u64);
persist_via!(usize, put_usize, get_usize);
persist_via!(f64, put_f64, get_f64);
persist_via!(bool, put_bool, get_bool);

impl Persist for String {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_str(self);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_str()
    }
}

impl<T: Persist> Persist for Vec<T> {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_seq(self);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_seq()
    }
}

impl<T: Persist> Persist for Option<T> {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_opt(self);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_opt()
    }
}

/// The key-sorted pair list a `Vec<(K, V)>` of the entries writes.
/// Restore rejects keys that do not strictly increase.
impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_len(self.len());
        for (k, v) in self {
            k.persist(w);
            v.persist(w);
        }
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut map = BTreeMap::new();
        for _ in 0..r.get_len()? {
            let (k, v) = (K::restore(r)?, V::restore(r)?);
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(PersistError::Corrupt("map keys must increase".into()));
            }
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
        self.1.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl Persist for SimTime {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.as_millis());
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SimTime::from_millis(r.get_u64()?))
    }
}

impl Persist for SimDuration {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.as_millis());
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SimDuration::from_millis(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("héllo");
        SimTime::from_millis(123_456).persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(
            SimTime::restore(&mut r).unwrap(),
            SimTime::from_millis(123_456)
        );
        r.finish().unwrap();
    }

    #[test]
    fn sequences_options_and_blocks_round_trip() {
        let mut w = Writer::new();
        w.put_seq(&[1u64, 2, 3]);
        w.put_opt(&Some(7.5f64));
        w.put_opt::<u32>(&None);
        w.put_block(|w| w.put_str("nested"));
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_seq::<u64>().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_opt::<f64>().unwrap(), Some(7.5));
        assert_eq!(r.get_opt::<u32>().unwrap(), None);
        let mut block = r.get_block().unwrap();
        assert_eq!(block.get_str().unwrap(), "nested");
        block.finish().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn runs_round_trip_and_bound_their_count() {
        let mut w = Writer::new();
        w.put_run(&[1u16, 2, 0xBEEF].map(u16::to_le_bytes));
        w.put_run::<2>(&[]);
        let bytes = w.into_bytes().unwrap();
        assert_eq!(bytes.len(), 4 + 3 * 2 + 4);
        let mut r = Reader::new(&bytes);
        let run = r.get_run::<2>().unwrap();
        let back: Vec<u16> = run.iter().map(|&b| u16::from_le_bytes(b)).collect();
        assert_eq!(back, vec![1, 2, 0xBEEF]);
        assert!(r.get_run::<2>().unwrap().is_empty());
        r.finish().unwrap();
        // A count that promises more records than the input holds.
        let err = Reader::new(&bytes[..9]).get_run::<2>().unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(ref m) if m.contains("run of 3")));
    }

    #[test]
    fn header_round_trip_and_rejections() {
        let mut w = Writer::new();
        write_header(&mut w);
        let good = w.into_bytes().unwrap();
        assert_eq!(
            read_header(&mut Reader::new(&good)).unwrap(),
            SNAPSHOT_VERSION
        );

        assert_eq!(
            read_header(&mut Reader::new(b"NOTASNAP\x01")),
            Err(PersistError::BadMagic)
        );
        let mut bumped = good.clone();
        *bumped.last_mut().unwrap() = SNAPSHOT_VERSION + 1;
        assert_eq!(
            read_header(&mut Reader::new(&bumped)),
            Err(PersistError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
        );
        assert_eq!(
            read_header(&mut Reader::new(b"EAR")),
            Err(PersistError::BadMagic)
        );
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes().unwrap();
        let mut short = Reader::new(&bytes[..5]);
        assert_eq!(
            short.get_u64(),
            Err(PersistError::UnexpectedEof {
                offset: 0,
                needed: 3
            })
        );
        let mut long = Reader::new(&bytes);
        long.get_u32().unwrap();
        assert_eq!(long.finish(), Err(PersistError::TrailingBytes(4)));
    }

    #[test]
    fn a_short_fixed_width_read_reports_the_gap_and_keeps_the_cursor() {
        let mut w = Writer::new();
        w.put_u32(7);
        w.put_u64(42);
        let bytes = w.into_bytes().unwrap();
        // Cut the u64 three bytes short.
        let mut r = Reader::new(&bytes[..bytes.len() - 3]);
        assert_eq!(r.get_u32(), Ok(7));
        assert_eq!(
            r.get_u64(),
            Err(PersistError::UnexpectedEof {
                offset: 4,
                needed: 3
            })
        );
        assert_eq!(r.pos, 4, "a failed read consumes nothing");
        assert_eq!(r.remaining(), 5);
        // The bytes still there remain readable.
        assert_eq!(r.get_u32(), Ok(42));
        assert_eq!(r.get_u8(), Ok(0));
        assert_eq!(
            r.get_u8(),
            Err(PersistError::UnexpectedEof {
                offset: 9,
                needed: 1
            })
        );
        r.finish().unwrap();
    }

    #[test]
    fn corrupt_length_prefix_is_bounded() {
        // A length prefix claiming more bytes than remain must fail fast
        // instead of allocating.
        let mut w = Writer::new();
        w.put_u32(1_000_000);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_seq::<u64>(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.get_bool(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn oversized_sequence_is_a_sticky_error_not_a_panic() {
        let too_long = u32::MAX as usize + 1;
        let mut w = Writer::new();
        w.put_len(too_long);
        // Writes after the failure still land; the error sticks.
        w.put_u64(42);
        assert_eq!(w.error(), Some(&PersistError::SequenceTooLong(too_long)));
        assert_eq!(w.into_bytes(), Err(PersistError::SequenceTooLong(too_long)));
    }

    #[test]
    fn block_errors_propagate_to_the_outer_writer() {
        let mut w = Writer::new();
        w.put_block(|inner| inner.put_len(u32::MAX as usize + 7));
        assert_eq!(
            w.into_bytes(),
            Err(PersistError::SequenceTooLong(u32::MAX as usize + 7))
        );

        // First error wins over a later one in a block.
        let mut w = Writer::new();
        w.put_len(u32::MAX as usize + 1);
        w.put_block(|inner| inner.put_len(u32::MAX as usize + 2));
        assert_eq!(
            w.into_bytes(),
            Err(PersistError::SequenceTooLong(u32::MAX as usize + 1))
        );
    }
}
