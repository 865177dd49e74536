//! Durable on-disk study checkpoints: crash-safe day segments.
//!
//! A longitudinal study is a long fold over daily sweeps; a host crash
//! mid-study used to lose everything. This module gives the fold a
//! durable spine: after each sweep the runner writes one **day segment**
//! — a length-prefixed, CRC32-checksummed binary file carrying everything
//! needed to replay that day without re-measuring it:
//!
//! - the sweep's metrics-stripped [`SweepFrame`]: its stats whole, its
//!   columns as an edit script over the previous day's frame,
//! - the [`Interner`] *delta* the sweep appended (new names and
//!   countries, with before/after table sizes so the symbol chain can be
//!   verified segment to segment),
//! - the network's post-sweep virtual-clock reading (fault windows anchor
//!   to the absolute clock, so resume must restore it day by day),
//! - a config fingerprint (FNV-1a over the study parameters that shape
//!   measurement), so a directory can't silently resume a different
//!   study.
//!
//! # Segment layout
//!
//! ```text
//! magic "RUWCKPT1" (8 bytes)
//! ┌ section ────────────────────────────────┐  × 3 (meta, interner, frame)
//! │ body length  u32 LE                     │
//! │ body         …                          │
//! │ CRC32(body)  u32 LE                     │
//! └─────────────────────────────────────────┘
//! meta      version u32 (= 2) · fingerprint u64 · day index u32 · date i32
//!           · network clock µs u64 · has base u8 · base rows u32
//! interner  base and post table sizes (3 × u32 each) · names · countries
//! frame     date i32 · rows, NS names, NS addrs, apex addrs (u32 each)
//!           · 13 stats u64 · completeness u8 · script ops to the end
//! op        0 copy u32 n   the next n base rows are unchanged
//!           1 skip u32 n   the next n base rows left
//!           2 row          one literal row: domain u32, then its NS names,
//!                          NS addrs and apex addrs, each a u32 count and
//!                          its entries (a name is a u32 symbol; an addr
//!                          is ip, country and ASN, u32 each)
//! ```
//!
//! Every integer is little-endian. Every failure mode of durable storage
//! maps to a typed [`CheckpointError`], never a panic: truncation (torn
//! write, short read) → [`CheckpointError::Truncated`], bit corruption →
//! [`CheckpointError::BadChecksum`], a foreign file →
//! [`CheckpointError::BadMagic`], a chain in another format →
//! [`CheckpointError::BadVersion`], a directory from a
//! differently-configured study → [`CheckpointError::ConfigMismatch`].
//!
//! # Frames as edit scripts
//!
//! The paper re-resolves every name every day, so consecutive frames are
//! nearly identical: a frame section is a script over a **base** frame,
//! and the base is the previous day's frame. A **keyframe** is the same
//! script over the empty frame (all literal rows). Rows are matched by
//! domain symbol; an unchanged row is copied, a changed one is a skip plus
//! a literal, and so is a row that moved, so correctness never depends on
//! row order. Each segment still carries its own stats, completeness
//! flag, interner delta and network clock whole.
//!
//! [`CheckpointDir::write_day`] scripts a segment over the last frame the
//! directory wrote, or the last frame a [`Replay`] over it yielded, when
//! the segment is that frame's next day, and writes a keyframe otherwise
//! (day 0, or a day written out of order). So a resumed run writes the
//! same bytes as an uninterrupted one. The meta section records whether
//! the segment has a base and the base's row count; a base of any other
//! length is a [`CheckpointError::ChainBroken`]. Every copy and skip is
//! bounds-checked against the base, and the script must consume the whole
//! base and land on the declared column lengths, or the segment is
//! [`CheckpointError::Malformed`].
//!
//! # Replay and quarantine policy
//!
//! [`CheckpointDir::replay`] streams the longest valid prefix: each step
//! reads, checksums and validates one segment against the chain so far,
//! and rebuilds its frame from the day before. The walk keeps that one
//! base frame, so with a caller that drops each day before pulling the
//! next it holds two days at a time however long the study ran. The first
//! damaged segment — and every segment after it, since interner deltas
//! and frame scripts chain — is **quarantined**: renamed aside to the
//! first free `<name>.quarantined` (then `<name>.1.quarantined`, …, so a
//! day damaged on two resumes keeps both copies) and reported in
//! [`Replay::quarantined`], so a resumed run re-measures from the last
//! valid day instead of panicking (or worse, trusting corrupt bytes). A
//! segment from another study ([`CheckpointError::ConfigMismatch`]) or in
//! another format version ([`CheckpointError::BadVersion`]) is not damage:
//! it ends the walk as a hard error with nothing renamed.
//! [`CheckpointDir::load`] is the same walk collected into a
//! [`LoadOutcome`]. Writes are atomic (temp file + fsync + rename), so a
//! crash mid-write leaves a stray `.tmp` the reader ignores, never a
//! half-segment under the real name.
//!
//! # Durability of names
//!
//! Each segment's bytes are synced before its rename, but the directory
//! is synced only once, by [`CheckpointDir::sync`] when a run's writes
//! are done — a directory sync per day would double the per-day sync
//! cost. So a finished chain's names are durable, and a power loss in
//! mid-study may drop the names of the newest segments. Resume then
//! re-sweeps those days (a surviving segment whose predecessor's name was
//! lost breaks the index chain and is quarantined), and since a resume is
//! byte-identical from any valid prefix, the lost names cost time, never
//! a result.
//!
//! Checksums are CRC-32 (IEEE), computed slicing-by-8: eight table
//! lookups per eight bytes, about four times the bytewise speed.

use crate::frame::{AddrColumns, SweepFrame};
use crate::stats::{Completeness, SweepStats};
use crate::sym::{CountrySym, Interner, Sym};
use crate::SweepMetrics;
use ruwhere_types::sync::lock;
use ruwhere_types::{Asn, Country, Date, DomainName, FastMap};
use std::fmt;
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every day segment, whatever its format version
/// (which the meta section carries).
pub const SEGMENT_MAGIC: &[u8; 8] = b"RUWCKPT1";

/// Current segment format version (stored in the meta section). Version
/// 2 stores each frame as an edit script over the day before; version 1
/// stored every frame whole.
pub const SEGMENT_VERSION: u32 = 2;

/// File-name extension quarantined segments are renamed to.
pub const QUARANTINE_SUFFIX: &str = "quarantined";

/// Why a checkpoint operation failed. Every variant is a detected,
/// reportable condition — corruption is data here, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error, stringified.
        detail: String,
    },
    /// The file does not start with [`SEGMENT_MAGIC`].
    BadMagic,
    /// The segment declares a format version this build cannot read: a
    /// chain in another format, not damage.
    BadVersion(u32),
    /// The file ends before a declared length — a torn or truncated
    /// write.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// A section's CRC32 does not match its body — bit corruption.
    BadChecksum {
        /// Which section failed ("meta", "interner" or "frame").
        section: &'static str,
    },
    /// A checksummed body decoded to structurally invalid data (format
    /// skew or a writer bug — checksums rule out wire corruption).
    Malformed {
        /// Which section failed.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// The segment was written by a study with different parameters.
    ConfigMismatch {
        /// Fingerprint the reader expected.
        expected: u64,
        /// Fingerprint found in the segment.
        found: u64,
    },
    /// The segment is valid in isolation but does not continue the
    /// symbol/day chain of the segments before it.
    ChainBroken {
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => write!(f, "checkpoint io ({path}): {detail}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint segment (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported segment version {v}"),
            CheckpointError::Truncated { offset } => {
                write!(f, "segment truncated at byte {offset} (torn write?)")
            }
            CheckpointError::BadChecksum { section } => {
                write!(f, "checksum mismatch in {section} section (bit corruption)")
            }
            CheckpointError::Malformed { section, detail } => {
                write!(f, "malformed {section} section: {detail}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "segment belongs to a different study configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::ChainBroken { detail } => {
                write!(f, "segment chain broken: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

fn malformed(section: &'static str, detail: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed {
        section,
        detail: detail.into(),
    }
}

// --- checksums ----------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected) slicing-by-8 tables, built
/// at compile time — the build carries no checksum dependency.
/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][b]`
/// is `CRC32_TABLES[0][b]` advanced through `k` more zero bytes, so
/// eight table lookups fold eight input bytes at once.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the per-section integrity check. Folds
/// eight bytes per step (slicing-by-8), then the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// FNV-1a 64-bit hash — the study-config fingerprint function.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// --- binary encoding helpers -------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader; every short read is a typed
/// [`CheckpointError::Truncated`] carrying the offset.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(CheckpointError::Truncated { offset: self.pos });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().unwrap_or([0; 2]),
        ))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().unwrap_or([0; 4]),
        ))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap_or([0; 8]),
        ))
    }

    fn i32(&mut self) -> Result<i32, CheckpointError> {
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().unwrap_or([0; 4]),
        ))
    }

    fn str(&mut self, section: &'static str) -> Result<&'a str, CheckpointError> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| malformed(section, "non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Append one `len | body | crc` section whose body `write` appends.
fn push_section(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    write(out);
    let body = at + 4..out.len();
    let len = body.len() as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[body]);
    put_u32(out, crc);
}

/// Read one `len | body | crc` section, verifying length and checksum.
fn read_section<'a>(
    r: &mut Reader<'a>,
    section: &'static str,
) -> Result<&'a [u8], CheckpointError> {
    let len = r.u32()? as usize;
    // Bound the declared length by what the file actually holds (plus the
    // trailing CRC) before any allocation or slice — a bit-flipped length
    // must surface as truncation, not an OOM or panic.
    let body = r.take(len)?;
    let stored = r.u32()?;
    if crc32(body) != stored {
        return Err(CheckpointError::BadChecksum { section });
    }
    Ok(body)
}

// --- interner delta -----------------------------------------------------

/// The three symbol-table sizes at one instant — the chain links between
/// consecutive day segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableSizes {
    /// Interned names.
    pub names: u32,
    /// Interned TLDs.
    pub tlds: u32,
    /// Interned countries.
    pub countries: u32,
}

impl TableSizes {
    /// The interner's current table sizes.
    pub fn of(interner: &Interner) -> TableSizes {
        TableSizes {
            names: interner.names_len() as u32,
            tlds: interner.tlds_len() as u32,
            countries: interner.countries_len() as u32,
        }
    }
}

impl fmt::Display for TableSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "names={} tlds={} countries={}",
            self.names, self.tlds, self.countries
        )
    }
}

/// What one sweep appended to the study interner: the new names and
/// countries in symbol order, bracketed by before/after table sizes.
///
/// Replaying deltas in day order reconstructs the interner *exactly* —
/// including the TLD table, which only ever grows through
/// [`Interner::intern_name`], so re-interning the names in order
/// reproduces TLD symbols too. That preserves the seeds-first
/// symbol-assignment invariant (DESIGN.md §10): symbols restored from
/// checkpoints are bit-for-bit the symbols the original run assigned,
/// which [`InternerDelta::replay`] verifies against `post`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternerDelta {
    /// Table sizes before the sweep interned anything.
    pub base: TableSizes,
    /// Table sizes after the sweep's frame-build pass.
    pub post: TableSizes,
    /// Names appended by the sweep, in symbol order.
    pub names: Vec<DomainName>,
    /// Countries appended by the sweep, in symbol order.
    pub countries: Vec<Country>,
}

impl InternerDelta {
    /// Capture the delta between `base` (sizes recorded before the
    /// sweep) and the interner's current state.
    pub fn capture(interner: &Interner, base: TableSizes) -> InternerDelta {
        InternerDelta {
            base,
            post: TableSizes::of(interner),
            names: interner.names_from(base.names as usize),
            countries: interner.countries_from(base.countries as usize),
        }
    }

    /// Re-prime `interner` with this delta: verify its tables currently
    /// sit at `base`, intern the recorded names and countries in symbol
    /// order, and verify the tables land exactly on `post`.
    pub fn replay(&self, interner: &Interner) -> Result<(), CheckpointError> {
        let have = TableSizes::of(interner);
        if have != self.base {
            return Err(CheckpointError::ChainBroken {
                detail: format!("delta expects base ({}), interner has ({have})", self.base),
            });
        }
        for name in &self.names {
            interner.intern_name(name);
        }
        for &country in &self.countries {
            interner.intern_country(Some(country));
        }
        let now = TableSizes::of(interner);
        if now != self.post {
            return Err(CheckpointError::ChainBroken {
                detail: format!("replayed delta landed on ({now}), expected ({})", self.post),
            });
        }
        Ok(())
    }
}

// --- day checkpoint -----------------------------------------------------

/// Everything one study day contributes, in durable form: the sweep's
/// frame (metrics stripped), the interner delta, and the network clock a
/// resumed run must restore before continuing.
#[derive(Debug, Clone, PartialEq)]
pub struct DayCheckpoint {
    /// Position of this day in the study's sweep schedule (0-based).
    pub day_index: u32,
    /// The sweep date.
    pub date: Date,
    /// The network's global virtual clock right after the sweep, in
    /// microseconds. Fault windows anchor to the absolute clock, so
    /// resume restores this after replaying each day.
    pub net_clock_us: u64,
    /// The interner delta this day appended.
    pub interner: InternerDelta,
    /// The day's sweep frame, metrics stripped.
    pub frame: SweepFrame,
}

/// A decoded meta section.
struct Meta {
    fingerprint: u64,
    day_index: u32,
    date: Date,
    net_clock_us: u64,
    /// The row count of the frame the script runs over; `None` for a
    /// keyframe.
    base_rows: Option<u32>,
}

/// Meta body length: version, fingerprint, day index, date, clock, base
/// flag and base rows.
const META_LEN: usize = 4 + 8 + 4 + 4 + 8 + 1 + 4;

fn encode_meta(b: &mut Vec<u8>, ck: &DayCheckpoint, fingerprint: u64, base_rows: Option<u32>) {
    put_u32(b, SEGMENT_VERSION);
    put_u64(b, fingerprint);
    put_u32(b, ck.day_index);
    put_i32(b, ck.date.days_since_epoch());
    put_u64(b, ck.net_clock_us);
    put_u8(b, u8::from(base_rows.is_some()));
    put_u32(b, base_rows.unwrap_or(0));
}

fn interner_len(d: &InternerDelta) -> usize {
    let names: usize = d.names.iter().map(|n| 2 + n.as_str().len()).sum();
    let countries: usize = d.countries.iter().map(|c| 2 + c.code().len()).sum();
    6 * 4 + 4 + names + 4 + countries
}

fn encode_interner(b: &mut Vec<u8>, d: &InternerDelta) {
    for s in [d.base, d.post] {
        put_u32(b, s.names);
        put_u32(b, s.tlds);
        put_u32(b, s.countries);
    }
    put_u32(b, d.names.len() as u32);
    for n in &d.names {
        put_str(b, n.as_ref());
    }
    put_u32(b, d.countries.len() as u32);
    for c in &d.countries {
        put_str(b, c.code());
    }
}

/// One step of a frame script (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// The next n base rows are unchanged.
    Copy(u32),
    /// The next n base rows left.
    Skip(u32),
    /// Row i of the new frame, written out whole.
    Row(u32),
}

const OP_COPY: u8 = 0;
const OP_SKIP: u8 = 1;
const OP_ROW: u8 = 2;

/// Append `op`, merging it into the last op when both copy or both skip.
fn push_op(ops: &mut Vec<Op>, op: Op) {
    match (ops.last_mut(), op) {
        (Some(Op::Copy(n)), Op::Copy(m)) | (Some(Op::Skip(n)), Op::Skip(m)) => *n += m,
        _ => ops.push(op),
    }
}

/// Record `i`'s half-open range of a data column.
fn span(offsets: &[u32], i: usize) -> Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

fn same_addrs(a: &AddrColumns, ra: Range<usize>, b: &AddrColumns, rb: Range<usize>) -> bool {
    a.ips[ra.clone()] == b.ips[rb.clone()]
        && a.countries[ra.clone()] == b.countries[rb.clone()]
        && a.asns[ra] == b.asns[rb]
}

/// Whether row `i` of `a` and row `j` of `b` are the same record.
fn same_row(a: &SweepFrame, i: usize, b: &SweepFrame, j: usize) -> bool {
    a.domains[i] == b.domains[j]
        && a.ns_names[span(&a.ns_name_offsets, i)] == b.ns_names[span(&b.ns_name_offsets, j)]
        && same_addrs(
            &a.ns_addrs,
            span(&a.ns_addr_offsets, i),
            &b.ns_addrs,
            span(&b.ns_addr_offsets, j),
        )
        && same_addrs(
            &a.apex_addrs,
            span(&a.apex_addr_offsets, i),
            &b.apex_addrs,
            span(&b.apex_addr_offsets, j),
        )
}

/// The script that rebuilds `frame` from `base`, or from the empty frame.
/// Rows are matched by domain symbol, walking both frames forward: the
/// base rows before a match are skipped, a matched row is copied when it
/// is unchanged, and every other row is a literal.
fn script(frame: &SweepFrame, base: Option<&SweepFrame>) -> Vec<Op> {
    let Some(base) = base else {
        return (0..frame.len() as u32).map(Op::Row).collect();
    };
    let at: FastMap<Sym, u32> = base
        .domains
        .iter()
        .enumerate()
        .map(|(j, &d)| (d, j as u32))
        .collect();
    let mut ops = Vec::new();
    // The first base row not yet copied or skipped.
    let mut next = 0u32;
    for (i, d) in frame.domains.iter().enumerate() {
        match at.get(d) {
            Some(&j) if j >= next => {
                if j > next {
                    push_op(&mut ops, Op::Skip(j - next));
                }
                if same_row(frame, i, base, j as usize) {
                    push_op(&mut ops, Op::Copy(1));
                } else {
                    push_op(&mut ops, Op::Skip(1));
                    push_op(&mut ops, Op::Row(i as u32));
                }
                next = j + 1;
            }
            _ => push_op(&mut ops, Op::Row(i as u32)),
        }
    }
    let rows = base.len() as u32;
    if next < rows {
        push_op(&mut ops, Op::Skip(rows - next));
    }
    ops
}

/// Frame body bytes before the script: date, four lengths, 13 stats and
/// the completeness tag.
const FRAME_HEAD_LEN: usize = 4 + 4 * 4 + 13 * 8 + 1;

fn frame_len(f: &SweepFrame, ops: &[Op]) -> usize {
    let op_len = |op: &Op| match *op {
        Op::Copy(_) | Op::Skip(_) => 1 + 4,
        Op::Row(i) => {
            let i = i as usize;
            1 + 4
                + 4 * (1 + span(&f.ns_name_offsets, i).len())
                + 4
                + 12 * span(&f.ns_addr_offsets, i).len()
                + 4
                + 12 * span(&f.apex_addr_offsets, i).len()
        }
    };
    FRAME_HEAD_LEN + ops.iter().map(op_len).sum::<usize>()
}

fn encode_addrs(b: &mut Vec<u8>, cols: &AddrColumns, range: Range<usize>) {
    put_u32(b, range.len() as u32);
    for i in range {
        put_u32(b, u32::from(cols.ips[i]));
        put_u32(b, cols.countries[i].0);
        put_u32(b, cols.asns[i].map(|a| a.0).unwrap_or(u32::MAX));
    }
}

fn encode_frame(b: &mut Vec<u8>, f: &SweepFrame, ops: &[Op]) {
    put_i32(b, f.date.days_since_epoch());
    for len in [
        f.domains.len(),
        f.ns_names.len(),
        f.ns_addrs.ips.len(),
        f.apex_addrs.ips.len(),
    ] {
        put_u32(b, len as u32);
    }
    let st = &f.stats;
    for v in [
        st.seeded,
        st.ns_failures,
        st.apex_failures,
        st.queries,
        st.virtual_elapsed_us,
        st.timeouts,
        st.servfails,
        st.lame,
        st.retries_spent,
        st.ns_cache_hits,
        st.ns_cache_misses,
        st.shards_retried,
        st.shards_lost,
    ] {
        put_u64(b, v);
    }
    put_u8(
        b,
        match st.completeness {
            Completeness::Full => 0,
            Completeness::Partial => 1,
        },
    );
    for &op in ops {
        match op {
            Op::Copy(n) => {
                put_u8(b, OP_COPY);
                put_u32(b, n);
            }
            Op::Skip(n) => {
                put_u8(b, OP_SKIP);
                put_u32(b, n);
            }
            Op::Row(i) => {
                let i = i as usize;
                put_u8(b, OP_ROW);
                put_u32(b, f.domains[i].0);
                let names = &f.ns_names[span(&f.ns_name_offsets, i)];
                put_u32(b, names.len() as u32);
                for s in names {
                    put_u32(b, s.0);
                }
                encode_addrs(b, &f.ns_addrs, span(&f.ns_addr_offsets, i));
                encode_addrs(b, &f.apex_addrs, span(&f.apex_addr_offsets, i));
            }
        }
    }
}

/// Serialise a day checkpoint to segment bytes, its frame scripted over
/// `base` (the previous day's frame), or as a keyframe when `base` is
/// `None`. The segment is written into one buffer of its exact size.
pub fn encode_segment(ck: &DayCheckpoint, fingerprint: u64, base: Option<&SweepFrame>) -> Vec<u8> {
    let ops = script(&ck.frame, base);
    let len = SEGMENT_MAGIC.len()
        + 3 * 8
        + META_LEN
        + interner_len(&ck.interner)
        + frame_len(&ck.frame, &ops);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(SEGMENT_MAGIC);
    let base_rows = base.map(|f| f.len() as u32);
    push_section(&mut out, |b| encode_meta(b, ck, fingerprint, base_rows));
    push_section(&mut out, |b| encode_interner(b, &ck.interner));
    push_section(&mut out, |b| encode_frame(b, &ck.frame, &ops));
    debug_assert_eq!(out.len(), len, "segment size estimate");
    out
}

fn decode_date(days: i32, section: &'static str) -> Result<Date, CheckpointError> {
    // Dates written by a study are modern; anything wildly out of range
    // is format skew.
    if !(0..=200_000).contains(&days) {
        return Err(malformed(section, format!("date out of range: {days}")));
    }
    Ok(Date::from_days(days))
}

fn decode_meta(body: &[u8]) -> Result<Meta, CheckpointError> {
    let r = &mut Reader::new(body);
    let map = |_| malformed("meta", "short body");
    let version = r.u32().map_err(map)?;
    if version != SEGMENT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let fingerprint = r.u64().map_err(map)?;
    let day_index = r.u32().map_err(map)?;
    let date = decode_date(r.i32().map_err(map)?, "meta")?;
    let net_clock_us = r.u64().map_err(map)?;
    let base_rows = match (r.u8().map_err(map)?, r.u32().map_err(map)?) {
        (0, 0) => None,
        (1, rows) => Some(rows),
        (flag, rows) => {
            return Err(malformed(
                "meta",
                format!("bad base flag {flag} with {rows} base rows"),
            ))
        }
    };
    if !r.done() {
        return Err(malformed("meta", "trailing bytes"));
    }
    Ok(Meta {
        fingerprint,
        day_index,
        date,
        net_clock_us,
        base_rows,
    })
}

fn decode_interner(body: &[u8]) -> Result<InternerDelta, CheckpointError> {
    const S: &str = "interner";
    let r = &mut Reader::new(body);
    let map = |_| malformed(S, "short body");
    let mut sizes = [TableSizes::default(); 2];
    for s in &mut sizes {
        s.names = r.u32().map_err(map)?;
        s.tlds = r.u32().map_err(map)?;
        s.countries = r.u32().map_err(map)?;
    }
    let [base, post] = sizes;
    let n_names = r.u32().map_err(map)? as usize;
    if post.names.checked_sub(base.names) != Some(n_names as u32) {
        return Err(malformed(S, "name count disagrees with table sizes"));
    }
    let mut names = Vec::with_capacity(n_names.min(body.len()));
    for _ in 0..n_names {
        let s = r.str(S)?;
        names.push(
            s.parse::<DomainName>()
                .map_err(|e| malformed(S, format!("bad name {s:?}: {e}")))?,
        );
    }
    let n_countries = r.u32().map_err(map)? as usize;
    if post.countries.checked_sub(base.countries) != Some(n_countries as u32) {
        return Err(malformed(S, "country count disagrees with table sizes"));
    }
    let mut countries = Vec::with_capacity(n_countries.min(body.len()));
    for _ in 0..n_countries {
        let s = r.str(S)?;
        countries
            .push(Country::from_code(s).ok_or_else(|| malformed(S, format!("bad country {s:?}")))?);
    }
    if !r.done() {
        return Err(malformed(S, "trailing bytes"));
    }
    Ok(InternerDelta {
        base,
        post,
        names,
        countries,
    })
}

/// An empty address table with room for `len` entries.
fn addrs_with_capacity(len: usize) -> AddrColumns {
    AddrColumns {
        ips: Vec::with_capacity(len),
        countries: Vec::with_capacity(len),
        asns: Vec::with_capacity(len),
    }
}

/// An offset column holding only its leading 0, with room for `rows`.
fn offsets_with_capacity(rows: usize) -> Vec<u32> {
    let mut v = Vec::with_capacity(rows + 1);
    v.push(0);
    v
}

/// Append one literal row's addresses, then its closing offset.
fn decode_addrs(
    r: &mut Reader<'_>,
    cols: &mut AddrColumns,
    offsets: &mut Vec<u32>,
) -> Result<(), CheckpointError> {
    let map = |_| malformed("frame", "short body");
    let len = r.u32().map_err(map)?;
    for _ in 0..len {
        cols.ips.push(Ipv4Addr::from(r.u32().map_err(map)?));
        cols.countries.push(CountrySym(r.u32().map_err(map)?));
        cols.asns.push(match r.u32().map_err(map)? {
            u32::MAX => None,
            v => Some(Asn(v)),
        });
    }
    offsets.push(cols.ips.len() as u32);
    Ok(())
}

/// Append one literal row.
fn decode_row(r: &mut Reader<'_>, f: &mut SweepFrame) -> Result<(), CheckpointError> {
    let map = |_| malformed("frame", "short body");
    f.domains.push(Sym(r.u32().map_err(map)?));
    for _ in 0..r.u32().map_err(map)? {
        f.ns_names.push(Sym(r.u32().map_err(map)?));
    }
    f.ns_name_offsets.push(f.ns_names.len() as u32);
    decode_addrs(r, &mut f.ns_addrs, &mut f.ns_addr_offsets)?;
    decode_addrs(r, &mut f.apex_addrs, &mut f.apex_addr_offsets)
}

/// Append `src`'s offsets for `rows`, shifted to continue `dst`, and
/// return the data range they delimit in `src`.
fn copy_offsets(dst: &mut Vec<u32>, src: &[u32], rows: Range<usize>) -> Range<usize> {
    let (start, end) = (src[rows.start], src[rows.end]);
    let at = dst.last().copied().unwrap_or(0);
    dst.extend(
        src[rows.start + 1..=rows.end]
            .iter()
            .map(|&o| o - start + at),
    );
    start as usize..end as usize
}

fn copy_addrs(dst: &mut AddrColumns, src: &AddrColumns, range: Range<usize>) {
    dst.ips.extend_from_slice(&src.ips[range.clone()]);
    dst.countries
        .extend_from_slice(&src.countries[range.clone()]);
    dst.asns.extend_from_slice(&src.asns[range]);
}

/// Append base rows `rows` unchanged.
fn copy_rows(f: &mut SweepFrame, base: &SweepFrame, rows: Range<usize>) {
    f.domains.extend_from_slice(&base.domains[rows.clone()]);
    let names = copy_offsets(&mut f.ns_name_offsets, &base.ns_name_offsets, rows.clone());
    f.ns_names.extend_from_slice(&base.ns_names[names]);
    let ns = copy_offsets(&mut f.ns_addr_offsets, &base.ns_addr_offsets, rows.clone());
    copy_addrs(&mut f.ns_addrs, &base.ns_addrs, ns);
    let apex = copy_offsets(&mut f.apex_addr_offsets, &base.apex_addr_offsets, rows);
    copy_addrs(&mut f.apex_addrs, &base.apex_addrs, apex);
}

/// Rebuild a frame from its section body and the base its script runs
/// over (`None` for a keyframe). `base` must be a well-formed frame, as
/// every built or decoded one is; the body may be anything.
fn decode_frame(body: &[u8], base: Option<&SweepFrame>) -> Result<SweepFrame, CheckpointError> {
    const S: &str = "frame";
    let r = &mut Reader::new(body);
    let map = |_| malformed(S, "short body");
    let date = decode_date(r.i32().map_err(map)?, S)?;
    let mut lens = [0usize; 4];
    for len in &mut lens {
        *len = r.u32().map_err(map)? as usize;
    }
    let mut stats = [0u64; 13];
    for v in &mut stats {
        *v = r.u64().map_err(map)?;
    }
    let completeness = match r.u8().map_err(map)? {
        0 => Completeness::Full,
        1 => Completeness::Partial,
        v => return Err(malformed(S, format!("bad completeness tag {v}"))),
    };
    // Reserve the declared lengths, but no more than the base and the
    // body could supply, so a bad length cannot ask for a huge buffer.
    let room = |declared: usize, in_base: usize| declared.min(in_base + body.len());
    let (rows_in_base, names_in_base, ns_in_base, apex_in_base) = base.map_or((0, 0, 0, 0), |b| {
        (
            b.len(),
            b.ns_names.len(),
            b.ns_addrs.ips.len(),
            b.apex_addrs.ips.len(),
        )
    });
    let [rows, names, ns, apex] = lens;
    let rows_room = room(rows, rows_in_base);
    let mut f = SweepFrame {
        date,
        domains: Vec::with_capacity(rows_room),
        ns_name_offsets: offsets_with_capacity(rows_room),
        ns_names: Vec::with_capacity(room(names, names_in_base)),
        ns_addr_offsets: offsets_with_capacity(rows_room),
        ns_addrs: addrs_with_capacity(room(ns, ns_in_base)),
        apex_addr_offsets: offsets_with_capacity(rows_room),
        apex_addrs: addrs_with_capacity(room(apex, apex_in_base)),
        stats: SweepStats {
            seeded: stats[0],
            ns_failures: stats[1],
            apex_failures: stats[2],
            queries: stats[3],
            virtual_elapsed_us: stats[4],
            timeouts: stats[5],
            servfails: stats[6],
            lame: stats[7],
            retries_spent: stats[8],
            ns_cache_hits: stats[9],
            ns_cache_misses: stats[10],
            shards_retried: stats[11],
            shards_lost: stats[12],
            completeness,
        },
        metrics: SweepMetrics::new(),
    };
    // The first base row not yet copied or skipped.
    let mut next = 0usize;
    while !r.done() {
        let op = r.u8().map_err(map)?;
        if op == OP_ROW {
            decode_row(r, &mut f)?;
            continue;
        }
        if op != OP_COPY && op != OP_SKIP {
            return Err(malformed(S, format!("bad script op {op}")));
        }
        let n = r.u32().map_err(map)? as usize;
        let end = next + n;
        if n == 0 || end > rows_in_base {
            return Err(malformed(
                S,
                format!(
                    "{} of {n} rows at base row {next} passes the base's end ({rows_in_base} rows)",
                    if op == OP_COPY { "copy" } else { "skip" }
                ),
            ));
        }
        if let (OP_COPY, Some(base)) = (op, base) {
            copy_rows(&mut f, base, next..end);
        }
        next = end;
    }
    if next != rows_in_base {
        return Err(malformed(
            S,
            format!("script consumed {next} of the base's {rows_in_base} rows"),
        ));
    }
    if [
        f.len(),
        f.ns_names.len(),
        f.ns_addrs.ips.len(),
        f.apex_addrs.ips.len(),
    ] != lens
    {
        return Err(malformed(
            S,
            "rebuilt columns disagree with the declared lengths",
        ));
    }
    Ok(f)
}

/// Check a segment's magic and section checksums and decode its meta,
/// returning the interner and frame bodies undecoded.
fn open_segment(bytes: &[u8]) -> Result<(Meta, &[u8], &[u8]), CheckpointError> {
    let r = &mut Reader::new(bytes);
    if r.take(SEGMENT_MAGIC.len())? != SEGMENT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let meta = read_section(r, "meta")?;
    let interner = read_section(r, "interner")?;
    let frame = read_section(r, "frame")?;
    if !r.done() {
        return Err(malformed("frame", "trailing bytes after last section"));
    }
    Ok((decode_meta(meta)?, interner, frame))
}

/// Finish decoding an opened segment from its decoded interner delta and
/// its frame body, the frame rebuilt over `base` when the segment has
/// one.
fn finish_segment(
    meta: &Meta,
    interner: InternerDelta,
    frame: &[u8],
    base: Option<&SweepFrame>,
) -> Result<DayCheckpoint, CheckpointError> {
    let base = match (meta.base_rows, base) {
        (None, _) => None,
        (Some(rows), Some(b)) if b.len() == rows as usize => Some(b),
        (Some(rows), b) => {
            return Err(CheckpointError::ChainBroken {
                detail: format!(
                    "segment is a script over a {rows}-row frame, but {}",
                    b.map_or("no base frame was given".to_string(), |b| format!(
                        "the base frame has {} rows",
                        b.len()
                    ))
                ),
            })
        }
    };
    let frame = decode_frame(frame, base)?;
    if frame.date != meta.date {
        return Err(malformed("frame", "frame date disagrees with meta date"));
    }
    Ok(DayCheckpoint {
        day_index: meta.day_index,
        date: meta.date,
        net_clock_us: meta.net_clock_us,
        interner,
        frame,
    })
}

/// Parse segment bytes back into a day checkpoint and the fingerprint it
/// was written under, rebuilding the frame over `base` (the previous
/// day's frame) when the segment is scripted over one. Returns a typed
/// error for every corruption mode — truncation at any byte offset, any
/// flipped bit, foreign files, a base of the wrong length — and never
/// panics.
pub fn decode_segment(
    bytes: &[u8],
    base: Option<&SweepFrame>,
) -> Result<(DayCheckpoint, u64), CheckpointError> {
    let (meta, interner, frame) = open_segment(bytes)?;
    let day = finish_segment(&meta, decode_interner(interner)?, frame, base)?;
    Ok((day, meta.fingerprint))
}

// --- the checkpoint directory ------------------------------------------

/// One quarantined (or unreadable) segment, as reported by
/// [`Replay::quarantined`] and [`CheckpointDir::load`].
#[derive(Debug, Clone)]
pub struct QuarantinedSegment {
    /// The segment's original path.
    pub original: PathBuf,
    /// Where it was renamed to (`None` if even the rename failed).
    pub moved_to: Option<PathBuf>,
    /// Why it was quarantined.
    pub reason: String,
}

/// What a directory scan salvaged: the longest valid day prefix, plus a
/// report of everything set aside.
#[derive(Debug, Clone, Default)]
pub struct LoadOutcome {
    /// Valid day checkpoints, contiguous from day 0.
    pub days: Vec<DayCheckpoint>,
    /// Segments renamed aside (damaged, or downstream of damage).
    pub quarantined: Vec<QuarantinedSegment>,
}

/// A directory of day segments (`day-000000.ckpt`, `day-000001.ckpt`, …)
/// with atomic writes and quarantine-on-read.
#[derive(Debug)]
pub struct CheckpointDir {
    dir: PathBuf,
    /// The frame the next day's segment is scripted over, with its day
    /// index: the last frame written, or the last one a finished
    /// [`Replay`] over this directory yielded.
    base: Mutex<Option<(u32, SweepFrame)>>,
}

impl CheckpointDir {
    /// Open (creating if needed) a checkpoint directory, verifying it is
    /// writable by round-tripping a probe file — an unwritable path is a
    /// typed [`CheckpointError::Io`], reported before any sweeping
    /// starts rather than hours in.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointDir, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let probe = dir.join(".ruwhere-probe");
        std::fs::write(&probe, b"probe").map_err(|e| io_err(&probe, e))?;
        std::fs::remove_file(&probe).map_err(|e| io_err(&probe, e))?;
        Ok(CheckpointDir {
            dir,
            base: Mutex::new(None),
        })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The segment file path for a day index.
    pub fn segment_path(&self, day_index: u32) -> PathBuf {
        self.dir.join(format!("day-{day_index:06}.ckpt"))
    }

    /// Day indices of the segment files present, sorted; each file is at
    /// [`segment_path`](CheckpointDir::segment_path).
    fn segment_files(&self) -> Result<Vec<u32>, CheckpointError> {
        let mut files = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(idx) = name
                .strip_prefix("day-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .filter(|s| s.len() == 6)
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            files.push(idx);
        }
        files.sort_unstable();
        Ok(files)
    }

    /// Whether any day segment exists.
    pub fn has_segments(&self) -> Result<bool, CheckpointError> {
        Ok(!self.segment_files()?.is_empty())
    }

    /// Durably write one day segment: serialise, write to a temp file,
    /// fsync, rename into place. A crash at any point leaves either the
    /// previous state or the complete new segment — never a torn file
    /// under the segment name.
    ///
    /// The frame is scripted over the directory's base frame when `ck` is
    /// that frame's next day, and written as a keyframe otherwise; then
    /// `ck`'s frame becomes the base.
    pub fn write_day(&self, ck: &DayCheckpoint, fingerprint: u64) -> Result<(), CheckpointError> {
        let mut base = lock(&self.base);
        let path = self.segment_path(ck.day_index);
        let tmp = path.with_extension("ckpt.tmp");
        {
            let over = base
                .as_ref()
                .filter(|(day, _)| ck.day_index.checked_sub(1) == Some(*day))
                .map(|(_, frame)| frame);
            let bytes = encode_segment(ck, fingerprint, over);
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        // Drop the old base before copying the new one, so the writer
        // never holds two.
        *base = None;
        *base = Some((ck.day_index, ck.frame.clone()));
        Ok(())
    }

    /// Make the directory's entries durable: open the directory and
    /// `sync_all` it, so the names of the segments renamed into it survive
    /// a power loss. [`write_day`](CheckpointDir::write_day) syncs each
    /// segment's bytes but not the directory; call this once when a run's
    /// writes are done (see the module docs for the contract). A directory
    /// that cannot be opened or synced, such as one removed since
    /// [`open`](CheckpointDir::open), is a typed [`CheckpointError::Io`].
    pub fn sync(&self) -> Result<(), CheckpointError> {
        let dir = std::fs::File::open(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        dir.sync_all().map_err(|e| io_err(&self.dir, e))
    }

    /// Rename `path` aside to the first free `<name>.quarantined`,
    /// `<name>.1.quarantined`, `<name>.2.quarantined`, … — a day damaged
    /// on two resumes keeps both damaged copies.
    fn quarantine(&self, path: &Path, reason: String) -> QuarantinedSegment {
        let name = path.file_name().unwrap_or_default();
        let mut n = 0u32;
        let target = loop {
            let mut candidate = name.to_os_string();
            if n > 0 {
                candidate.push(format!(".{n}"));
            }
            candidate.push(".");
            candidate.push(QUARANTINE_SUFFIX);
            let candidate = path.with_file_name(candidate);
            if std::fs::symlink_metadata(&candidate).is_err() {
                break candidate;
            }
            n += 1;
        };
        let (moved_to, reason) = match std::fs::rename(path, &target) {
            Ok(()) => (Some(target), reason),
            Err(e) => (None, format!("{reason} (quarantine rename failed: {e})")),
        };
        QuarantinedSegment {
            original: path.to_path_buf(),
            moved_to,
            reason,
        }
    }

    /// Stream the longest valid day prefix, one segment per step.
    ///
    /// Each [`Iterator::next`] reads, decodes and validates the next
    /// segment in day order — magic, checksums, version, the day-index
    /// chain (0, 1, 2, … with strictly increasing dates), the
    /// interner-size chain (each delta's `base` must equal the previous
    /// delta's `post`) and the frame script against the previous day's
    /// frame — so a caller that drops each day before pulling the next
    /// holds two days at a time (the one it holds and the walk's base),
    /// however long the study. The first segment that fails — and every
    /// later one, which depends on its symbols and its frame — is renamed
    /// aside and reported in [`Replay::quarantined`], and the walk ends.
    /// A replay dropped before it ends leaves the segments it has not
    /// reached untouched. When the walk ends, the last frame it yielded
    /// becomes the base [`write_day`](CheckpointDir::write_day) scripts
    /// the next day over.
    ///
    /// A structurally valid segment carrying a different config
    /// fingerprint yields a hard [`CheckpointError::ConfigMismatch`] and
    /// ends the walk with nothing renamed: the caller pointed at the
    /// wrong directory, and silently re-measuring it would destroy
    /// someone else's checkpoints. A segment in another format version
    /// is a hard [`CheckpointError::BadVersion`] the same way: the chain
    /// is not damaged, this build just cannot read it. Listing the
    /// directory is the only work done before the first step.
    pub fn replay(&self, fingerprint: u64) -> Result<Replay<'_>, CheckpointError> {
        Ok(Replay {
            store: self,
            fingerprint,
            files: self.segment_files()?.into_iter(),
            chain: TableSizes::default(),
            base: None,
            ended: false,
            days: 0,
            quarantined: Vec::new(),
        })
    }

    /// Collect a whole [`replay`](CheckpointDir::replay): every valid day
    /// at once, plus the quarantine report. Holds the full study in
    /// memory; a resume streams the chain instead.
    pub fn load(&self, fingerprint: u64) -> Result<LoadOutcome, CheckpointError> {
        let mut replay = self.replay(fingerprint)?;
        let days = replay.by_ref().collect::<Result<Vec<_>, _>>()?;
        Ok(LoadOutcome {
            days,
            quarantined: replay.quarantined,
        })
    }
}

/// A streaming walk over a checkpoint directory's valid day prefix (see
/// [`CheckpointDir::replay`]). Yields `Ok(day)` per valid segment, in day
/// order; an `Err` is a hard [`CheckpointError::ConfigMismatch`] or
/// [`CheckpointError::BadVersion`]. Either a hard error or the first
/// damaged segment ends the walk.
#[derive(Debug)]
pub struct Replay<'a> {
    store: &'a CheckpointDir,
    fingerprint: u64,
    /// Day indices of the segments not reached yet.
    files: std::vec::IntoIter<u32>,
    /// The interner sizes the previous day ended at.
    chain: TableSizes,
    /// The previous day's frame, which the next segment's script runs
    /// over.
    base: Option<SweepFrame>,
    /// Whether the walk has ended.
    ended: bool,
    /// Days yielded so far — also the index the next segment must carry.
    days: u32,
    quarantined: Vec<QuarantinedSegment>,
}

impl Replay<'_> {
    /// Days yielded so far.
    pub fn days(&self) -> u32 {
        self.days
    }

    /// Segments set aside (damaged, or downstream of damage). Empty until
    /// the walk reaches a damaged segment.
    pub fn quarantined(&self) -> &[QuarantinedSegment] {
        &self.quarantined
    }

    /// Read and validate the segment at `path` against the chain so far:
    /// `Ok(Ok(day))` continues it, `Ok(Err(reason))` is damage to
    /// quarantine, `Err` is a hard error.
    fn read(
        &self,
        idx: u32,
        path: &Path,
    ) -> Result<Result<DayCheckpoint, String>, CheckpointError> {
        let expected = self.days;
        if idx != expected {
            return Ok(Err(format!("expected day {expected}, found day {idx}")));
        }
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => return Ok(Err(format!("unreadable: {e}"))),
        };
        let (meta, interner, frame) = match open_segment(&bytes) {
            Ok(opened) => opened,
            Err(e @ CheckpointError::BadVersion(_)) => return Err(e),
            Err(e) => return Ok(Err(e.to_string())),
        };
        if meta.fingerprint != self.fingerprint {
            return Err(CheckpointError::ConfigMismatch {
                expected: self.fingerprint,
                found: meta.fingerprint,
            });
        }
        let interner = match decode_interner(interner) {
            Ok(delta) => delta,
            Err(e) => return Ok(Err(e.to_string())),
        };
        // Keep only the frame section's bytes through the rebuild, which
        // holds two frames already.
        let frame = frame.to_vec();
        drop(bytes);
        let ck = match finish_segment(&meta, interner, &frame, self.base.as_ref()) {
            Ok(ck) => ck,
            Err(e) => return Ok(Err(e.to_string())),
        };
        Ok(if ck.day_index != idx {
            Err(format!(
                "file is day {idx} but segment says day {}",
                ck.day_index
            ))
        } else if ck.interner.base != self.chain {
            Err(format!(
                "interner chain: segment expects base ({}), \
                 previous segments end at ({})",
                ck.interner.base, self.chain
            ))
        } else if self.base.as_ref().is_some_and(|f| ck.date <= f.date) {
            Err("dates not strictly increasing".to_string())
        } else {
            Ok(ck)
        })
    }

    /// End the walk, once: the last frame yielded becomes the directory's
    /// base, which the next day written is scripted over.
    fn end(&mut self) {
        if !std::mem::replace(&mut self.ended, true) {
            let base = self.base.take().map(|frame| (self.days - 1, frame));
            *lock(&self.store.base) = base;
        }
    }
}

impl Iterator for Replay<'_> {
    type Item = Result<DayCheckpoint, CheckpointError>;

    fn next(&mut self) -> Option<Self::Item> {
        let Some(idx) = self.files.next() else {
            self.end();
            return None;
        };
        let path = self.store.segment_path(idx);
        let reason = match self.read(idx, &path) {
            Ok(Ok(ck)) => {
                self.chain = ck.interner.post;
                self.days += 1;
                // The next script runs over this frame. Drop the old base
                // before copying, so the walk never holds two.
                self.base = None;
                self.base = Some(ck.frame.clone());
                return Some(Ok(ck));
            }
            Ok(Err(reason)) => reason,
            Err(e) => {
                // A hard error ends the walk with the rest untouched.
                self.files = Vec::new().into_iter();
                self.base = None;
                self.ended = true;
                return Some(Err(e));
            }
        };
        // This segment is unusable; so is everything after it (their
        // interner deltas and frame scripts chain through it).
        self.quarantined.push(self.store.quarantine(&path, reason));
        for later in self.files.by_ref() {
            self.quarantined.push(self.store.quarantine(
                &self.store.segment_path(later),
                format!("follows quarantined segment (day {later})"),
            ));
        }
        self.end();
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBuilder;

    fn d(s: &str) -> DomainName {
        s.parse().expect("test domain")
    }

    fn sample_frame(date: Date, syms: &[u32]) -> SweepFrame {
        let mut b = FrameBuilder::new(date);
        for &s in syms {
            b.begin_record(Sym(s));
            b.push_ns_name(Sym(s + 100));
            b.push_ns_addr(
                Ipv4Addr::new(10, 0, 0, s as u8),
                CountrySym(0),
                Some(Asn(7)),
            );
            b.push_apex_addr(Ipv4Addr::new(10, 0, 1, s as u8), CountrySym::NONE, None);
            b.end_record();
        }
        b.finish(
            SweepStats {
                seeded: syms.len() as u64,
                queries: 42,
                ..SweepStats::default()
            },
            SweepMetrics::new(),
        )
    }

    fn sample_day(index: u32, base: TableSizes) -> DayCheckpoint {
        let date = Date::from_ymd(2022, 3, 1).add_days(index as i32);
        DayCheckpoint {
            day_index: index,
            date,
            net_clock_us: 1_000_000 * (index as u64 + 1),
            interner: InternerDelta {
                base,
                post: TableSizes {
                    names: base.names + 2,
                    tlds: base.tlds.max(2),
                    countries: base.countries + 1,
                },
                names: vec![d(&format!("a{index}.ru")), d(&format!("b{index}.com"))],
                countries: vec![Country::RU],
            },
            // Odd days swap record 1 for another domain.
            frame: sample_frame(date, &[0, 1 + 10 * (index % 2), 2]),
        }
    }

    #[test]
    fn segment_round_trips() {
        let ck = sample_day(3, TableSizes::default());
        let bytes = encode_segment(&ck, 0xDEAD_BEEF, None);
        let (back, fp) = decode_segment(&bytes, None).expect("round trip");
        assert_eq!(back, ck);
        assert_eq!(fp, 0xDEAD_BEEF);
    }

    #[test]
    fn truncation_is_typed_never_a_panic() {
        let bytes = encode_segment(&sample_day(0, TableSizes::default()), 1, None);
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut], None).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::BadMagic
                        | CheckpointError::BadChecksum { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn bit_corruption_is_detected() {
        let bytes = encode_segment(&sample_day(0, TableSizes::default()), 1, None);
        // Flip one bit in each region: magic, a length, a body, a CRC.
        for &pos in &[0usize, 9, 30, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_segment(&bad, None).is_err(),
                "flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn delta_replay_rebuilds_interner_exactly() {
        let original = Interner::new();
        original.intern_name(&d("seed.ru"));
        let base = TableSizes::of(&original);
        original.intern_name(&d("ns1.host.com"));
        original.intern_name(&d("other.xn--p1ai"));
        original.intern_country(Some(Country::SE));
        let delta = InternerDelta::capture(&original, base);

        let resumed = Interner::new();
        resumed.intern_name(&d("seed.ru"));
        delta.replay(&resumed).expect("replay");
        assert_eq!(resumed.dump(), original.dump());

        // Replaying against the wrong base is a typed chain error.
        let wrong = Interner::new();
        assert!(matches!(
            delta.replay(&wrong),
            Err(CheckpointError::ChainBroken { .. })
        ));
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ruwhere-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn write_chain(store: &CheckpointDir, days: u32, fp: u64) -> Vec<DayCheckpoint> {
        let mut base = TableSizes::default();
        let mut out = Vec::new();
        for i in 0..days {
            let ck = sample_day(i, base);
            base = ck.interner.post;
            store.write_day(&ck, fp).expect("write");
            out.push(ck);
        }
        out
    }

    #[test]
    fn directory_round_trips_a_chain() {
        let dir = tmp_dir("chain");
        let store = CheckpointDir::open(&dir).expect("open");
        let written = write_chain(&store, 3, 7);
        let loaded = store.load(7).expect("load");
        assert_eq!(loaded.days, written);
        assert!(loaded.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_tail_is_quarantined_and_prefix_salvaged() {
        let dir = tmp_dir("quarantine");
        let store = CheckpointDir::open(&dir).expect("open");
        let written = write_chain(&store, 4, 7);
        // Corrupt day 2 with a single flipped bit mid-file.
        let victim = store.segment_path(2);
        let mut bytes = std::fs::read(&victim).expect("read victim");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).expect("rewrite victim");

        let loaded = store.load(7).expect("load");
        assert_eq!(loaded.days, written[..2]);
        // Day 2 (damaged) and day 3 (depends on it) are both set aside.
        assert_eq!(loaded.quarantined.len(), 2);
        assert!(loaded.quarantined[0].reason.contains("checksum"));
        assert!(loaded.quarantined[1].reason.contains("follows"));
        for q in &loaded.quarantined {
            let moved = q.moved_to.as_ref().expect("renamed aside");
            assert!(moved.exists());
            assert!(!q.original.exists());
        }
        // A second load sees only the salvaged prefix, cleanly.
        let again = store.load(7).expect("reload");
        assert_eq!(again.days.len(), 2);
        assert!(again.quarantined.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_a_hard_error() {
        let dir = tmp_dir("fp");
        let store = CheckpointDir::open(&dir).expect("open");
        write_chain(&store, 1, 7);
        assert!(matches!(
            store.load(8),
            Err(CheckpointError::ConfigMismatch {
                expected: 8,
                found: 7
            })
        ));
        // The mismatching segment is NOT quarantined — it's not damaged.
        assert!(store.segment_path(0).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_is_a_typed_error() {
        // A path under a regular file can't be a directory.
        let dir = tmp_dir("unwritable");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").expect("write file");
        let err = CheckpointDir::open(file.join("sub")).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Io { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damage a segment in place: flip one bit mid-file.
    fn flip_mid_bit(path: &Path) {
        let mut bytes = std::fs::read(path).expect("read victim");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path, &bytes).expect("rewrite victim");
    }

    /// File names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .expect("list dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The days and quarantine report of a full replay walk.
    fn walk(store: &CheckpointDir, fp: u64) -> (Vec<DayCheckpoint>, Vec<QuarantinedSegment>) {
        let mut replay = store.replay(fp).expect("replay");
        let days = replay.by_ref().map(|d| d.expect("no hard error")).collect();
        assert!(replay.next().is_none(), "an ended replay stays ended");
        (days, replay.quarantined().to_vec())
    }

    #[test]
    fn replay_yields_what_load_returns() {
        for tag in ["clean", "tail", "gap"] {
            let mut outcomes = Vec::new();
            for reader in ["replay", "load"] {
                let dir = tmp_dir(&format!("replay-{tag}-{reader}"));
                let store = CheckpointDir::open(&dir).expect("open");
                let written = write_chain(&store, 5, 7);
                match tag {
                    "tail" => flip_mid_bit(&store.segment_path(3)),
                    "gap" => std::fs::remove_file(store.segment_path(2)).expect("remove day 2"),
                    _ => {}
                }
                let (days, quarantined) = if reader == "replay" {
                    walk(&store, 7)
                } else {
                    let out = store.load(7).expect("load");
                    (out.days, out.quarantined)
                };
                let reasons: Vec<String> = quarantined.iter().map(|q| q.reason.clone()).collect();
                for q in &quarantined {
                    assert!(q.moved_to.as_ref().is_some_and(|m| m.exists()));
                    assert!(!q.original.exists());
                }
                assert_eq!(days, written[..days.len()], "{tag}/{reader}");
                outcomes.push((days, reasons, listing(&dir)));
                let _ = std::fs::remove_dir_all(&dir);
            }
            assert_eq!(outcomes[0], outcomes[1], "{tag}: replay and load disagree");
            let (days, reasons, _) = &outcomes[0];
            match tag {
                "clean" => assert!(days.len() == 5 && reasons.is_empty()),
                "tail" => {
                    assert_eq!(days.len(), 3);
                    assert_eq!(reasons.len(), 2);
                    assert!(reasons[0].contains("checksum"), "{reasons:?}");
                    assert!(reasons[1].contains("follows"), "{reasons:?}");
                }
                _ => {
                    assert_eq!(days.len(), 2);
                    assert_eq!(reasons.len(), 2);
                    assert!(reasons[0].contains("expected day 2, found day 3"));
                    assert!(reasons[1].contains("follows"));
                }
            }
        }
    }

    #[test]
    fn replay_fingerprint_mismatch_renames_nothing() {
        let dir = tmp_dir("replay-fp");
        let store = CheckpointDir::open(&dir).expect("open");
        let written = write_chain(&store, 4, 7);
        // Day 2 comes from another study; day 3 is damaged.
        store.write_day(&written[2], 8).expect("foreign day");
        flip_mid_bit(&store.segment_path(3));
        let before = listing(&dir);

        // A mismatch on the first segment fails at once.
        let mut replay = store.replay(9).expect("replay");
        assert!(matches!(
            replay.next(),
            Some(Err(CheckpointError::ConfigMismatch {
                expected: 9,
                found: 7
            }))
        ));
        assert!(replay.next().is_none());
        assert!(replay.quarantined().is_empty());

        // Mid-chain, it ends the walk before the damaged day is reached.
        let mut replay = store.replay(7).expect("replay");
        assert_eq!(
            replay.next().map(Result::ok),
            Some(Some(written[0].clone()))
        );
        assert_eq!(
            replay.next().map(Result::ok),
            Some(Some(written[1].clone()))
        );
        assert!(matches!(
            replay.next(),
            Some(Err(CheckpointError::ConfigMismatch {
                expected: 7,
                found: 8
            }))
        ));
        assert!(replay.next().is_none());
        assert!(replay.quarantined().is_empty());
        assert_eq!(replay.days(), 2);
        assert_eq!(listing(&dir), before, "nothing renamed or written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_keeps_every_damaged_copy() {
        let dir = tmp_dir("requarantine");
        let store = CheckpointDir::open(&dir).expect("open");
        let written = write_chain(&store, 2, 7);
        let mut copies = Vec::new();
        for round in 0..3u8 {
            store.write_day(&written[1], 7).expect("rewrite day 1");
            let path = store.segment_path(1);
            let mut bytes = std::fs::read(&path).expect("read");
            bytes[20] ^= 1 << round;
            std::fs::write(&path, &bytes).expect("damage");
            copies.push(bytes);
            let out = store.load(7).expect("load");
            assert_eq!(out.days.len(), 1);
            assert_eq!(out.quarantined.len(), 1);
        }
        let names = ["", ".1", ".2"].map(|n| dir.join(format!("day-000001.ckpt{n}.quarantined")));
        for (name, bytes) in names.iter().zip(&copies) {
            assert_eq!(&std::fs::read(name).expect("quarantined copy"), bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame with one record per `(domain, apex octet)` pair.
    fn frame_of(date: Date, rows: &[(u32, u8)]) -> SweepFrame {
        let mut b = FrameBuilder::new(date);
        for &(s, apex) in rows {
            b.begin_record(Sym(s));
            b.push_ns_name(Sym(s + 100));
            b.push_ns_addr(
                Ipv4Addr::new(10, 0, 0, s as u8),
                CountrySym(0),
                Some(Asn(7)),
            );
            b.push_apex_addr(Ipv4Addr::new(10, 0, 1, apex), CountrySym::NONE, None);
            b.end_record();
        }
        b.finish(SweepStats::default(), SweepMetrics::new())
    }

    #[test]
    fn scripts_rebuild_any_frame_over_any_base() {
        let date = Date::from_ymd(2022, 3, 2);
        let base = frame_of(date.pred(), &[(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        // Row 1 changes, row 2 leaves, row 9 arrives, row 4 moves first.
        let next = frame_of(date, &[(4, 4), (0, 0), (1, 7), (3, 3), (9, 9)]);
        let mut ck = sample_day(1, TableSizes::default());
        ck.date = date;
        ck.frame = next;
        let ops = script(&ck.frame, Some(&base));
        assert_eq!(
            ops,
            [
                Op::Skip(4),
                Op::Copy(1),
                Op::Row(1),
                Op::Row(2),
                Op::Row(3),
                Op::Row(4)
            ]
        );
        for over in [None, Some(&base), Some(&ck.frame)] {
            let bytes = encode_segment(&ck, 5, over);
            let (back, _) = decode_segment(&bytes, over).expect("round trip");
            assert_eq!(back, ck);
        }
        // An unchanged frame is one copy.
        let same = encode_segment(&ck, 5, Some(&ck.frame));
        let key = encode_segment(&ck, 5, None);
        assert!(same.len() < key.len());
        assert_eq!(script(&ck.frame, Some(&ck.frame)), [Op::Copy(5)]);

        // A script needs a base of the recorded length.
        let bytes = encode_segment(&ck, 5, Some(&base));
        for wrong in [None, Some(&frame_of(date, &[(0, 0)]))] {
            let err = decode_segment(&bytes, wrong).expect_err("wrong base");
            assert!(matches!(err, CheckpointError::ChainBroken { .. }), "{err}");
        }
    }

    /// What a version-1 build wrote: the same magic and sections, a
    /// version-1 meta, every checksum valid.
    fn version_1_segment(day_index: u32) -> Vec<u8> {
        let mut out = SEGMENT_MAGIC.to_vec();
        push_section(&mut out, |b| {
            put_u32(b, 1);
            put_u64(b, 7);
            put_u32(b, day_index);
            put_i32(
                b,
                Date::from_ymd(2022, 3, 1).days_since_epoch() + day_index as i32,
            );
            put_u64(b, 1_000_000);
        });
        push_section(&mut out, |b| b.extend_from_slice(&[0; 32]));
        push_section(&mut out, |b| b.extend_from_slice(&[0; 64]));
        out
    }

    #[test]
    fn a_chain_in_another_version_is_a_hard_error() {
        let dir = tmp_dir("version");
        let store = CheckpointDir::open(&dir).expect("open");
        for day in 0..3 {
            std::fs::write(store.segment_path(day), version_1_segment(day)).expect("write");
        }
        assert!(matches!(
            decode_segment(&version_1_segment(0), None),
            Err(CheckpointError::BadVersion(1))
        ));
        let before = listing(&dir);
        for _ in 0..2 {
            let mut replay = store.replay(7).expect("replay");
            assert!(matches!(
                replay.next(),
                Some(Err(CheckpointError::BadVersion(1)))
            ));
            assert!(replay.next().is_none());
            assert!(replay.quarantined().is_empty());
            assert!(matches!(store.load(7), Err(CheckpointError::BadVersion(1))));
        }
        assert_eq!(listing(&dir), before, "nothing renamed or written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whether the segment at `path` is scripted over a base.
    fn has_base(path: &Path) -> bool {
        let bytes = std::fs::read(path).expect("read segment");
        let (meta, _, _) = open_segment(&bytes).expect("open segment");
        meta.base_rows.is_some()
    }

    #[test]
    fn sync_makes_names_durable_and_reports_a_missing_directory() {
        let dir = tmp_dir("sync");
        let store = CheckpointDir::open(&dir).expect("open");
        write_chain(&store, 3, 7);
        store.sync().expect("sync a written chain");
        std::fs::remove_dir_all(&dir).expect("remove");
        assert!(matches!(store.sync(), Err(CheckpointError::Io { .. })));
    }

    #[test]
    fn successors_are_scripted_and_anything_else_is_a_keyframe() {
        let dir = tmp_dir("keyframes");
        let store = CheckpointDir::open(&dir).expect("open");
        let written = write_chain(&store, 3, 7);
        let kinds: Vec<bool> = (0..3).map(|d| has_base(&store.segment_path(d))).collect();
        assert_eq!(kinds, [false, true, true]);
        // Rewriting day 1 after day 2 is out of order: a keyframe.
        store.write_day(&written[1], 7).expect("rewrite");
        assert!(!has_base(&store.segment_path(1)));
        // A fresh handle has no base until a replay over it ends.
        let fresh = CheckpointDir::open(&dir).expect("reopen");
        fresh.write_day(&written[2], 7).expect("rewrite");
        assert!(!has_base(&fresh.segment_path(2)));
        let (days, _) = walk(&fresh, 7);
        assert_eq!(days, written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resumed_writer_writes_the_uninterrupted_chain() {
        let full_dir = tmp_dir("resume-full");
        let full = CheckpointDir::open(&full_dir).expect("open");
        let written = write_chain(&full, 5, 7);
        for stop in 0..5 {
            let dir = tmp_dir(&format!("resume-{stop}"));
            let first = CheckpointDir::open(&dir).expect("open");
            for ck in &written[..stop] {
                first.write_day(ck, 7).expect("write");
            }
            drop(first);
            // A new process: replay what is there, then write the rest.
            let resumed = CheckpointDir::open(&dir).expect("reopen");
            let (days, _) = walk(&resumed, 7);
            assert_eq!(days.len(), stop);
            for ck in &written[stop..] {
                resumed.write_day(ck, 7).expect("write");
            }
            for day in 0..5 {
                let read = |s: &CheckpointDir| std::fs::read(s.segment_path(day)).expect("read");
                assert_eq!(read(&resumed), read(&full), "stop {stop}, day {day}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&full_dir);
    }

    /// The bytewise CRC-32 the slicing-by-8 [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn crc32_equals_bytewise_at_every_length_and_alignment() {
        let buf: Vec<u8> = (0..72u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_equals_bytewise_on_random_buffers(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }

    #[test]
    fn checksum_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
