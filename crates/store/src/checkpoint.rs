//! Durable on-disk study checkpoints: crash-safe day segments.
//!
//! A longitudinal study is a long fold over daily sweeps; a host crash
//! mid-study used to lose everything. This module gives the fold a
//! durable spine: after each sweep the runner writes one **day segment**
//! — a length-prefixed, CRC32-checksummed binary file carrying everything
//! needed to replay that day without re-measuring it:
//!
//! - the sweep's metrics-stripped [`SweepFrame`] (columns + stats),
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
//! ```
//!
//! Every failure mode of durable storage maps to a typed
//! [`CheckpointError`], never a panic: truncation (torn write, short
//! read) → [`CheckpointError::Truncated`], bit corruption →
//! [`CheckpointError::BadChecksum`], a foreign or stale file →
//! [`CheckpointError::BadMagic`] / [`CheckpointError::BadVersion`], a
//! directory from a differently-configured study →
//! [`CheckpointError::ConfigMismatch`].
//!
//! # Quarantine policy
//!
//! [`CheckpointDir::load`] walks segments in day order and keeps the
//! longest valid prefix. The first damaged segment — and every segment
//! after it, since interner deltas chain — is **quarantined**: renamed
//! aside to `<name>.quarantined` and reported in the
//! [`LoadOutcome`], so a resumed run re-measures from the last valid day
//! instead of panicking (or worse, trusting corrupt bytes). Writes are
//! atomic (temp file + fsync + rename), so a crash mid-write leaves a
//! stray `.tmp` the loader ignores, never a half-segment under the real
//! name.

use crate::frame::{AddrColumns, SweepFrame};
use crate::stats::{Completeness, SweepStats};
use crate::sym::{CountrySym, Interner, Sym};
use crate::SweepMetrics;
use ruwhere_types::{Asn, Country, Date, DomainName};
use std::fmt;
use std::io::Write as _;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Magic bytes opening every day segment ("RUW checkpoint, format 1").
pub const SEGMENT_MAGIC: &[u8; 8] = b"RUWCKPT1";

/// Current segment format version (stored in the meta section).
pub const SEGMENT_VERSION: u32 = 1;

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
    /// The segment declares a format version this build cannot read.
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

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time — the build carries no checksum dependency.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the per-section integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
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

fn push_section(out: &mut Vec<u8>, body: &[u8]) {
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
    put_u32(out, crc32(body));
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

fn encode_meta(ck: &DayCheckpoint, fingerprint: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(40);
    put_u32(&mut b, SEGMENT_VERSION);
    put_u64(&mut b, fingerprint);
    put_u32(&mut b, ck.day_index);
    put_i32(&mut b, ck.date.days_since_epoch());
    put_u64(&mut b, ck.net_clock_us);
    b
}

fn encode_interner(d: &InternerDelta) -> Vec<u8> {
    let mut b = Vec::new();
    for s in [d.base, d.post] {
        put_u32(&mut b, s.names);
        put_u32(&mut b, s.tlds);
        put_u32(&mut b, s.countries);
    }
    put_u32(&mut b, d.names.len() as u32);
    for n in &d.names {
        put_str(&mut b, n.as_ref());
    }
    put_u32(&mut b, d.countries.len() as u32);
    for c in &d.countries {
        put_str(&mut b, c.code());
    }
    b
}

fn encode_addrs(b: &mut Vec<u8>, cols: &AddrColumns) {
    put_u32(b, cols.ips.len() as u32);
    for i in 0..cols.ips.len() {
        put_u32(b, u32::from(cols.ips[i]));
        put_u32(b, cols.countries[i].0);
        put_u32(b, cols.asns[i].map(|a| a.0).unwrap_or(u32::MAX));
    }
}

fn encode_frame(f: &SweepFrame) -> Vec<u8> {
    let mut b = Vec::new();
    put_i32(&mut b, f.date.days_since_epoch());
    put_u32(&mut b, f.domains.len() as u32);
    for d in &f.domains {
        put_u32(&mut b, d.0);
    }
    for offsets in [&f.ns_name_offsets, &f.ns_addr_offsets, &f.apex_addr_offsets] {
        for &o in offsets.iter() {
            put_u32(&mut b, o);
        }
    }
    put_u32(&mut b, f.ns_names.len() as u32);
    for s in &f.ns_names {
        put_u32(&mut b, s.0);
    }
    encode_addrs(&mut b, &f.ns_addrs);
    encode_addrs(&mut b, &f.apex_addrs);
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
        put_u64(&mut b, v);
    }
    put_u8(
        &mut b,
        match st.completeness {
            Completeness::Full => 0,
            Completeness::Partial => 1,
        },
    );
    b
}

/// Serialise a day checkpoint to segment bytes.
pub fn encode_segment(ck: &DayCheckpoint, fingerprint: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(SEGMENT_MAGIC);
    push_section(&mut out, &encode_meta(ck, fingerprint));
    push_section(&mut out, &encode_interner(&ck.interner));
    push_section(&mut out, &encode_frame(&ck.frame));
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

fn decode_meta(body: &[u8]) -> Result<(u64, u32, Date, u64), CheckpointError> {
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
    if !r.done() {
        return Err(malformed("meta", "trailing bytes"));
    }
    Ok((fingerprint, day_index, date, net_clock_us))
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

fn decode_addrs(r: &mut Reader<'_>, body_len: usize) -> Result<AddrColumns, CheckpointError> {
    const S: &str = "frame";
    let map = |_| malformed(S, "short body");
    let len = r.u32().map_err(map)? as usize;
    let mut cols = AddrColumns::default();
    cols.ips.reserve(len.min(body_len / 12));
    for _ in 0..len {
        let ip = Ipv4Addr::from(r.u32().map_err(map)?);
        let country = CountrySym(r.u32().map_err(map)?);
        let asn = match r.u32().map_err(map)? {
            u32::MAX => None,
            v => Some(Asn(v)),
        };
        cols.ips.push(ip);
        cols.countries.push(country);
        cols.asns.push(asn);
    }
    Ok(cols)
}

fn check_offsets(offsets: &[u32], records: usize, len: usize) -> Result<(), CheckpointError> {
    const S: &str = "frame";
    if offsets.len() != records + 1 {
        return Err(malformed(S, "offset column length mismatch"));
    }
    if offsets.first() != Some(&0) || offsets.last().copied() != Some(len as u32) {
        return Err(malformed(S, "offset column endpoints mismatch"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed(S, "offsets not monotonic"));
    }
    Ok(())
}

fn decode_frame(body: &[u8]) -> Result<SweepFrame, CheckpointError> {
    const S: &str = "frame";
    let r = &mut Reader::new(body);
    let map = |_| malformed(S, "short body");
    let date = decode_date(r.i32().map_err(map)?, S)?;
    let n = r.u32().map_err(map)? as usize;
    let read_syms = |r: &mut Reader<'_>, count: usize| -> Result<Vec<Sym>, CheckpointError> {
        let mut v = Vec::with_capacity(count.min(body.len() / 4));
        for _ in 0..count {
            v.push(Sym(r.u32().map_err(map)?));
        }
        Ok(v)
    };
    let read_offsets = |r: &mut Reader<'_>| -> Result<Vec<u32>, CheckpointError> {
        let mut v = Vec::with_capacity((n + 1).min(body.len() / 4));
        for _ in 0..n + 1 {
            v.push(r.u32().map_err(map)?);
        }
        Ok(v)
    };
    let domains = read_syms(r, n)?;
    let ns_name_offsets = read_offsets(r)?;
    let ns_addr_offsets = read_offsets(r)?;
    let apex_addr_offsets = read_offsets(r)?;
    let n_ns_names = r.u32().map_err(map)? as usize;
    let ns_names = read_syms(r, n_ns_names)?;
    let ns_addrs = decode_addrs(r, body.len())?;
    let apex_addrs = decode_addrs(r, body.len())?;
    let mut stats = [0u64; 13];
    for v in &mut stats {
        *v = r.u64().map_err(map)?;
    }
    let completeness = match r.u8().map_err(map)? {
        0 => Completeness::Full,
        1 => Completeness::Partial,
        v => return Err(malformed(S, format!("bad completeness tag {v}"))),
    };
    if !r.done() {
        return Err(malformed(S, "trailing bytes"));
    }
    check_offsets(&ns_name_offsets, n, ns_names.len())?;
    check_offsets(&ns_addr_offsets, n, ns_addrs.ips.len())?;
    check_offsets(&apex_addr_offsets, n, apex_addrs.ips.len())?;
    Ok(SweepFrame {
        date,
        domains,
        ns_name_offsets,
        ns_names,
        ns_addr_offsets,
        ns_addrs,
        apex_addr_offsets,
        apex_addrs,
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
    })
}

/// Parse segment bytes back into a day checkpoint and the fingerprint it
/// was written under. Returns a typed error for every corruption mode —
/// truncation at any byte offset, any flipped bit, foreign files — and
/// never panics.
pub fn decode_segment(bytes: &[u8]) -> Result<(DayCheckpoint, u64), CheckpointError> {
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
    let (fingerprint, day_index, date, net_clock_us) = decode_meta(meta)?;
    let interner = decode_interner(interner)?;
    let frame = decode_frame(frame)?;
    if frame.date != date {
        return Err(malformed("frame", "frame date disagrees with meta date"));
    }
    Ok((
        DayCheckpoint {
            day_index,
            date,
            net_clock_us,
            interner,
            frame,
        },
        fingerprint,
    ))
}

// --- the checkpoint directory ------------------------------------------

/// One quarantined (or unreadable) segment, as reported by
/// [`CheckpointDir::load`].
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
/// with atomic writes and quarantine-on-load.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    dir: PathBuf,
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
        Ok(CheckpointDir { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The segment file path for a day index.
    pub fn segment_path(&self, day_index: u32) -> PathBuf {
        self.dir.join(format!("day-{day_index:06}.ckpt"))
    }

    /// Day-segment files present, sorted by day index.
    fn segment_files(&self) -> Result<Vec<(u32, PathBuf)>, CheckpointError> {
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
            files.push((idx, entry.path()));
        }
        files.sort_unstable_by_key(|(idx, _)| *idx);
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
    pub fn write_day(&self, ck: &DayCheckpoint, fingerprint: u64) -> Result<(), CheckpointError> {
        let bytes = encode_segment(ck, fingerprint);
        let path = self.segment_path(ck.day_index);
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            f.write_all(&bytes).map_err(|e| io_err(&tmp, e))?;
            f.sync_all().map_err(|e| io_err(&tmp, e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        Ok(())
    }

    fn quarantine(&self, path: &Path, reason: String, out: &mut Vec<QuarantinedSegment>) {
        let target = {
            let mut name = path.file_name().unwrap_or_default().to_os_string();
            name.push(".");
            name.push(QUARANTINE_SUFFIX);
            path.with_file_name(name)
        };
        let (moved_to, reason) = match std::fs::rename(path, &target) {
            Ok(()) => (Some(target), reason),
            Err(e) => (None, format!("{reason} (quarantine rename failed: {e})")),
        };
        out.push(QuarantinedSegment {
            original: path.to_path_buf(),
            moved_to,
            reason,
        });
    }

    /// Scan the directory and salvage the longest valid day prefix.
    ///
    /// Segments are validated in day order: magic, checksums, version,
    /// the day-index chain (0, 1, 2, … with strictly increasing dates)
    /// and the interner-size chain (each delta's `base` must equal the
    /// previous delta's `post`). The first segment that fails — and
    /// every later one, which depends on its symbols — is renamed aside
    /// and reported in [`LoadOutcome::quarantined`].
    ///
    /// A structurally valid segment carrying a different config
    /// fingerprint is a hard [`CheckpointError::ConfigMismatch`]: the
    /// caller pointed at the wrong directory, and silently re-measuring
    /// it would destroy someone else's checkpoints.
    pub fn load(&self, fingerprint: u64) -> Result<LoadOutcome, CheckpointError> {
        let files = self.segment_files()?;
        let mut outcome = LoadOutcome::default();
        let mut chain = TableSizes::default();
        let mut last_date: Option<Date> = None;
        let mut files = files.into_iter();
        for (idx, path) in files.by_ref() {
            let expected = outcome.days.len() as u32;
            let fail = |detail: String| detail;
            let reason: String = if idx != expected {
                fail(format!("expected day {expected}, found day {idx}"))
            } else {
                match std::fs::read(&path) {
                    Err(e) => fail(format!("unreadable: {e}")),
                    Ok(bytes) => match decode_segment(&bytes) {
                        Err(e) => fail(e.to_string()),
                        Ok((ck, found)) => {
                            if found != fingerprint {
                                return Err(CheckpointError::ConfigMismatch {
                                    expected: fingerprint,
                                    found,
                                });
                            }
                            if ck.day_index != idx {
                                fail(format!(
                                    "file is day {idx} but segment says day {}",
                                    ck.day_index
                                ))
                            } else if ck.interner.base != chain {
                                fail(format!(
                                    "interner chain: segment expects base ({}), \
                                     previous segments end at ({chain})",
                                    ck.interner.base
                                ))
                            } else if last_date.is_some_and(|d| ck.date <= d) {
                                fail("dates not strictly increasing".to_string())
                            } else {
                                chain = ck.interner.post;
                                last_date = Some(ck.date);
                                outcome.days.push(ck);
                                continue;
                            }
                        }
                    },
                }
            };
            // This segment is unusable; so is everything after it (their
            // interner deltas chain through it).
            self.quarantine(&path, reason, &mut outcome.quarantined);
            for (later_idx, later_path) in files.by_ref() {
                self.quarantine(
                    &later_path,
                    format!("follows quarantined segment (day {later_idx})"),
                    &mut outcome.quarantined,
                );
            }
            break;
        }
        Ok(outcome)
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
            frame: sample_frame(date, &[0, 1, 2]),
        }
    }

    #[test]
    fn segment_round_trips() {
        let ck = sample_day(3, TableSizes::default());
        let bytes = encode_segment(&ck, 0xDEAD_BEEF);
        let (back, fp) = decode_segment(&bytes).expect("round trip");
        assert_eq!(back, ck);
        assert_eq!(fp, 0xDEAD_BEEF);
    }

    #[test]
    fn truncation_is_typed_never_a_panic() {
        let bytes = encode_segment(&sample_day(0, TableSizes::default()), 1);
        for cut in 0..bytes.len() {
            let err = decode_segment(&bytes[..cut]).expect_err("truncated must fail");
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
        let bytes = encode_segment(&sample_day(0, TableSizes::default()), 1);
        // Flip one bit in each region: magic, a length, a body, a CRC.
        for &pos in &[0usize, 9, 30, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(
                decode_segment(&bad).is_err(),
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

    #[test]
    fn checksum_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
