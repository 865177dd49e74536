//! Deterministic symbol interning.
//!
//! Every table in the study — composition counts, TLD shares, movement
//! maps — used to key on owned [`DomainName`] / [`Country`] values,
//! re-hashing the same strings once per analysis per record. The interner
//! collapses each distinct value to a dense `u32` symbol assigned exactly
//! once, so analyses compare and index integers.
//!
//! # Determinism rules
//!
//! Symbol numbering is part of the sweep engine's byte-identity contract
//! (DESIGN.md §10). Two rules keep it independent of the worker count:
//!
//! 1. **Seeds first, in zone-snapshot order.** The scanner interns the
//!    day's full seed list *serially, before any worker starts*, so domain
//!    symbols are a pure function of the zone snapshot — salvage drops and
//!    shard boundaries cannot reorder them.
//! 2. **Discovered names in merged-record order.** NS host names (and
//!    countries) first seen during a sweep are interned in the
//!    *post-merge* frame-build pass, which walks records in zone-snapshot
//!    order — never from inside a worker.
//!
//! Workers therefore only ever *read* the interner; [`Interner::dump`]
//! exists so tests can compare entire symbol tables byte-for-byte across
//! worker counts.

use ruwhere_types::sync::{read, write};
use ruwhere_types::{Country, DomainName, FastMap};
use std::fmt::Write;
use std::sync::RwLock;

/// Symbol for an interned name (seed domain or name-server host — one
/// shared namespace, since NS hosts are domains too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol as a dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Symbol for an interned TLD string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TldSym(pub u32);

impl TldSym {
    /// The symbol as a dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Symbol for an interned country, with a reserved sentinel for "no
/// geolocation answer" so address columns stay dense `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountrySym(pub u32);

impl CountrySym {
    /// The "no country" sentinel ([`Interner::intern_country`] of `None`).
    pub const NONE: CountrySym = CountrySym(u32::MAX);

    /// Whether this is the no-country sentinel.
    pub const fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

#[derive(Debug, Default)]
struct Inner {
    names: Vec<DomainName>,
    name_ids: FastMap<DomainName, u32>,
    /// TLD of each interned name, parallel to `names`.
    name_tlds: Vec<TldSym>,
    tlds: Vec<String>,
    tld_ids: FastMap<String, u32>,
    /// Whether each TLD is a Russian ccTLD (`ru` / `xn--p1ai`), parallel
    /// to `tlds` — precomputed so per-record classification is a bit load.
    tld_russian: Vec<bool>,
    countries: Vec<Country>,
    country_ids: FastMap<Country, u32>,
}

impl Inner {
    fn intern_name(&mut self, name: &DomainName) -> Sym {
        if let Some(&id) = self.name_ids.get(name) {
            return Sym(id);
        }
        let tld = self.intern_tld(name.tld());
        let id = self.names.len() as u32;
        self.names.push(name.clone());
        self.name_tlds.push(tld);
        self.name_ids.insert(name.clone(), id);
        Sym(id)
    }

    fn intern_tld(&mut self, tld: &str) -> TldSym {
        if let Some(&id) = self.tld_ids.get(tld) {
            return TldSym(id);
        }
        let id = self.tlds.len() as u32;
        self.tlds.push(tld.to_owned());
        self.tld_russian.push(tld == "ru" || tld == "xn--p1ai");
        self.tld_ids.insert(tld.to_owned(), id);
        TldSym(id)
    }

    fn intern_country(&mut self, country: Option<Country>) -> CountrySym {
        let Some(c) = country else {
            return CountrySym::NONE;
        };
        if let Some(&id) = self.country_ids.get(&c) {
            return CountrySym(id);
        }
        let id = self.countries.len() as u32;
        self.countries.push(c);
        self.country_ids.insert(c, id);
        CountrySym(id)
    }
}

/// The symbol table. One instance spans a whole study: symbols are
/// append-only and never re-numbered, so a symbol interned on day one
/// still names the same value on day five hundred.
///
/// Interning takes a write lock; reads go through a cheap [`snapshot`]
/// guard. Workers share the interner read-only (see the module docs for
/// the determinism rules).
///
/// [`snapshot`]: Interner::snapshot
#[derive(Debug, Default)]
pub struct Interner {
    inner: RwLock<Inner>,
}

impl Interner {
    /// An empty symbol table.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern a name (seed domain or NS host), returning its stable
    /// symbol. Idempotent; also interns the name's TLD.
    pub fn intern_name(&self, name: &DomainName) -> Sym {
        write(&self.inner).intern_name(name)
    }

    /// Look a name up without interning (`None` if never interned).
    pub fn name_sym(&self, name: &DomainName) -> Option<Sym> {
        read(&self.inner).name_ids.get(name).copied().map(Sym)
    }

    /// The name behind a symbol (an `Arc` bump, not a string copy).
    ///
    /// # Panics
    /// If the symbol was not produced by this interner.
    pub fn name(&self, sym: Sym) -> DomainName {
        read(&self.inner).names[sym.index()].clone()
    }

    /// Intern a geolocation answer; `None` maps to [`CountrySym::NONE`].
    pub fn intern_country(&self, country: Option<Country>) -> CountrySym {
        write(&self.inner).intern_country(country)
    }

    /// The country behind a symbol (`None` for the sentinel).
    pub fn country(&self, sym: CountrySym) -> Option<Country> {
        if sym.is_none() {
            return None;
        }
        Some(read(&self.inner).countries[sym.0 as usize])
    }

    /// Number of interned names.
    pub fn names_len(&self) -> usize {
        read(&self.inner).names.len()
    }

    /// Number of interned TLDs.
    pub fn tlds_len(&self) -> usize {
        read(&self.inner).tlds.len()
    }

    /// Number of interned countries (sentinel excluded).
    pub fn countries_len(&self) -> usize {
        read(&self.inner).countries.len()
    }

    /// The interned names from table index `start` on, in symbol order —
    /// the name half of a checkpoint delta (`Arc` bumps, not copies).
    pub fn names_from(&self, start: usize) -> Vec<DomainName> {
        read(&self.inner).names[start..].to_vec()
    }

    /// The interned countries from table index `start` on, in symbol
    /// order — the country half of a checkpoint delta.
    pub fn countries_from(&self, start: usize) -> Vec<Country> {
        read(&self.inner).countries[start..].to_vec()
    }

    /// A read guard with borrowing accessors — take one per frame walk
    /// instead of re-locking per record.
    pub fn snapshot(&self) -> InternerSnap<'_> {
        InternerSnap {
            inner: read(&self.inner),
        }
    }

    /// A write guard with the interning operations — take one per pass
    /// (a sweep's seed pass, its frame build) instead of re-locking per
    /// name or country. Symbols come out exactly as from the one-call
    /// methods, in call order.
    pub fn writer(&self) -> InternerWriter<'_> {
        InternerWriter {
            inner: write(&self.inner),
        }
    }

    /// Canonical text listing of every symbol table, one entry per line in
    /// symbol order. Two interners fed the same sequence produce identical
    /// dumps — the byte-identity oracle the determinism tests compare.
    pub fn dump(&self) -> String {
        let inner = read(&self.inner);
        let mut out = String::new();
        out.push_str("names:\n");
        for (i, n) in inner.names.iter().enumerate() {
            let _ = writeln!(out, "{i} {n} tld={}", inner.name_tlds[i].0);
        }
        out.push_str("tlds:\n");
        for (i, t) in inner.tlds.iter().enumerate() {
            let ru = if inner.tld_russian[i] {
                " ru-cctld"
            } else {
                ""
            };
            let _ = writeln!(out, "{i} {t}{ru}");
        }
        out.push_str("countries:\n");
        for (i, c) in inner.countries.iter().enumerate() {
            let _ = writeln!(out, "{i} {}", c.code());
        }
        out
    }
}

impl Clone for Interner {
    fn clone(&self) -> Interner {
        let src = read(&self.inner);
        Interner {
            inner: RwLock::new(Inner {
                names: src.names.clone(),
                name_ids: src.name_ids.clone(),
                name_tlds: src.name_tlds.clone(),
                tlds: src.tlds.clone(),
                tld_ids: src.tld_ids.clone(),
                tld_russian: src.tld_russian.clone(),
                countries: src.countries.clone(),
                country_ids: src.country_ids.clone(),
            }),
        }
    }
}

/// A write guard over the symbol tables, from [`Interner::writer`].
pub struct InternerWriter<'a> {
    inner: std::sync::RwLockWriteGuard<'a, Inner>,
}

impl InternerWriter<'_> {
    /// [`Interner::intern_name`] under the held lock.
    pub fn intern_name(&mut self, name: &DomainName) -> Sym {
        self.inner.intern_name(name)
    }

    /// [`Interner::intern_country`] under the held lock.
    pub fn intern_country(&mut self, country: Option<Country>) -> CountrySym {
        self.inner.intern_country(country)
    }
}

/// A read snapshot of the symbol tables: borrow-returning accessors over
/// one lock acquisition. All lookups panic on symbols the interner never
/// produced (a cross-interner mixup is a logic error, not data).
pub struct InternerSnap<'a> {
    inner: std::sync::RwLockReadGuard<'a, Inner>,
}

impl InternerSnap<'_> {
    /// The name behind a symbol.
    pub fn name(&self, sym: Sym) -> &DomainName {
        &self.inner.names[sym.index()]
    }

    /// Look a name up without interning (`None` if never interned).
    pub fn name_sym(&self, name: &DomainName) -> Option<Sym> {
        self.inner.name_ids.get(name).copied().map(Sym)
    }

    /// The TLD symbol of an interned name.
    pub fn tld_of(&self, sym: Sym) -> TldSym {
        self.inner.name_tlds[sym.index()]
    }

    /// The TLD string behind a TLD symbol.
    pub fn tld(&self, sym: TldSym) -> &str {
        &self.inner.tlds[sym.index()]
    }

    /// Whether the TLD is a Russian ccTLD (`ru` / `xn--p1ai`).
    pub fn tld_is_russian(&self, sym: TldSym) -> bool {
        self.inner.tld_russian[sym.index()]
    }

    /// The country behind a symbol (`None` for the sentinel).
    pub fn country(&self, sym: CountrySym) -> Option<Country> {
        if sym.is_none() {
            return None;
        }
        Some(self.inner.countries[sym.0 as usize])
    }

    /// Whether the symbol names Russia (the sentinel is not Russia).
    pub fn country_is_russia(&self, sym: CountrySym) -> bool {
        self.country(sym).is_some_and(|c| c.is_russia())
    }

    /// Number of interned names.
    pub fn names_len(&self) -> usize {
        self.inner.names.len()
    }
}

/// A dense bitset over [`Sym`]s — the O(1)-membership companion to the
/// interner for per-frame scratch state (seen-sets, filters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymSet {
    bits: Vec<u64>,
    len: usize,
}

impl SymSet {
    /// An empty set.
    pub fn new() -> SymSet {
        SymSet::default()
    }

    /// Insert a symbol; returns `true` if it was newly inserted.
    pub fn insert(&mut self, sym: Sym) -> bool {
        let (word, bit) = (sym.index() / 64, sym.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.len += 1;
        true
    }

    /// Whether the symbol is in the set.
    pub fn contains(&self, sym: Sym) -> bool {
        let (word, bit) = (sym.index() / 64, sym.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Number of symbols in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every symbol (capacity retained).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().expect("test domain")
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let i = Interner::new();
        let a = i.intern_name(&d("alpha.ru"));
        let b = i.intern_name(&d("beta.com"));
        assert_eq!(a, Sym(0));
        assert_eq!(b, Sym(1));
        assert_eq!(i.intern_name(&d("alpha.ru")), a);
        assert_eq!(i.names_len(), 2);
        assert_eq!(i.name(a), d("alpha.ru"));
        assert_eq!(i.name_sym(&d("beta.com")), Some(b));
        assert_eq!(i.name_sym(&d("gamma.su")), None);
    }

    #[test]
    fn a_held_writer_numbers_like_one_call_per_name() {
        let names = [d("alpha.ru"), d("beta.com"), d("alpha.ru"), d("gamma.su")];
        let countries = [
            Some(Country::RU),
            None,
            Some(Country::US),
            Some(Country::RU),
        ];
        let one_by_one = Interner::new();
        let held = Interner::new();
        let mut w = held.writer();
        for (n, &c) in names.iter().zip(&countries) {
            assert_eq!(w.intern_name(n), one_by_one.intern_name(n));
            assert_eq!(w.intern_country(c), one_by_one.intern_country(c));
        }
        drop(w);
        assert_eq!(held.dump(), one_by_one.dump());
    }

    #[test]
    fn tlds_are_shared_and_classified() {
        let i = Interner::new();
        let a = i.intern_name(&d("alpha.ru"));
        let b = i.intern_name(&d("beta.ru"));
        let c = i.intern_name(&d("gamma.xn--p1ai"));
        let e = i.intern_name(&d("delta.com"));
        let snap = i.snapshot();
        assert_eq!(snap.tld_of(a), snap.tld_of(b));
        assert!(snap.tld_is_russian(snap.tld_of(a)));
        assert!(snap.tld_is_russian(snap.tld_of(c)));
        assert!(!snap.tld_is_russian(snap.tld_of(e)));
        assert_eq!(snap.tld(snap.tld_of(e)), "com");
    }

    #[test]
    fn countries_round_trip_with_sentinel() {
        let i = Interner::new();
        let ru = i.intern_country(Some(Country::RU));
        let none = i.intern_country(None);
        assert_eq!(none, CountrySym::NONE);
        assert_eq!(i.country(ru), Some(Country::RU));
        assert_eq!(i.country(none), None);
        let snap = i.snapshot();
        assert!(snap.country_is_russia(ru));
        assert!(!snap.country_is_russia(none));
    }

    #[test]
    fn dump_is_sequence_deterministic() {
        let build = || {
            let i = Interner::new();
            i.intern_name(&d("alpha.ru"));
            i.intern_name(&d("beta.com"));
            i.intern_country(Some(Country::SE));
            i.intern_country(None);
            i
        };
        assert_eq!(build().dump(), build().dump());
        // A different interleaving numbers differently — the dump sees it.
        let other = Interner::new();
        other.intern_name(&d("beta.com"));
        other.intern_name(&d("alpha.ru"));
        assert_ne!(build().dump(), other.dump());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Symbol assignment is a pure function of the interning
        /// SEQUENCE: replaying any sequence of name/country interns
        /// yields the same symbols, the same dense id space and a
        /// byte-identical dump — and every symbol resolves back to the
        /// value it was assigned for.
        #[test]
        fn symbols_are_a_pure_function_of_the_sequence(
            labels in proptest::collection::vec((0u8..12, 0u8..4), 1..40),
            // 6 is the "no country" sentinel (maps to `None` below).
            countries in proptest::collection::vec(0u8..7, 0..20),
        ) {
            let tlds = ["ru", "com", "net", "xn--p1ai"];
            let cs = [Country::RU, Country::US, Country::DE,
                      Country::SE, Country::NL, Country::FR];
            let names: Vec<DomainName> = labels
                .iter()
                .map(|(n, t)| d(&format!("d{n}.{}", tlds[*t as usize % 4])))
                .collect();
            let run = || {
                let i = Interner::new();
                let syms: Vec<Sym> =
                    names.iter().map(|n| i.intern_name(n)).collect();
                let csyms: Vec<CountrySym> = countries
                    .iter()
                    .map(|&c| i.intern_country(cs.get(c as usize).copied()))
                    .collect();
                (i, syms, csyms)
            };
            let (ia, sa, ca) = run();
            let (ib, sb, cb) = run();
            proptest::prop_assert_eq!(&sa, &sb);
            proptest::prop_assert_eq!(&ca, &cb);
            proptest::prop_assert_eq!(ia.dump(), ib.dump());
            // Dense: ids cover 0..names_len with no gaps.
            let mut seen: Vec<u32> = sa.iter().map(|s| s.0).collect();
            seen.sort_unstable();
            seen.dedup();
            proptest::prop_assert_eq!(seen.len(), ia.names_len());
            proptest::prop_assert_eq!(
                seen.last().map(|&m| m as usize + 1).unwrap_or(0),
                ia.names_len()
            );
            // Every symbol resolves back to its source value.
            for (name, sym) in names.iter().zip(&sa) {
                proptest::prop_assert_eq!(&ia.name(*sym), name);
            }
            for (&country, sym) in countries.iter().zip(&ca) {
                proptest::prop_assert_eq!(
                    ia.country(*sym),
                    cs.get(country as usize).copied()
                );
            }
        }
    }

    #[test]
    fn symset_inserts_and_grows() {
        let mut s = SymSet::new();
        assert!(s.insert(Sym(3)));
        assert!(!s.insert(Sym(3)));
        assert!(s.insert(Sym(200)));
        assert!(s.contains(Sym(3)));
        assert!(s.contains(Sym(200)));
        assert!(!s.contains(Sym(4)));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(Sym(3)));
    }
}
