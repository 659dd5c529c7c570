//! Record keys and read/write sets.
//!
//! The paper assumes "the read-set and write-set are pre-declared or can be
//! obtained from the transactions via a static analysis" (§III-A). A
//! [`RwSet`] is the owned builder contracts return; an [`RwRef`] borrows
//! both sets, from an `RwSet` or from a transaction's block table, and
//! answers the conflict predicates used to build ordering dependencies.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Primary key of a record in the blockchain state (datastore).
///
/// The paper's example application keys accounts by number (e.g. account
/// `1001`), so a `u64` key space suffices and keeps set operations cheap.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Key(pub u64);

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl From<u64> for Key {
    fn from(raw: u64) -> Self {
        Key(raw)
    }
}

/// The declared read set ρ(T) and write set ω(T) of a transaction, owned:
/// what contracts return and [`Transaction::new`](crate::Transaction::new)
/// takes.
///
/// Each set is a sorted, deduplicated key slice: the sets are one or two
/// keys long in every workload, iterated far more often than probed, and
/// their ascending order is what makes the wire encoding canonical.
/// Every constructor goes through [`RwSet::new`], which sorts and
/// deduplicates whatever order the keys arrive in; a wire decode
/// normalises each key list with the same routine.
///
/// Both sets share one exact-size allocation: ρ(T), then ω(T), split
/// at an index. A set built from iterators that know their length (an
/// array, a `Vec`, a wire decode) costs one allocation, where two
/// vectors cost two.
///
/// # Examples
///
/// ```
/// use parblock_types::{Key, RwSet};
///
/// let mut transfer = RwSet::read_only([Key(1002), Key(1001)]);
/// transfer.add_write(Key(1001));
/// assert_eq!(transfer.reads(), &[Key(1001), Key(1002)]);
/// assert_eq!(transfer.writes(), &[Key(1001)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct RwSet {
    /// ρ(T) then ω(T), each ascending and free of duplicates.
    keys: Box<[Key]>,
    /// Where ω(T) starts in `keys`.
    split: usize,
}

/// The one normalising path: sorts `set` and moves its distinct keys to
/// the front, in ascending order. Returns how many there are.
pub(crate) fn key_set(set: &mut [Key]) -> usize {
    set.sort_unstable();
    let mut kept = 0;
    for i in 0..set.len() {
        if kept == 0 || set[kept - 1] != set[i] {
            set[kept] = set[i];
            kept += 1;
        }
    }
    kept
}

impl RwSet {
    /// Creates a read/write set from iterators of keys, in any order and
    /// with any repetition.
    pub fn new<R, W>(reads: R, writes: W) -> Self
    where
        R: IntoIterator<Item = Key>,
        W: IntoIterator<Item = Key>,
    {
        let (reads, writes) = (reads.into_iter(), writes.into_iter());
        // Sized once from both lower bounds: exact for every iterator
        // that knows its length, so `extend` never reallocates, and the
        // boxing below only when duplicates were dropped.
        let mut keys = Vec::with_capacity(reads.size_hint().0 + writes.size_hint().0);
        keys.extend(reads);
        let split = keys.len();
        keys.extend(writes);
        let (read_set, write_set) = keys.split_at_mut(split);
        let (n_reads, n_writes) = (key_set(read_set), key_set(write_set));
        keys.copy_within(split..split + n_writes, n_reads);
        keys.truncate(n_reads + n_writes);
        RwSet {
            keys: keys.into_boxed_slice(),
            split: n_reads,
        }
    }

    /// A read-only set (ω = ∅).
    pub fn read_only<R: IntoIterator<Item = Key>>(reads: R) -> Self {
        Self::new(reads, [])
    }

    /// A write-only set (ρ = ∅).
    pub fn write_only<W: IntoIterator<Item = Key>>(writes: W) -> Self {
        Self::new([], writes)
    }

    /// The read set ρ(T), ascending and free of duplicates.
    pub fn reads(&self) -> &[Key] {
        self.view().reads()
    }

    /// The write set ω(T), ascending and free of duplicates.
    pub fn writes(&self) -> &[Key] {
        self.view().writes()
    }

    /// Adds a key to the read set.
    pub fn add_read(&mut self, key: Key) {
        if let Err(at) = self.reads().binary_search(&key) {
            self.insert_at(at, key);
            self.split += 1;
        }
    }

    /// Adds a key to the write set.
    pub fn add_write(&mut self, key: Key) {
        if let Err(at) = self.writes().binary_search(&key) {
            self.insert_at(self.split + at, key);
        }
    }

    /// Rebuilds `keys` at its new exact size with `key` at `at`.
    fn insert_at(&mut self, at: usize, key: Key) {
        let mut keys = Vec::with_capacity(self.keys.len() + 1);
        keys.extend_from_slice(&self.keys[..at]);
        keys.push(key);
        keys.extend_from_slice(&self.keys[at..]);
        self.keys = keys.into_boxed_slice();
    }

    /// Returns `true` when both sets are empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The borrowed view the conflict predicates are defined on.
    #[must_use]
    pub fn view(&self) -> RwRef<'_> {
        RwRef {
            reads: &self.keys[..self.split],
            writes: &self.keys[self.split..],
        }
    }

    /// Both sets as one slice, ρ(T) then ω(T), and where ω(T) starts.
    pub(crate) fn into_parts(self) -> (Box<[Key]>, usize) {
        (self.keys, self.split)
    }
}

/// Shown as the two sets.
impl fmt::Debug for RwSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwSet")
            .field("reads", &self.reads())
            .field("writes", &self.writes())
            .finish()
    }
}

impl From<RwRef<'_>> for RwSet {
    /// An owned copy of a view; its sets are already normalised.
    fn from(view: RwRef<'_>) -> Self {
        RwSet {
            keys: [view.reads, view.writes].concat().into_boxed_slice(),
            split: view.reads.len(),
        }
    }
}

/// A borrowed read/write set: the read set ρ(T) and write set ω(T) of a
/// [`Transaction`](crate::Transaction) in its block's table, or of an
/// [`RwSet`]. Both slices are ascending and free of duplicates. The
/// §III-A conflict predicates are defined here, once.
///
/// # Examples
///
/// ```
/// use parblock_types::{Key, RwSet};
///
/// let transfer = RwSet::new([Key(1001)], [Key(1001), Key(1002)]);
/// let audit = RwSet::read_only([Key(1002)]);
/// assert!(transfer.view().conflicts_with(audit.view())); // ω ∩ ρ ≠ ∅
/// assert!(!audit.view().conflicts_with(audit.view())); // reads never conflict
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RwRef<'a> {
    reads: &'a [Key],
    writes: &'a [Key],
}

impl<'a> RwRef<'a> {
    /// A view of two sets that are each ascending and free of duplicates.
    pub(crate) fn new(reads: &'a [Key], writes: &'a [Key]) -> Self {
        RwRef { reads, writes }
    }

    /// The read set ρ(T), ascending and free of duplicates.
    #[must_use]
    pub fn reads(self) -> &'a [Key] {
        self.reads
    }

    /// The write set ω(T), ascending and free of duplicates.
    #[must_use]
    pub fn writes(self) -> &'a [Key] {
        self.writes
    }

    /// Whether `key` is in the declared write set ω(T). Executors abort
    /// a commit that writes outside it: the dependency graph never
    /// ordered that write.
    #[must_use]
    pub fn declares_write(self, key: Key) -> bool {
        self.writes.binary_search(&key).is_ok()
    }

    /// Every key touched by the transaction (ρ ∪ ω), ascending and
    /// deduplicated.
    #[must_use]
    pub fn touched(self) -> Vec<Key> {
        let mut keys = [self.reads, self.writes].concat();
        let distinct = key_set(&mut keys);
        keys.truncate(distinct);
        keys
    }

    /// §III-A conflict test: two transactions conflict if they access the
    /// same data and at least one access is a write. This is the symmetric
    /// predicate; direction comes from block order.
    #[must_use]
    pub fn conflicts_with(self, other: RwRef<'_>) -> bool {
        self.rw_conflict(other) || other.rw_conflict(self) || self.ww_conflict(other)
    }

    /// ρ(self) ∩ ω(other) ≠ ∅ — `other` overwrites something `self` reads.
    #[must_use]
    pub fn rw_conflict(self, other: RwRef<'_>) -> bool {
        intersects(self.reads, other.writes)
    }

    /// ω(self) ∩ ω(other) ≠ ∅ — both write a common record.
    #[must_use]
    pub fn ww_conflict(self, other: RwRef<'_>) -> bool {
        intersects(self.writes, other.writes)
    }

    /// ω(self) ∩ ρ(other) ≠ ∅ — `other` reads something `self` writes.
    ///
    /// In the multi-version adaptation of §III-A this is the *only* pair
    /// that forces an ordering dependency: a later read must observe the
    /// earlier write's version.
    #[must_use]
    pub fn wr_conflict(self, other: RwRef<'_>) -> bool {
        intersects(self.writes, other.reads)
    }
}

fn intersects(a: &[Key], b: &[Key]) -> bool {
    // Iterate the smaller set and probe the larger: O(min·log max).
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|k| large.binary_search(k).is_ok())
}

impl FromIterator<Key> for RwSet {
    /// Collecting plain keys produces a read-only set; writes must be added
    /// explicitly.
    fn from_iter<I: IntoIterator<Item = Key>>(iter: I) -> Self {
        RwSet::read_only(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(raw: &[u64]) -> Vec<Key> {
        raw.iter().copied().map(Key).collect()
    }

    #[test]
    fn conflict_rules_match_paper_definition() {
        // T1 reads {a}, writes {b}; T4 reads {b}: ω(T1) ∩ ρ(T4) ≠ ∅.
        let t1 = RwSet::new(keys(&[1]), keys(&[2]));
        let t4 = RwSet::read_only(keys(&[2]));
        assert!(t1.view().wr_conflict(t4.view()));
        assert!(t1.view().conflicts_with(t4.view()));
        assert!(t4.view().conflicts_with(t1.view())); // symmetric predicate

        // Write-write conflict on d.
        let t5 = RwSet::write_only(keys(&[4]));
        let t2 = RwSet::write_only(keys(&[4]));
        assert!(t5.view().ww_conflict(t2.view()));
        assert!(t5.view().conflicts_with(t2.view()));

        // Read-read never conflicts.
        let r1 = RwSet::read_only(keys(&[9]));
        let r2 = RwSet::read_only(keys(&[9]));
        assert!(!r1.view().conflicts_with(r2.view()));
    }

    #[test]
    fn disjoint_sets_do_not_conflict() {
        let a = RwSet::new(keys(&[1, 2]), keys(&[3]));
        let b = RwSet::new(keys(&[4]), keys(&[5, 6]));
        assert!(!a.view().conflicts_with(b.view()));
    }

    #[test]
    fn touched_is_union() {
        let s = RwSet::new(keys(&[1, 2]), keys(&[2, 3]));
        assert_eq!(s.view().touched(), keys(&[1, 2, 3]));
    }

    #[test]
    fn builders_and_mutators() {
        let mut s = RwSet::default();
        assert!(s.is_empty());
        s.add_read(Key(7));
        s.add_write(Key(8));
        assert!(!s.is_empty());
        assert!(s.reads().contains(&Key(7)));
        assert!(s.writes().contains(&Key(8)));
        assert!(s.view().declares_write(Key(8)));
        assert!(
            !s.view().declares_write(Key(7)),
            "a read is not a declared write"
        );
    }

    #[test]
    fn an_owned_copy_of_a_view_is_the_same_set() {
        let s = RwSet::new(keys(&[3, 1]), keys(&[2, 2]));
        assert_eq!(RwSet::from(s.view()), s);
    }

    #[test]
    fn from_iterator_is_read_only() {
        let s: RwSet = keys(&[1, 2, 3]).into_iter().collect();
        assert_eq!(s.reads().len(), 3);
        assert!(s.writes().is_empty());
    }
}
