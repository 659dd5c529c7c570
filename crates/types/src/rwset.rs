//! Record keys and read/write sets.
//!
//! The paper assumes "the read-set and write-set are pre-declared or can be
//! obtained from the transactions via a static analysis" (§III-A). A
//! [`RwSet`] carries both sets and answers the conflict predicates used to
//! build ordering dependencies.

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

/// The declared read set ρ(T) and write set ω(T) of a transaction.
///
/// Each set is a sorted, deduplicated key slice: the sets are one or two
/// keys long in every workload, iterated far more often than probed, and
/// their ascending order is what makes the wire encoding canonical.
/// Every constructor, wire decode included, goes through [`RwSet::new`],
/// which sorts and deduplicates whatever order the keys arrive in.
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
/// let transfer = RwSet::new([Key(1001)], [Key(1001), Key(1002)]);
/// let audit = RwSet::read_only([Key(1002)]);
/// assert!(transfer.conflicts_with(&audit)); // ω ∩ ρ ≠ ∅
/// assert!(!audit.conflicts_with(&audit)); // reads never conflict
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
fn key_set(set: &mut [Key]) -> usize {
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
        &self.keys[..self.split]
    }

    /// The write set ω(T), ascending and free of duplicates.
    pub fn writes(&self) -> &[Key] {
        &self.keys[self.split..]
    }

    /// Whether `key` is in the declared write set ω(T). Executors abort
    /// a commit that writes outside it: the dependency graph never
    /// ordered that write.
    #[must_use]
    pub fn declares_write(&self, key: Key) -> bool {
        self.writes().binary_search(&key).is_ok()
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

    /// Every key touched by the transaction (ρ ∪ ω), ascending and
    /// deduplicated.
    pub fn touched(&self) -> Vec<Key> {
        let mut keys = self.keys.to_vec();
        let distinct = key_set(&mut keys);
        keys.truncate(distinct);
        keys
    }

    /// §III-A conflict test: two transactions conflict if they access the
    /// same data and at least one access is a write. This is the symmetric
    /// predicate; direction comes from block order.
    #[must_use]
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        self.rw_conflict(other) || other.rw_conflict(self) || self.ww_conflict(other)
    }

    /// ρ(self) ∩ ω(other) ≠ ∅ — `other` overwrites something `self` reads.
    #[must_use]
    pub fn rw_conflict(&self, other: &RwSet) -> bool {
        intersects(self.reads(), other.writes())
    }

    /// ω(self) ∩ ω(other) ≠ ∅ — both write a common record.
    #[must_use]
    pub fn ww_conflict(&self, other: &RwSet) -> bool {
        intersects(self.writes(), other.writes())
    }

    /// ω(self) ∩ ρ(other) ≠ ∅ — `other` reads something `self` writes.
    ///
    /// In the multi-version adaptation of §III-A this is the *only* pair
    /// that forces an ordering dependency: a later read must observe the
    /// earlier write's version.
    #[must_use]
    pub fn wr_conflict(&self, other: &RwSet) -> bool {
        intersects(self.writes(), other.reads())
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
        assert!(t1.wr_conflict(&t4));
        assert!(t1.conflicts_with(&t4));
        assert!(t4.conflicts_with(&t1)); // symmetric predicate

        // Write-write conflict on d.
        let t5 = RwSet::write_only(keys(&[4]));
        let t2 = RwSet::write_only(keys(&[4]));
        assert!(t5.ww_conflict(&t2));
        assert!(t5.conflicts_with(&t2));

        // Read-read never conflicts.
        let r1 = RwSet::read_only(keys(&[9]));
        let r2 = RwSet::read_only(keys(&[9]));
        assert!(!r1.conflicts_with(&r2));
    }

    #[test]
    fn disjoint_sets_do_not_conflict() {
        let a = RwSet::new(keys(&[1, 2]), keys(&[3]));
        let b = RwSet::new(keys(&[4]), keys(&[5, 6]));
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn touched_is_union() {
        let s = RwSet::new(keys(&[1, 2]), keys(&[2, 3]));
        assert_eq!(s.touched(), keys(&[1, 2, 3]));
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
        assert!(s.declares_write(Key(8)));
        assert!(!s.declares_write(Key(7)), "a read is not a declared write");
    }

    #[test]
    fn from_iterator_is_read_only() {
        let s: RwSet = keys(&[1, 2, 3]).into_iter().collect();
        assert_eq!(s.reads().len(), 3);
        assert!(s.writes().is_empty());
    }
}
