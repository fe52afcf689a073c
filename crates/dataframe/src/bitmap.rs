//! Selection bitmaps: one bit per row, packed into `u64` words.
//!
//! The vectorized predicate evaluator ([`crate::PredExpr`]) produces and
//! combines these instead of `Vec<bool>` so `And`/`Or`/`Not` run 64 rows
//! per instruction, an all-dead word lets a leaf skip 64 rows without
//! touching column storage, and emptiness checks (`any`) short-circuit
//! whole subtrees.
//!
//! Invariant: bits at positions `>= len` are always zero, so word-wise
//! reductions (`count_ones`, `any`) need no trailing-bit masking.

use std::fmt;

/// A fixed-length bitmap over row positions.
#[derive(Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap[{}/{} set]", self.count_ones(), self.len)
    }
}

impl Bitmap {
    /// All-clear bitmap of `len` rows.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-set bitmap of `len` rows (trailing bits clear).
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Build from a row predicate.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Bitmap {
        let mut b = Bitmap::zeros(len);
        for i in 0..len {
            if f(i) {
                b.set(i);
            }
        }
        b
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`. Panics if out of bounds.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bitmap index {i} out of bounds");
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Read bit `i`. Panics if out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of bounds");
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `true` if every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Positions of the set bits, ascending.
    pub fn positions(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                bits &= bits - 1;
            }
        }
        out
    }

    /// `self |= other`. Panics on length mismatch.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other`. Panics on length mismatch.
    pub fn and_not_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// The packed words (LSB-first within each word), for word-at-a-time
    /// consumers like the evaluator's dead-word skip.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_counts() {
        let z = Bitmap::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        assert!(!z.any());
        let o = Bitmap::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all());
        // Trailing bits are clear.
        assert_eq!(o.words(), [u64::MAX, (1 << 6) - 1]);
    }

    #[test]
    fn set_get_ones() {
        let mut b = Bitmap::zeros(130);
        for i in [0, 63, 64, 129] {
            b.set(i);
        }
        assert!(b.get(63) && b.get(64) && !b.get(65));
        assert_eq!(b.positions(), vec![0, 63, 64, 129]);
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_fn(100, |i| i % 2 == 0);
        let b = Bitmap::from_fn(100, |i| i % 3 == 0);
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(
            or.count_ones(),
            (0..100).filter(|i| i % 2 == 0 || i % 3 == 0).count()
        );
        let mut diff = a.clone();
        diff.and_not_assign(&b);
        assert_eq!(
            diff.count_ones(),
            (0..100).filter(|i| i % 2 == 0 && i % 3 != 0).count()
        );
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::zeros(0);
        assert!(b.is_empty());
        assert!(!b.any());
        assert!(b.all()); // vacuously
        assert!(b.positions().is_empty());
    }
}
