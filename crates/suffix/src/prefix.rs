//! A q-gram prefix-interval index over a suffix array.
//!
//! Every longest-match query would otherwise start at the full interval
//! `[0, m-1]`, and its first comparisons bisect the widest, most
//! cache-cold stretch of the suffix array. [`PrefixIndex`] removes them. It
//! precomputes, for every q-gram, the suffix-array interval of the suffixes
//! starting with that q-gram: the exact interval `Refine` would reach after
//! `q` steps. [`crate::Matcher::longest_match_indexed`] then runs its single
//! lcp-skipping search inside that interval, knowing every suffix there
//! already shares `q` bytes with the pattern and every suffix sharing more
//! lies inside. A 256-entry first-byte table serves as fallback for
//! patterns shorter than `q` and for patterns whose leading q-gram does not
//! occur in the text (the longest match, if any, is then shorter than `q`,
//! and the search runs over the depth-1 interval instead).
//!
//! Memory cost: `σ^q + σ` interval entries of 8 bytes, i.e. 2 KiB for
//! `q = 1`, 512 KiB for the default `q = 2`, and 128 MiB for `q = 3` —
//! independent of the text size. Construction is a single `O(m)` sweep of
//! the suffix array.

use crate::SuffixArray;

/// Largest supported q (the table has `256^q` entries; `q = 3` already
/// costs 128 MiB).
pub const MAX_Q: usize = 3;

/// Sentinel lower bound marking an absent q-gram.
const EMPTY: u32 = u32::MAX;

/// An inclusive suffix-array interval, `lb == EMPTY` when no suffix starts
/// with the gram.
#[derive(Debug, Clone, Copy)]
struct Interval {
    lb: u32,
    rb: u32,
}

const NO_SUFFIX: Interval = Interval { lb: EMPTY, rb: 0 };

/// Maps the first `q` bytes of a pattern to the suffix-array interval of
/// suffixes sharing that prefix, letting longest-match queries skip the
/// widest part of their search.
///
/// Build once per indexed text and share freely: lookups take `&self` and
/// the index is immutable, `Send` and `Sync`.
#[derive(Clone)]
pub struct PrefixIndex {
    q: usize,
    /// Length of the text the index was built over (sanity binding to the
    /// matcher it is used with).
    text_len: usize,
    /// `256^q` intervals, keyed by the big-endian integer value of the
    /// q-gram. Empty (capacity 0) when `q == 1`: `first` already is the
    /// 1-gram table.
    table: Vec<Interval>,
    /// 256 first-byte intervals — the depth-1 fallback.
    first: Vec<Interval>,
}

impl PrefixIndex {
    /// Builds the index for `text` whose suffix array is `sa`.
    ///
    /// # Panics
    ///
    /// Panics if `sa` was not built over a text of `text.len()` bytes or if
    /// `q` is outside `1..=MAX_Q`.
    pub fn build(text: &[u8], sa: &SuffixArray, q: usize) -> Self {
        assert!(
            (1..=MAX_Q).contains(&q),
            "prefix index q must be in 1..={MAX_Q}, got {q}"
        );
        assert_eq!(
            text.len(),
            sa.len(),
            "suffix array does not match text length"
        );
        let mut first = vec![NO_SUFFIX; 256];
        let mut table = if q >= 2 {
            vec![NO_SUFFIX; 1usize << (8 * q)]
        } else {
            Vec::new()
        };
        // The suffix array is sorted, so all suffixes sharing a prefix are
        // contiguous: one forward sweep records each gram's first and last
        // rank. Suffixes shorter than the gram are excluded, exactly as
        // `Refine` excludes them (end-of-suffix never matches a byte).
        for (rank, &s) in sa.as_slice().iter().enumerate() {
            let suffix = &text[s as usize..];
            let Some(&b0) = suffix.first() else { continue };
            grow(&mut first[b0 as usize], rank as u32);
            if q >= 2 && suffix.len() >= q {
                let key = suffix[..q].iter().fold(0usize, |k, &b| k << 8 | b as usize);
                grow(&mut table[key], rank as u32);
            }
        }
        PrefixIndex {
            q,
            text_len: text.len(),
            table,
            first,
        }
    }

    /// The configured q-gram length.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Length of the text this index was built over.
    #[inline]
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Heap footprint of the interval tables in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.table.capacity() + self.first.capacity()) * std::mem::size_of::<Interval>()
    }

    /// Starting state for a longest-match query on `pattern`: an inclusive
    /// suffix-array interval `(lb, rb)` whose suffixes all share
    /// `pattern[..depth]`, and that `depth`.
    ///
    /// `None` means not even `pattern[0]` occurs in the text (or the
    /// pattern is empty): the longest match has length 0.
    #[inline]
    pub fn lookup(&self, pattern: &[u8]) -> Option<(usize, usize, usize)> {
        let &b0 = pattern.first()?;
        if self.q >= 2 && pattern.len() >= self.q {
            let key = pattern[..self.q]
                .iter()
                .fold(0usize, |k, &b| k << 8 | b as usize);
            let iv = self.table[key];
            if iv.lb != EMPTY {
                return Some((iv.lb as usize, iv.rb as usize, self.q));
            }
            // The leading q-gram is absent: any match is shorter than q.
            // Search the first-byte interval instead.
        }
        let iv = self.first[b0 as usize];
        (iv.lb != EMPTY).then_some((iv.lb as usize, iv.rb as usize, 1))
    }
}

// The derived impl would dump all 256^q interval entries; summarize
// instead (a Dictionary embeds this and derives Debug itself).
impl std::fmt::Debug for PrefixIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixIndex")
            .field("q", &self.q)
            .field("text_len", &self.text_len)
            .field("heap_bytes", &self.heap_bytes())
            .finish_non_exhaustive()
    }
}

#[inline]
fn grow(iv: &mut Interval, rank: u32) {
    if iv.lb == EMPTY {
        iv.lb = rank;
    }
    iv.rb = rank;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matcher;

    fn index_for(text: &[u8], q: usize) -> (SuffixArray, PrefixIndex) {
        let sa = SuffixArray::build(text);
        let idx = PrefixIndex::build(text, &sa, q);
        (sa, idx)
    }

    #[test]
    fn intervals_match_refine_on_paper_dictionary() {
        // d = cabbaabba, SA = [8,4,5,1,7,3,6,2,0] (Table 1 of the paper).
        let d = b"cabbaabba";
        let (sa, idx) = index_for(d, 2);
        let m = Matcher::new(d, &sa);
        for a in 0u8..=255 {
            for b in 0u8..=255 {
                let expect = m
                    .refine(0, d.len() - 1, 0, a)
                    .and_then(|(lb, rb)| m.refine(lb, rb, 1, b));
                let got = match idx.lookup(&[a, b]) {
                    Some((lb, rb, 2)) => Some((lb, rb)),
                    Some((_, _, _)) | None => None,
                };
                assert_eq!(got, expect, "gram {:?}", [a as char, b as char]);
            }
        }
    }

    #[test]
    fn first_byte_fallback_for_short_patterns() {
        let d = b"cabbaabba";
        let (sa, idx) = index_for(d, 2);
        let m = Matcher::new(d, &sa);
        for a in 0u8..=255 {
            let expect = m.refine(0, d.len() - 1, 0, a);
            let got = idx.lookup(&[a]).map(|(lb, rb, depth)| {
                assert_eq!(depth, 1);
                (lb, rb)
            });
            assert_eq!(got, expect, "byte {a}");
        }
    }

    #[test]
    fn absent_gram_falls_back_to_first_byte() {
        // "bz" never occurs but 'b' does: lookup must return the 'b'
        // interval at depth 1, not None.
        let d = b"cabbaabba";
        let (_, idx) = index_for(d, 2);
        let (lb, rb, depth) = idx.lookup(b"bz").unwrap();
        assert_eq!(depth, 1);
        assert_eq!((lb, rb), (4, 7)); // ba, baabba, bba, bbaabba
        assert_eq!(idx.lookup(b"zz"), None);
        assert_eq!(idx.lookup(b""), None);
    }

    #[test]
    fn q1_uses_only_the_first_byte_table() {
        let d = b"mississippi";
        let (_, idx) = index_for(d, 1);
        assert_eq!(idx.heap_bytes(), 256 * std::mem::size_of::<Interval>());
        let (lb, rb, depth) = idx.lookup(b"issi").unwrap();
        assert_eq!(depth, 1);
        assert!(lb <= rb);
    }

    #[test]
    fn empty_text_has_no_intervals() {
        let (_, idx) = index_for(b"", 2);
        assert_eq!(idx.lookup(b"a"), None);
        assert_eq!(idx.lookup(b"ab"), None);
    }

    #[test]
    fn suffixes_shorter_than_q_are_excluded() {
        // Text "ba": suffix "a" (rank 0) must not appear in any 2-gram
        // interval, only in the first-byte table.
        let d = b"ba";
        let (_, idx) = index_for(d, 2);
        assert_eq!(idx.lookup(b"ba").map(|t| t.2), Some(2));
        // Pattern "ab": 2-gram "ab" absent, falls back to 'a' at depth 1.
        let (lb, rb, depth) = idx.lookup(b"ab").unwrap();
        assert_eq!((lb, rb, depth), (0, 0, 1));
    }

    #[test]
    #[should_panic]
    fn rejects_q_zero() {
        let sa = SuffixArray::build(b"abc");
        let _ = PrefixIndex::build(b"abc", &sa, 0);
    }

    #[test]
    #[should_panic]
    fn rejects_oversized_q() {
        let sa = SuffixArray::build(b"abc");
        let _ = PrefixIndex::build(b"abc", &sa, MAX_Q + 1);
    }
}
