//! Longest-match queries against a suffix array.
//!
//! `Refine` from Figure 1 of the paper ([`Matcher::longest_match`], the
//! oracle and ablation) narrows an interval with two binary searches per
//! matched byte. [`Matcher::longest_match_indexed`] bisects the
//! [`PrefixIndex`] interval once for the whole pattern, each probe comparing
//! 8 bytes at a time from the lcp both bounds share with it (Manber & Myers);
//! the match length is the larger lcp of the insertion point's neighbours.
//! Its `pos` is `Refine`'s, the suffix-array-leftmost suffix sharing `len`
//! bytes: if that lies left of the insertion point, where lcp grows with
//! rank, a second bisection finds it.

use crate::{PrefixIndex, SuffixArray};
use std::iter::zip;

/// A borrowing view that answers longest-match queries over `text` using its
/// suffix array.
#[derive(Debug, Clone, Copy)]
pub struct Matcher<'a> {
    text: &'a [u8],
    sa: &'a [u32],
}

impl<'a> Matcher<'a> {
    /// Creates a matcher. `sa` must be the suffix array of `text`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    pub fn new(text: &'a [u8], sa: &'a SuffixArray) -> Self {
        assert_eq!(
            text.len(),
            sa.len(),
            "suffix array does not match text length"
        );
        Matcher {
            text,
            sa: sa.as_slice(),
        }
    }

    /// The indexed text.
    #[inline]
    pub fn text(&self) -> &'a [u8] {
        self.text
    }

    /// Character of the suffix starting at `suffix`, `depth` positions in;
    /// `-1` when the suffix is shorter than `depth` (end-of-suffix sorts
    /// before every real byte).
    #[inline]
    fn char_at(&self, suffix: u32, depth: usize) -> i32 {
        match self.text.get(suffix as usize + depth) {
            Some(&b) => b as i32,
            None => -1,
        }
    }

    /// `Refine` from Figure 1: narrows the inclusive interval `[lb, rb]` of
    /// suffixes whose first `depth` characters already match the pattern so
    /// that they also match character `c` at offset `depth`.
    ///
    /// Returns the narrowed interval, or `None` when no suffix in the
    /// interval continues with `c` (the paper's "-1 / -1" outcome in
    /// Table 1).
    pub fn refine(&self, lb: usize, rb: usize, depth: usize, c: u8) -> Option<(usize, usize)> {
        debug_assert!(lb <= rb && rb < self.sa.len());
        let target = c as i32;
        // Lower bound: first index whose character at `depth` is >= c.
        let mut lo = lb;
        let mut hi = rb + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.char_at(self.sa[mid], depth) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let new_lb = lo;
        if new_lb > rb || self.char_at(self.sa[new_lb], depth) != target {
            return None;
        }
        // Upper bound: first index whose character at `depth` is > c.
        let mut hi = rb + 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.char_at(self.sa[mid], depth) <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some((new_lb, lo - 1))
    }

    /// Variant of [`Matcher::refine`] that uses galloping (exponential)
    /// search from the interval edges instead of plain binary search.
    ///
    /// This is an ablation of the paper's design: when intervals shrink
    /// quickly, probing near the boundary first can beat bisection.
    pub fn refine_galloping(
        &self,
        lb: usize,
        rb: usize,
        depth: usize,
        c: u8,
    ) -> Option<(usize, usize)> {
        debug_assert!(lb <= rb && rb < self.sa.len());
        let target = c as i32;
        // Gallop for the lower bound from lb upward.
        let mut step = 1usize;
        let mut lo = lb;
        let hi = rb + 1;
        while lo < hi && self.char_at(self.sa[lo], depth) < target {
            let next = (lo + step).min(hi);
            if next == hi || self.char_at(self.sa[next.min(rb)], depth) >= target {
                // Bisect within (lo, next].
                let mut l = lo + 1;
                let mut h = next;
                while l < h {
                    let mid = l + (h - l) / 2;
                    if self.char_at(self.sa[mid], depth) < target {
                        l = mid + 1;
                    } else {
                        h = mid;
                    }
                }
                lo = l;
                break;
            }
            lo = next;
            step *= 2;
        }
        let new_lb = lo;
        if new_lb > rb || self.char_at(self.sa[new_lb], depth) != target {
            return None;
        }
        // Gallop for the upper bound from rb downward.
        let mut step = 1usize;
        let mut hi = rb;
        loop {
            if self.char_at(self.sa[hi], depth) <= target {
                break;
            }
            let next = hi.saturating_sub(step).max(new_lb);
            if self.char_at(self.sa[next], depth) <= target {
                // Bisect within [next, hi): first index > target.
                let mut l = next;
                let mut h = hi;
                while l < h {
                    let mid = l + (h - l) / 2;
                    if self.char_at(self.sa[mid], depth) <= target {
                        l = mid + 1;
                    } else {
                        h = mid;
                    }
                }
                hi = l - 1;
                break;
            }
            hi = next;
            step *= 2;
        }
        Some((new_lb, hi))
    }

    /// Longest prefix of `pattern` occurring anywhere in the indexed text.
    ///
    /// Returns `(position, length)`; `length == 0` means not even
    /// `pattern[0]` occurs in the text (the factorizer then emits a literal).
    pub fn longest_match(&self, pattern: &[u8]) -> (u32, u32) {
        self.longest_match_impl(pattern, false)
    }

    /// [`Matcher::longest_match`] using the galloping `Refine` variant.
    pub fn longest_match_galloping(&self, pattern: &[u8]) -> (u32, u32) {
        self.longest_match_impl(pattern, true)
    }

    /// [`Matcher::longest_match`] by one search inside the interval that
    /// `index`, built over this text, gives (see the module docs).
    pub fn longest_match_indexed(&self, index: &PrefixIndex, pattern: &[u8]) -> (u32, u32) {
        debug_assert_eq!(index.text_len(), self.text.len(), "index of another text");
        let Some((lb, rb, depth)) = index.lookup(pattern) else {
            return (0, 0);
        };
        // `lcp(s, k)`: lcp of the pattern and suffix `s`, known to be >= `k`.
        // Bisect [lb, rb + 1] for the insertion point `lo`. `l_lo`, `l_hi`:
        // lcps of ranks lo - 1 and hi (`depth` outside [lb, rb]). `floor`:
        // one past the last less-than probe with lcp below the final `l_lo`.
        let lcp = |s: u32, k: usize| k + common_prefix(&self.text[s as usize + k..], &pattern[k..]);
        let (mut lo, mut hi, mut l_lo, mut l_hi) = (lb, rb + 1, depth, depth);
        let (mut floor, mut l_floor) = (lb, depth);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let l = lcp(self.sa[mid], l_lo.min(l_hi));
            let next = self.text.get(self.sa[mid] as usize + l);
            if l < pattern.len() && next.is_none_or(|&b| b < pattern[l]) {
                if l > l_lo {
                    (floor, l_floor) = (lo, l_lo);
                }
                (lo, l_lo) = (mid + 1, l);
            } else {
                (hi, l_hi) = (mid, l);
            }
        }
        if lo == lb || (lo <= rb && l_hi > l_lo) {
            return (self.sa[lo], l_hi as u32);
        }
        // The left neighbour matches longest: find the first rank reaching it.
        let first = floor + self.sa[floor..lo].partition_point(|&s| lcp(s, l_floor) < l_lo);
        (self.sa[first], l_lo as u32)
    }

    #[inline]
    fn longest_match_impl(&self, pattern: &[u8], gallop: bool) -> (u32, u32) {
        if self.sa.is_empty() || pattern.is_empty() {
            return (0, 0);
        }
        let (mut lb, mut rb, mut depth) = (0, self.sa.len() - 1, 0);
        while depth < pattern.len() {
            if lb == rb {
                // Single candidate left: extend by direct comparison, the
                // short-circuit in the paper's Factor().
                let rest = &self.text[self.sa[lb] as usize + depth..];
                let pairs = zip(rest, &pattern[depth..]);
                depth += pairs.take_while(|(a, b)| a == b).count();
                break;
            }
            let narrowed = if gallop {
                self.refine_galloping(lb, rb, depth, pattern[depth])
            } else {
                self.refine(lb, rb, depth, pattern[depth])
            };
            let Some((l, r)) = narrowed else { break };
            (lb, rb, depth) = (l, r, depth + 1);
        }
        (if depth == 0 { 0 } else { self.sa[lb] }, depth as u32)
    }
}

/// Length of the common prefix of `a` and `b`, compared 8 bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
    let mut n = 0;
    for (x, y) in zip(a.chunks_exact(8), b.chunks_exact(8)) {
        match word(x) ^ word(y) {
            0 => n += 8,
            diff => return n + diff.trailing_zeros() as usize / 8,
        }
    }
    let tail = zip(&a[n..], &b[n..]);
    n + tail.take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher_for(text: &[u8]) -> (SuffixArray, Vec<u8>) {
        (SuffixArray::build(text), text.to_vec())
    }

    #[test]
    fn paper_table1_refine_sequence() {
        // Table 1: searching x = bbaancabb in d = cabbaabba. The paper's
        // printed bounds are (5,8) -> (7,8) -> (8,8) -> (8,8) (1-based); the
        // third step there already drops the suffix "bba", which still
        // matches the 3-char prefix "bba" — our Refine keeps it until the
        // 4th character rules it out. Both derivations produce the same
        // factor, (3,4) 1-based = position 2, length 4 0-based: the string
        // "bbaa".
        let d = b"cabbaabba";
        let sa = SuffixArray::build(d);
        let m = Matcher::new(d, &sa);

        let (lb, rb) = m.refine(0, 8, 0, b'b').unwrap();
        assert_eq!((lb, rb), (4, 7)); // ba, baabba, bba, bbaabba
        let (lb, rb) = m.refine(lb, rb, 1, b'b').unwrap();
        assert_eq!((lb, rb), (6, 7)); // bba, bbaabba
        let (lb, rb) = m.refine(lb, rb, 2, b'a').unwrap();
        assert_eq!((lb, rb), (6, 7)); // both still match "bba"
        let (lb, rb) = m.refine(lb, rb, 3, b'a').unwrap();
        assert_eq!((lb, rb), (7, 7)); // only "bbaabba" continues with 'a'
        assert_eq!(m.refine(lb, rb, 4, b'n'), None);
        assert_eq!(m.longest_match(b"bbaancabb"), (2, 4));
        assert_eq!(&d[2..6], b"bbaa");
    }

    #[test]
    fn longest_match_whole_pattern() {
        let d = b"the quick brown fox";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        let (pos, len) = m.longest_match(b"quick");
        assert_eq!(len, 5);
        assert_eq!(&d[pos as usize..pos as usize + 5], b"quick");
    }

    #[test]
    fn longest_match_absent_char() {
        let d = b"aaabbb";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        assert_eq!(m.longest_match(b"zzz"), (0, 0));
    }

    #[test]
    fn longest_match_empty_pattern() {
        let d = b"abc";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        assert_eq!(m.longest_match(b""), (0, 0));
    }

    #[test]
    fn longest_match_on_empty_text() {
        let sa = SuffixArray::build(b"");
        let m = Matcher::new(b"", &sa);
        assert_eq!(m.longest_match(b"abc"), (0, 0));
    }

    #[test]
    fn match_can_run_to_end_of_text() {
        let d = b"abcde";
        let (sa, text) = matcher_for(d);
        let m = Matcher::new(&text, &sa);
        // "cde" is a suffix of the text; the match must not read past it.
        assert_eq!(m.longest_match(b"cdefgh"), (2, 3));
    }

    /// Reference longest-match by brute force.
    fn brute_longest(text: &[u8], pattern: &[u8]) -> u32 {
        let mut best = 0u32;
        for start in 0..text.len() {
            let len = text[start..]
                .iter()
                .zip(pattern)
                .take_while(|(a, b)| a == b)
                .count() as u32;
            best = best.max(len);
        }
        best
    }

    #[test]
    fn agrees_with_brute_force() {
        let text = b"abracadabra arbor cadaver abracadabra";
        let (sa, owned) = matcher_for(text);
        let m = Matcher::new(&owned, &sa);
        let patterns: &[&[u8]] = &[
            b"abra",
            b"cadaver!",
            b"xyz",
            b"a",
            b"abracadabra abracadabra",
            b" arbor",
            b"r",
            b"ra arb",
        ];
        for p in patterns {
            let (pos, len) = m.longest_match(p);
            let (gpos, glen) = m.longest_match_galloping(p);
            assert_eq!(len, brute_longest(text, p), "pattern {:?}", p);
            assert_eq!(glen, len, "galloping length for {:?}", p);
            if len > 0 {
                assert_eq!(
                    &text[pos as usize..pos as usize + len as usize],
                    &p[..len as usize]
                );
                assert_eq!(
                    &text[gpos as usize..gpos as usize + glen as usize],
                    &p[..glen as usize]
                );
            }
        }
    }

    #[test]
    fn indexed_matches_plain_on_all_paths() {
        // Covers: jump to depth q, fallback to depth 1 (absent q-gram),
        // singleton short-circuit, absent first byte, pattern shorter
        // than q, and match running to end of text.
        let texts: &[&[u8]] = &[
            b"cabbaabba",
            b"abracadabra arbor cadaver abracadabra",
            b"aaaaaaa",
            b"x",
            b"",
        ];
        let patterns: &[&[u8]] = &[
            b"bbaancabb",
            b"abra",
            b"a",
            b"b",
            b"zz",
            b"az",
            b"aaaaaaaaaa",
            b"cadaver!",
            b"",
            b"ra arb",
        ];
        for text in texts {
            let sa = SuffixArray::build(text);
            let m = Matcher::new(text, &sa);
            for q in 1..=3usize {
                let idx = PrefixIndex::build(text, &sa, q);
                for p in patterns {
                    assert_eq!(
                        m.longest_match_indexed(&idx, p),
                        m.longest_match(p),
                        "text {:?} pattern {:?} q {}",
                        text,
                        p,
                        q
                    );
                }
            }
        }
    }

    #[test]
    fn galloping_refine_matches_plain_refine() {
        // Refine requires that [lb, rb] already matches the pattern up to
        // `depth`, so walk both variants through valid narrowing sequences.
        let text = b"mississippi river missions misses the mark";
        let sa = SuffixArray::build(text);
        let m = Matcher::new(text, &sa);
        let n = text.len();
        let patterns: &[&[u8]] = &[b"miss", b"issi", b"s th", b"river", b"zq", b"  ", b"mark!"];
        for p in patterns {
            let (mut lb, mut rb) = (0usize, n - 1);
            for (depth, &c) in p.iter().enumerate() {
                let plain = m.refine(lb, rb, depth, c);
                let gallop = m.refine_galloping(lb, rb, depth, c);
                assert_eq!(plain, gallop, "pattern {:?} depth {}", p, depth);
                match plain {
                    Some((l, r)) => {
                        lb = l;
                        rb = r;
                    }
                    None => break,
                }
            }
        }
    }
}
