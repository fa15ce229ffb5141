//! Property tests: SA-IS agrees with the naive construction, and the matcher
//! finds true longest matches.

use proptest::prelude::*;
use rlz_suffix::{naive, Matcher, PrefixIndex, SuffixArray};

fn brute_longest(text: &[u8], pattern: &[u8]) -> u32 {
    (0..text.len())
        .map(|s| {
            text[s..]
                .iter()
                .zip(pattern)
                .take_while(|(a, b)| a == b)
                .count() as u32
        })
        .max()
        .unwrap_or(0)
}

/// The single-search indexed matcher must return exactly what the paper's
/// `Refine` loop returns (same position, not just the same length) and a
/// truly longest match.
fn assert_indexed_agrees(text: &[u8], patterns: &[&[u8]], q: usize) {
    let sa = SuffixArray::build(text);
    let m = Matcher::new(text, &sa);
    let idx = PrefixIndex::build(text, &sa, q);
    for &p in patterns {
        let (pos, len) = m.longest_match_indexed(&idx, p);
        let expect = m.longest_match(p);
        assert_eq!((pos, len), expect, "q={q} text={text:?} pattern={p:?}");
        assert_eq!(len, brute_longest(text, p), "q={q} pattern={p:?}");
        if len > 0 {
            assert_eq!(&text[pos as usize..][..len as usize], &p[..len as usize]);
        }
    }
}

/// Expands `(symbol, run length)` pairs into a text of long runs over the
/// alphabet {0x00, 'a', 0xFF}: runs make many suffixes share long prefixes,
/// and the extreme bytes sort at both ends of the suffix array.
fn runs(spec: &[(u8, usize)]) -> Vec<u8> {
    const SYMBOLS: [u8; 3] = [0x00, b'a', 0xFF];
    spec.iter()
        .flat_map(|&(sym, n)| std::iter::repeat_n(SYMBOLS[sym as usize], n))
        .collect()
}

proptest! {
    #[test]
    fn sais_matches_naive_small_alphabet(text in proptest::collection::vec(0u8..4, 0..300)) {
        let fast = SuffixArray::build(&text);
        let slow = naive::suffix_array(&text);
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn sais_matches_naive_full_alphabet(text in proptest::collection::vec(any::<u8>(), 0..300)) {
        let fast = SuffixArray::build(&text);
        let slow = naive::suffix_array(&text);
        prop_assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn suffix_array_is_sorted(text in proptest::collection::vec(0u8..8, 1..200)) {
        let sa = SuffixArray::build(&text);
        let s = sa.as_slice();
        for w in s.windows(2) {
            prop_assert!(text[w[0] as usize..] < text[w[1] as usize..]);
        }
    }

    #[test]
    fn longest_match_is_maximal(
        text in proptest::collection::vec(0u8..6, 1..200),
        pattern in proptest::collection::vec(0u8..6, 0..64),
    ) {
        let sa = SuffixArray::build(&text);
        let m = Matcher::new(&text, &sa);
        let (pos, len) = m.longest_match(&pattern);
        prop_assert_eq!(len, brute_longest(&text, &pattern));
        if len > 0 {
            prop_assert_eq!(
                &text[pos as usize..pos as usize + len as usize],
                &pattern[..len as usize]
            );
        }
        let (gpos, glen) = m.longest_match_galloping(&pattern);
        prop_assert_eq!(glen, len);
        if glen > 0 {
            prop_assert_eq!(
                &text[gpos as usize..gpos as usize + glen as usize],
                &pattern[..glen as usize]
            );
        }
    }

    #[test]
    fn indexed_longest_match_agrees_with_plain_and_brute(
        text in proptest::collection::vec(0u8..6, 0..200),
        // Full byte range so patterns regularly contain bytes absent from
        // the text, and lengths 0..4 so patterns shorter than q occur for
        // every q.
        pattern in proptest::collection::vec(any::<u8>(), 0..64),
        short in proptest::collection::vec(0u8..6, 0..4),
        q in 1usize..=3,
    ) {
        assert_indexed_agrees(&text, &[&pattern, &short], q);
    }

    #[test]
    fn indexed_search_on_runs_and_extreme_bytes(
        text_runs in proptest::collection::vec((0u8..3, 1usize..40), 0..12),
        pattern_runs in proptest::collection::vec((0u8..3, 1usize..60), 1..4),
        q in 1usize..=3,
    ) {
        let text = runs(&text_runs);
        let pattern = runs(&pattern_runs);
        // A pure run ("aaaa…") longer than any run in the text, plus the
        // pattern's first one to three bytes.
        let long_run = vec![b'a'; 300];
        let mut patterns: Vec<&[u8]> = vec![&pattern, &long_run, &long_run[..1]];
        patterns.extend((1..pattern.len().min(4)).map(|k| &pattern[..k]));
        assert_indexed_agrees(&text, &patterns, q);
    }

    #[test]
    fn indexed_search_on_patterns_cut_from_the_text(
        text in proptest::collection::vec(0u8..3, 1..400),
        start in any::<prop::sample::Index>(),
        len in 1usize..80,
        tail in proptest::collection::vec(any::<u8>(), 0..8),
        q in 1usize..=3,
    ) {
        let start = start.index(text.len());
        let end = (start + len).min(text.len());
        // A substring of a tiny-alphabet text is a prefix of many suffixes.
        let inner = text[start..end].to_vec();
        // The rest of the text plus bytes beyond it: the match runs off the
        // end of the text (and off the end of shorter suffixes).
        let off_end: Vec<u8> = text[start..].iter().chain(&tail).copied().collect();
        // The substring with its last byte changed, which usually leaves a
        // match one byte short of a long shared prefix.
        let mut bent = inner.clone();
        *bent.last_mut().unwrap() ^= 1;
        assert_indexed_agrees(&text, &[&inner, &off_end, &bent], q);
    }

    #[test]
    fn indexed_search_falls_back_to_depth_one_for_absent_grams(
        text in proptest::collection::vec(0u8..4, 1..200),
        first in any::<prop::sample::Index>(),
        rest in proptest::collection::vec(0u8..4, 0..16),
        q in 2usize..=3,
    ) {
        // Byte 0xFF never occurs in the text, so every gram reaching it is
        // absent and the lookup resumes from the first-byte interval (for
        // the first two patterns always; for the third when `rest` is
        // shorter than q - 1).
        let b0 = text[first.index(text.len())];
        let patterns: Vec<Vec<u8>> = vec![
            vec![b0, 0xFF],
            vec![b0, 0xFF, b0],
            [&[b0][..], &rest, &[0xFF]].concat(),
        ];
        let sa = SuffixArray::build(&text);
        let idx = PrefixIndex::build(&text, &sa, q);
        for p in &patterns[..2] {
            prop_assert_eq!(idx.lookup(p).map(|(_, _, depth)| depth), Some(1));
        }
        let refs: Vec<&[u8]> = patterns.iter().map(Vec::as_slice).collect();
        assert_indexed_agrees(&text, &refs, q);
    }

    #[test]
    fn lcp_matches_definition(text in proptest::collection::vec(0u8..4, 2..150)) {
        let sa = SuffixArray::build(&text);
        let lcp = rlz_suffix::lcp::lcp_array(&text, &sa);
        let s = sa.as_slice();
        for i in 1..s.len() {
            let a = &text[s[i - 1] as usize..];
            let b = &text[s[i] as usize..];
            let expect = a.iter().zip(b).take_while(|(x, y)| x == y).count() as u32;
            prop_assert_eq!(lcp[i], expect);
        }
    }
}
