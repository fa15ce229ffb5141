//! RLZ factorization (§3, Figures 1 and 2 of the paper).
//!
//! A document `x` is factorized relative to dictionary `d` into substrings
//! `x = w₁w₂…wₖ` where each `wⱼ` is either the longest prefix of the
//! remaining input that occurs anywhere in `d`, or a single literal
//! character that does not occur in `d`. Each factor is a `(position,
//! length)` pair; `length == 0` marks a literal whose byte is stored in the
//! position field.
//!
//! Each factor costs one longest-match query against the dictionary's
//! suffix array. [`factorize`] answers it with a single lcp-skipping binary
//! search inside the dictionary's q-gram interval
//! ([`Matcher::longest_match_indexed`](rlz_suffix::Matcher::longest_match_indexed)),
//! `O(len + log m)` byte comparisons per factor. [`factorize_plain`] keeps
//! the paper's `Refine` loop, two binary searches per matched byte. Both
//! report the suffix-array-leftmost dictionary suffix that shares the
//! longest prefix with the input: `Refine` reports the left end of its final
//! interval, and the single search walks left to that same suffix. So both
//! emit the same factors and every stored record is byte-identical.

use crate::Dictionary;

/// One factor of an RLZ parse.
///
/// `len > 0`: copy `len` bytes from `pos` in the dictionary.
/// `len == 0`: emit the single byte stored in `pos` (a character absent
/// from the dictionary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Factor {
    /// Dictionary offset, or the literal byte when `len == 0`.
    pub pos: u32,
    /// Match length in bytes; zero marks a literal.
    pub len: u32,
}

impl Factor {
    /// A literal factor for byte `b`.
    #[inline]
    pub fn literal(b: u8) -> Self {
        Factor {
            pos: b as u32,
            len: 0,
        }
    }

    /// A copy factor.
    #[inline]
    pub fn copy(pos: u32, len: u32) -> Self {
        debug_assert!(len > 0);
        Factor { pos, len }
    }

    /// True when this factor is a literal character.
    #[inline]
    pub fn is_literal(&self) -> bool {
        self.len == 0
    }

    /// Number of text bytes this factor expands to.
    #[inline]
    pub fn expanded_len(&self) -> usize {
        if self.len == 0 {
            1
        } else {
            self.len as usize
        }
    }
}

/// Factorizes `text` relative to `dict`, appending factors to `out`
/// (the `Encode` function of Figure 1).
///
/// Works on one document at a time: the paper stops factors at document
/// boundaries so each document decodes independently, which is exactly what
/// a per-document call achieves.
///
/// Longest-match queries start from the dictionary's q-gram
/// [`PrefixIndex`](rlz_suffix::PrefixIndex) interval and search it once
/// for the whole remaining input (see the module docs); the parse is
/// byte-identical to [`factorize_plain`], which keeps the paper's search as
/// the correctness oracle and benchmark ablation.
pub fn factorize(dict: &Dictionary, text: &[u8], out: &mut Vec<Factor>) {
    let matcher = dict.matcher();
    let index = dict.prefix_index();
    let mut i = 0usize;
    while i < text.len() {
        let (pos, len) = matcher.longest_match_indexed(index, &text[i..]);
        if len == 0 {
            out.push(Factor::literal(text[i]));
            i += 1;
        } else {
            out.push(Factor::copy(pos, len));
            i += len as usize;
        }
    }
}

/// [`factorize`] using the un-indexed matcher of the paper (`Refine` from
/// the full suffix-array interval every factor). Produces the same parse;
/// kept as the correctness oracle for the prefix index and as the baseline
/// in the factorization-throughput benchmark.
pub fn factorize_plain(dict: &Dictionary, text: &[u8], out: &mut Vec<Factor>) {
    let matcher = dict.matcher();
    let mut i = 0usize;
    while i < text.len() {
        let (pos, len) = matcher.longest_match(&text[i..]);
        if len == 0 {
            out.push(Factor::literal(text[i]));
            i += 1;
        } else {
            out.push(Factor::copy(pos, len));
            i += len as usize;
        }
    }
}

/// Convenience wrapper returning a fresh factor vector.
pub fn factorize_to_vec(dict: &Dictionary, text: &[u8]) -> Vec<Factor> {
    let mut out = Vec::new();
    factorize(dict, text, &mut out);
    out
}

/// Errors from expanding a factor stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// A factor addresses bytes beyond the dictionary.
    FactorOutOfRange {
        /// Offending dictionary offset.
        pos: u32,
        /// Offending length.
        len: u32,
    },
    /// A literal factor's position field is not a byte value.
    BadLiteral(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::FactorOutOfRange { pos, len } => {
                write!(f, "factor ({pos},{len}) exceeds dictionary bounds")
            }
            DecodeError::BadLiteral(v) => write!(f, "literal value {v} is not a byte"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Expands `factors` against the dictionary text, appending the document's
/// bytes to `out` (the `Decode` function of Figure 2).
pub fn expand(dict_bytes: &[u8], factors: &[Factor], out: &mut Vec<u8>) -> Result<(), DecodeError> {
    for f in factors {
        if f.len == 0 {
            let b = u8::try_from(f.pos).map_err(|_| DecodeError::BadLiteral(f.pos))?;
            out.push(b);
        } else {
            let start = f.pos as usize;
            let end = start + f.len as usize;
            let chunk = dict_bytes
                .get(start..end)
                .ok_or(DecodeError::FactorOutOfRange {
                    pos: f.pos,
                    len: f.len,
                })?;
            out.extend_from_slice(chunk);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleStrategy;

    fn dict(bytes: &[u8]) -> Dictionary {
        Dictionary::from_bytes(bytes.to_vec())
    }

    #[test]
    fn paper_worked_example() {
        // §3: x = bbaancabb relative to d = cabbaabba gives three factors:
        // (3,4) = "bbaa", ('n',0), (1,4) = "cabb" in the paper's 1-based
        // offsets — 0-based: (2,4), literal n, (0,4).
        let d = dict(b"cabbaabba");
        let factors = factorize_to_vec(&d, b"bbaancabb");
        assert_eq!(
            factors,
            vec![
                Factor::copy(2, 4),
                Factor::literal(b'n'),
                Factor::copy(0, 4),
            ]
        );
        let mut out = Vec::new();
        expand(d.bytes(), &factors, &mut out).unwrap();
        assert_eq!(out, b"bbaancabb");
    }

    #[test]
    fn empty_document_produces_no_factors() {
        let d = dict(b"dictionary");
        assert!(factorize_to_vec(&d, b"").is_empty());
    }

    #[test]
    fn document_of_only_unknown_bytes() {
        let d = dict(b"abc");
        let factors = factorize_to_vec(&d, b"xyz");
        assert_eq!(
            factors,
            vec![
                Factor::literal(b'x'),
                Factor::literal(b'y'),
                Factor::literal(b'z'),
            ]
        );
    }

    #[test]
    fn document_equal_to_dictionary_is_one_factor() {
        let d = dict(b"exact content match");
        let factors = factorize_to_vec(&d, b"exact content match");
        assert_eq!(factors, vec![Factor::copy(0, 19)]);
    }

    #[test]
    fn factorization_is_greedy_longest_match() {
        // Dictionary holds "abcd" and "cdef"; input "abcdef" must take the
        // longest prefix "abcd" then "ef" (from "cdef").
        let d = dict(b"abcd~cdef");
        let factors = factorize_to_vec(&d, b"abcdef");
        assert_eq!(factors.len(), 2);
        assert_eq!(factors[0], Factor::copy(0, 4));
        assert_eq!(factors[1].len, 2); // "ef"
        let mut out = Vec::new();
        expand(d.bytes(), &factors, &mut out).unwrap();
        assert_eq!(out, b"abcdef");
    }

    #[test]
    fn indexed_and_plain_parses_are_identical() {
        // The zero-behavioral-diff guarantee: on every corpus shape — high
        // redundancy, novel bytes, short docs — the indexed fast path must
        // emit exactly the factors the paper's search emits.
        let collection: Vec<u8> = (0..1500u32)
            .flat_map(|i| {
                format!("<page id={}>shared boilerplate {}</page>", i % 41, i % 7).into_bytes()
            })
            .collect();
        for q in [1usize, 2, 3] {
            let mut d = Dictionary::sample(&collection, 2048, 256, SampleStrategy::Evenly);
            d.reindex(q);
            let mut docs: Vec<&[u8]> = collection.chunks(333).collect();
            docs.push(b"\x00\xffnovel bytes\x01");
            docs.push(b"x");
            for doc in &docs {
                let mut fast = Vec::new();
                let mut plain = Vec::new();
                factorize(&d, doc, &mut fast);
                factorize_plain(&d, doc, &mut plain);
                assert_eq!(fast, plain, "q={q}");
            }
        }
    }

    #[test]
    fn indexed_and_plain_parses_agree_on_a_web_collection() {
        // The production shape: a GOV2-like collection factorized against a
        // ~0.1% dictionary sampled the way the streamed build samples it.
        let col = rlz_corpus::generate_web(&rlz_corpus::WebConfig::gov2(8 << 20, 0x5EED));
        let total = col.total_bytes();
        let d = Dictionary::sample_streamed(
            col.iter_docs(),
            total,
            total / 1000,
            256,
            SampleStrategy::Evenly,
        );
        let (mut fast, mut plain) = (Vec::new(), Vec::new());
        let mut covered = 0;
        for doc in col.iter_docs() {
            if covered >= 2 << 20 {
                break;
            }
            fast.clear();
            plain.clear();
            factorize(&d, doc, &mut fast);
            factorize_plain(&d, doc, &mut plain);
            assert_eq!(fast, plain);
            covered += doc.len();
        }
        assert!(covered >= 2 << 20);
    }

    #[test]
    fn roundtrip_with_sampled_dictionary() {
        let collection: Vec<u8> = (0..2000u32)
            .flat_map(|i| format!("<page id={}>shared boilerplate</page>", i % 37).into_bytes())
            .collect();
        let d = Dictionary::sample(&collection, 2048, 256, SampleStrategy::Evenly);
        let doc = b"<page id=12>shared boilerplate</page> with novel! tail \x01\x02";
        let factors = factorize_to_vec(&d, doc);
        let mut out = Vec::new();
        expand(d.bytes(), &factors, &mut out).unwrap();
        assert_eq!(out, doc);
    }

    #[test]
    fn expand_rejects_out_of_range_factor() {
        let d = dict(b"short");
        let bad = vec![Factor::copy(3, 10)];
        let mut out = Vec::new();
        assert_eq!(
            expand(d.bytes(), &bad, &mut out),
            Err(DecodeError::FactorOutOfRange { pos: 3, len: 10 })
        );
    }

    #[test]
    fn expand_rejects_non_byte_literal() {
        let mut out = Vec::new();
        assert_eq!(
            expand(b"d", &[Factor { pos: 300, len: 0 }], &mut out),
            Err(DecodeError::BadLiteral(300))
        );
    }

    #[test]
    fn empty_dictionary_factorizes_to_literals() {
        let d = dict(b"");
        let factors = factorize_to_vec(&d, b"ab");
        assert_eq!(factors.len(), 2);
        assert!(factors.iter().all(Factor::is_literal));
        let mut out = Vec::new();
        expand(d.bytes(), &factors, &mut out).unwrap();
        assert_eq!(out, b"ab");
    }
}
