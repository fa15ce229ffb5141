//! Dictionary construction for relative Lempel-Ziv compression (§3.3).
//!
//! The dictionary is a representative sample of the collection: evenly
//! spaced, fixed-length samples concatenated and indexed with a suffix
//! array. "Although simple, this technique generates a very effective
//! dictionary for typical Web data" — the evaluation in Tables 2–5 sweeps
//! dictionary sizes and sample lengths; [`SampleStrategy`] also implements
//! the prefix sampling used by the dynamic-update experiment (Table 10) and
//! random sampling as an ablation.

use rlz_suffix::{Matcher, PrefixIndex, SuffixArray};
use std::sync::Arc;

/// How sample positions are chosen across the collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleStrategy {
    /// Evenly spaced samples across the whole collection — the paper's
    /// method (§3.3): positions `0, n/(m/s), 2n/(m/s), …`.
    Evenly,
    /// Evenly spaced samples restricted to the first `percent` of the
    /// collection — models a dictionary built before the rest of a growing
    /// collection existed (§3.6, Table 10).
    Prefix {
        /// Fraction of the collection visible when sampling, in percent
        /// (1..=100).
        percent: u32,
    },
    /// Pseudo-random sample starts (deterministic given `seed`); an
    /// ablation of the evenly-spaced choice.
    Random {
        /// RNG seed so builds are reproducible.
        seed: u64,
    },
}

/// An RLZ dictionary: the sampled text, its suffix array, and a q-gram
/// [`PrefixIndex`] accelerating longest-match queries.
///
/// The prefix index is built once per dictionary and `Arc`-shared: clones
/// of a `Dictionary` (e.g. one per compressor or per store builder thread)
/// reuse the same table, so every factorization gets the fast path for
/// free. See [`Dictionary::reindex`] for the q knob.
#[derive(Debug, Clone)]
pub struct Dictionary {
    bytes: Vec<u8>,
    sa: SuffixArray,
    index: Arc<PrefixIndex>,
}

impl Dictionary {
    /// Default q-gram length for the prefix index: a 512 KiB table that
    /// starts every longest-match search two bytes deep.
    pub const DEFAULT_INDEX_Q: usize = 2;

    /// Builds a dictionary directly from the given bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self::from_bytes_with_q(bytes, Self::DEFAULT_INDEX_Q)
    }

    /// Builds a dictionary with an explicit prefix-index q-gram length
    /// (`1..=rlz_suffix::MAX_Q`; table memory is `O(256^q)`).
    pub fn from_bytes_with_q(bytes: Vec<u8>, q: usize) -> Self {
        let sa = SuffixArray::build(&bytes);
        let index = Arc::new(PrefixIndex::build(&bytes, &sa, q));
        Dictionary { bytes, sa, index }
    }

    /// Samples a dictionary of (at most) `dict_size` bytes from `collection`
    /// using samples of `sample_len` bytes, per the chosen strategy.
    ///
    /// Mirrors §3.3: `m/s` samples of length `s` at evenly spaced positions.
    /// If the collection is smaller than the requested dictionary, the whole
    /// collection becomes the dictionary.
    pub fn sample(
        collection: &[u8],
        dict_size: usize,
        sample_len: usize,
        strategy: SampleStrategy,
    ) -> Self {
        Self::from_bytes(Self::sample_bytes(
            collection, dict_size, sample_len, strategy,
        ))
    }

    /// The raw sampled bytes of [`sample`](Self::sample), without building
    /// the derived suffix array / prefix index (used when several sampling
    /// passes are batched into one rebuild).
    fn sample_bytes(
        collection: &[u8],
        dict_size: usize,
        sample_len: usize,
        strategy: SampleStrategy,
    ) -> Vec<u8> {
        assert!(sample_len > 0, "sample length must be positive");
        let n = collection.len();
        if n <= dict_size || dict_size == 0 {
            return collection.to_vec();
        }
        let mut bytes = Vec::with_capacity(dict_size);
        for (start, end) in Self::sample_windows(n, dict_size, sample_len, strategy) {
            bytes.extend_from_slice(&collection[start..end]);
        }
        bytes.truncate(dict_size);
        bytes
    }

    /// The `[start, end)` sample windows over a collection of `n` bytes, in
    /// emission order — the single source of truth for sample placement,
    /// shared by [`sample_bytes`](Self::sample_bytes) and the streaming
    /// sampler so the two cannot drift. The loop stops once the accumulated
    /// window length reaches `dict_size` (the final window may overshoot;
    /// callers truncate the concatenation).
    fn sample_windows(
        n: usize,
        dict_size: usize,
        sample_len: usize,
        strategy: SampleStrategy,
    ) -> Vec<(usize, usize)> {
        let region_end = match strategy {
            SampleStrategy::Prefix { percent } => {
                assert!((1..=100).contains(&percent), "percent must be 1..=100");
                ((n as u64 * percent as u64) / 100).max(1) as usize
            }
            _ => n,
        };
        let num_samples = dict_size.div_ceil(sample_len).max(1);
        let mut windows = Vec::with_capacity(num_samples.min(1 << 20));
        let mut cum = 0usize;
        match strategy {
            SampleStrategy::Evenly | SampleStrategy::Prefix { .. } => {
                // Interval between sample starts; positions are spaced so the
                // final sample still fits in the region where possible.
                for k in 0..num_samples {
                    let start = if num_samples == 1 {
                        0
                    } else {
                        (region_end as u64 * k as u64 / num_samples as u64) as usize
                    };
                    let end = (start + sample_len).min(region_end);
                    windows.push((start, end));
                    cum += end - start;
                    if cum >= dict_size {
                        break;
                    }
                }
            }
            SampleStrategy::Random { seed } => {
                // splitmix64 of the seed, so nearby seeds diverge.
                let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                state = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                state = (state ^ (state >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                state = (state ^ (state >> 31)) | 1;
                for _ in 0..num_samples {
                    // xorshift64*: deterministic, dependency-free.
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    let start = (r % region_end.saturating_sub(sample_len).max(1) as u64) as usize;
                    let end = (start + sample_len).min(region_end);
                    windows.push((start, end));
                    cum += end - start;
                    if cum >= dict_size {
                        break;
                    }
                }
            }
        }
        windows
    }

    /// Samples a dictionary from a collection streamed as chunks —
    /// byte-identical to [`sample`](Self::sample) over the concatenated
    /// chunks, without ever materializing the collection. The input to the
    /// bounded-memory build pipeline: peak memory is the dictionary plus
    /// one chunk.
    ///
    /// `total_len` must equal the summed chunk length (panics otherwise);
    /// when the source length is not known up front, one cheap counting
    /// pass over the generator supplies it.
    pub fn sample_streamed<I>(
        chunks: I,
        total_len: usize,
        dict_size: usize,
        sample_len: usize,
        strategy: SampleStrategy,
    ) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        Self::from_bytes(Self::sample_bytes_streamed(
            chunks, total_len, dict_size, sample_len, strategy,
        ))
    }

    /// The raw sampled bytes of [`sample_streamed`](Self::sample_streamed).
    fn sample_bytes_streamed<I>(
        chunks: I,
        total_len: usize,
        dict_size: usize,
        sample_len: usize,
        strategy: SampleStrategy,
    ) -> Vec<u8>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        assert!(sample_len > 0, "sample length must be positive");
        if total_len <= dict_size || dict_size == 0 {
            // Whole collection becomes the dictionary — same as the
            // materialized path.
            let mut bytes = Vec::with_capacity(total_len);
            for chunk in chunks {
                bytes.extend_from_slice(chunk.as_ref());
            }
            assert_eq!(
                bytes.len(),
                total_len,
                "chunk stream length disagrees with total_len"
            );
            return bytes;
        }
        let windows = Self::sample_windows(total_len, dict_size, sample_len, strategy);
        // Per-window buffers, filled positionally as chunks stream past:
        // windows may arrive out of start order (Random) or overlap after
        // rounding, so each keeps its own buffer and the concatenation at
        // the end follows emission order.
        let mut bufs: Vec<Vec<u8>> = windows.iter().map(|&(s, e)| vec![0u8; e - s]).collect();
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.sort_by_key(|&i| windows[i]);
        let mut next = 0usize; // first start-ordered window not fully filled
        let mut off = 0usize;
        for chunk in chunks {
            let chunk = chunk.as_ref();
            let chunk_end = off + chunk.len();
            for &w in &order[next..] {
                let (ws, we) = windows[w];
                if ws >= chunk_end {
                    break;
                }
                let (a, b) = (ws.max(off), we.min(chunk_end));
                if a < b {
                    bufs[w][a - ws..b - ws].copy_from_slice(&chunk[a - off..b - off]);
                }
            }
            while next < order.len() && windows[order[next]].1 <= chunk_end {
                next += 1;
            }
            off = chunk_end;
        }
        assert_eq!(
            off, total_len,
            "chunk stream length disagrees with total_len"
        );
        let mut bytes = Vec::with_capacity(dict_size + sample_len);
        for buf in &bufs {
            bytes.extend_from_slice(buf);
        }
        bytes.truncate(dict_size);
        bytes
    }

    /// Appends additional samples (e.g. from newly arrived documents) — the
    /// memory-unconstrained update path of §3.6. Existing factor encodings
    /// remain valid because dictionary offsets are unchanged.
    ///
    /// **Cost:** every call rebuilds the entire `O(m)` suffix array *and*
    /// the `O(m + σ^q)` prefix index from scratch — there is no incremental
    /// update. Growing a dictionary through repeated small appends is
    /// quadratic overall; batch them with
    /// [`append_samples_many`](Self::append_samples_many), which pays for
    /// one rebuild regardless of how many additions it absorbs.
    pub fn append_samples(&mut self, new_text: &[u8], extra_size: usize, sample_len: usize) {
        self.append_samples_many(&[(new_text, extra_size, sample_len)]);
    }

    /// Appends several `(new_text, extra_size, sample_len)` additions in
    /// one shot, rebuilding the suffix array and prefix index exactly once
    /// — the batched counterpart of [`append_samples`](Self::append_samples)
    /// for update streams that arrive in bursts.
    pub fn append_samples_many(&mut self, additions: &[(&[u8], usize, usize)]) {
        if additions.is_empty() {
            return;
        }
        for &(new_text, extra_size, sample_len) in additions {
            let extra =
                Self::sample_bytes(new_text, extra_size, sample_len, SampleStrategy::Evenly);
            self.bytes.extend_from_slice(&extra);
        }
        self.sa = SuffixArray::build(&self.bytes);
        self.index = Arc::new(PrefixIndex::build(&self.bytes, &self.sa, self.index.q()));
    }

    /// Rebuilds the prefix index with a different q-gram length
    /// (`1..=rlz_suffix::MAX_Q`). Larger q skips more `Refine` steps per
    /// factor but costs `O(256^q)` table entries; `q = 1` keeps only the
    /// 2 KiB first-byte table.
    pub fn reindex(&mut self, q: usize) {
        if self.index.q() != q {
            self.index = Arc::new(PrefixIndex::build(&self.bytes, &self.sa, q));
        }
    }

    /// The dictionary text.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Dictionary size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the dictionary holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The dictionary's suffix array.
    #[inline]
    pub fn suffix_array(&self) -> &SuffixArray {
        &self.sa
    }

    /// A longest-match view over the dictionary (un-indexed `Refine` from
    /// the full interval — the correctness oracle; factorization uses
    /// [`prefix_index`](Self::prefix_index) alongside it for the fast
    /// path).
    #[inline]
    pub fn matcher(&self) -> Matcher<'_> {
        Matcher::new(&self.bytes, &self.sa)
    }

    /// The q-gram prefix-interval index, shared by all clones of this
    /// dictionary.
    #[inline]
    pub fn prefix_index(&self) -> &PrefixIndex {
        &self.index
    }

    /// The q-gram length of the current prefix index.
    #[inline]
    pub fn index_q(&self) -> usize {
        self.index.q()
    }

    /// Resident heap bytes of the dictionary: the sampled text, its suffix
    /// array (4 bytes per text byte — the dominant term), and the shared
    /// prefix index. The build pipeline's RSS budget is
    /// `heap_bytes() + constant × block`.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.sa.heap_bytes() + self.index.heap_bytes()
    }

    // On-disk serialization is the raw dictionary text — use
    // [`bytes`](Self::bytes) directly (the suffix array and prefix index
    // are derived state, rebuilt on load; a former `to_bytes` method
    // cloned the whole dictionary just to say the same thing).
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection() -> Vec<u8> {
        (0..100_000u32)
            .flat_map(|i| format!("doc{:05} content words here. ", i).into_bytes())
            .collect()
    }

    #[test]
    fn evenly_spaced_sampling_hits_target_size() {
        let c = collection();
        let d = Dictionary::sample(&c, 10_000, 1000, SampleStrategy::Evenly);
        assert_eq!(d.len(), 10_000);
    }

    #[test]
    fn whole_collection_when_smaller_than_dict() {
        let c = b"tiny".to_vec();
        let d = Dictionary::sample(&c, 1000, 100, SampleStrategy::Evenly);
        assert_eq!(d.bytes(), b"tiny");
    }

    #[test]
    fn samples_span_the_collection() {
        // With even spacing, the last sample must come from the tail region.
        let mut c = vec![b'a'; 50_000];
        c.extend(vec![b'z'; 50_000]);
        let d = Dictionary::sample(&c, 5_000, 500, SampleStrategy::Evenly);
        assert!(d.bytes().contains(&b'a'));
        assert!(d.bytes().contains(&b'z'));
    }

    #[test]
    fn prefix_sampling_only_sees_prefix() {
        let mut c = vec![b'a'; 50_000];
        c.extend(vec![b'z'; 50_000]);
        let d = Dictionary::sample(&c, 5_000, 500, SampleStrategy::Prefix { percent: 50 });
        assert!(d.bytes().iter().all(|&b| b == b'a'));
    }

    #[test]
    fn random_sampling_is_deterministic() {
        let c = collection();
        let d1 = Dictionary::sample(&c, 4_000, 256, SampleStrategy::Random { seed: 42 });
        let d2 = Dictionary::sample(&c, 4_000, 256, SampleStrategy::Random { seed: 42 });
        assert_eq!(d1.bytes(), d2.bytes());
        let d3 = Dictionary::sample(&c, 4_000, 256, SampleStrategy::Random { seed: 43 });
        assert_ne!(d1.bytes(), d3.bytes());
    }

    #[test]
    fn append_samples_preserves_existing_offsets() {
        let c = collection();
        let mut d = Dictionary::sample(&c, 5_000, 500, SampleStrategy::Evenly);
        let before = d.bytes().to_vec();
        d.append_samples(b"entirely new content that keeps repeating itself", 64, 16);
        assert_eq!(&d.bytes()[..before.len()], &before[..]);
        assert!(d.len() > before.len());
    }

    #[test]
    fn append_samples_many_equals_sequential_appends() {
        let c = collection();
        let mut one_by_one = Dictionary::sample(&c, 4_000, 500, SampleStrategy::Evenly);
        let mut batched = one_by_one.clone();
        let extra_a = b"first burst of new material first burst".to_vec();
        let extra_b: Vec<u8> = (0..500u32)
            .flat_map(|i| format!("late doc {i} ").into_bytes())
            .collect();
        one_by_one.append_samples(&extra_a, 64, 16);
        one_by_one.append_samples(&extra_b, 128, 32);
        batched.append_samples_many(&[(&extra_a, 64, 16), (&extra_b, 128, 32)]);
        assert_eq!(one_by_one.bytes(), batched.bytes());
        assert_eq!(one_by_one.suffix_array(), batched.suffix_array());
        // Empty batch is a no-op, not a rebuild.
        let before = batched.bytes().to_vec();
        batched.append_samples_many(&[]);
        assert_eq!(batched.bytes(), &before[..]);
    }

    #[test]
    fn reindex_changes_q_and_preserves_matches() {
        let c = collection();
        let mut d = Dictionary::sample(&c, 3_000, 300, SampleStrategy::Evenly);
        assert_eq!(d.index_q(), Dictionary::DEFAULT_INDEX_Q);
        let (pos, len) = d
            .matcher()
            .longest_match_indexed(d.prefix_index(), b"content words");
        for q in [1usize, 3, 2] {
            d.reindex(q);
            assert_eq!(d.index_q(), q);
            assert_eq!(
                d.matcher()
                    .longest_match_indexed(d.prefix_index(), b"content words"),
                (pos, len),
                "q={q}"
            );
        }
    }

    #[test]
    fn clones_share_the_prefix_index() {
        let d = Dictionary::from_bytes(b"shared index".to_vec());
        let clone = d.clone();
        assert!(std::ptr::eq(d.prefix_index(), clone.prefix_index()));
    }

    #[test]
    fn suffix_array_matches_bytes() {
        let c = collection();
        let d = Dictionary::sample(&c, 2_000, 250, SampleStrategy::Evenly);
        assert_eq!(d.suffix_array().len(), d.len());
        // Spot-check the matcher works over the sampled text.
        let (pos, len) = d.matcher().longest_match(b"content words");
        assert!(len > 0);
        assert_eq!(
            &d.bytes()[pos as usize..pos as usize + len as usize],
            &b"content words"[..len as usize]
        );
    }

    #[test]
    #[should_panic]
    fn zero_sample_len_rejected() {
        let _ = Dictionary::sample(b"abc", 2, 0, SampleStrategy::Evenly);
    }

    #[test]
    fn streamed_sampling_matches_materialized() {
        let c = collection();
        let strategies = [
            SampleStrategy::Evenly,
            SampleStrategy::Prefix { percent: 37 },
            SampleStrategy::Random { seed: 7 },
        ];
        // Chunkings that split mid-sample, per-byte-ish, and collection-
        // larger-than-dict vs smaller-than-dict (whole-collection path).
        for &(dict_size, sample_len) in
            &[(10_000usize, 1000usize), (4_096, 100), (c.len() + 1, 512)]
        {
            for strategy in strategies {
                let oracle = Dictionary::sample(&c, dict_size, sample_len, strategy);
                for chunk_len in [1usize << 9, 333, c.len()] {
                    let streamed = Dictionary::sample_streamed(
                        c.chunks(chunk_len),
                        c.len(),
                        dict_size,
                        sample_len,
                        strategy,
                    );
                    assert_eq!(
                        streamed.bytes(),
                        oracle.bytes(),
                        "dict {dict_size} sample {sample_len} chunk {chunk_len} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn streamed_sampling_rejects_wrong_total_len() {
        let c = collection();
        let _ = Dictionary::sample_streamed(
            c.chunks(1024),
            c.len() + 5,
            1000,
            100,
            SampleStrategy::Evenly,
        );
    }

    #[test]
    fn heap_bytes_accounts_for_all_components() {
        let c = collection();
        let d = Dictionary::sample(&c, 8_192, 512, SampleStrategy::Evenly);
        // At minimum: text + 4-byte-per-symbol suffix array + a non-empty
        // prefix index.
        assert!(d.heap_bytes() >= d.len() * 5);
        assert!(d.heap_bytes() >= d.prefix_index().heap_bytes());
    }
}
