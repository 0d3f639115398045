//! The benchmark's own input generator.
//!
//! Every input — words, phrases, tables, deltas — derives from the `--seed`
//! argument through [`SplitMix64`], so the load a run offers is a function of
//! the benchmark's files alone: a product change cannot alter it (the golden
//! tests below pin the streams), and the program only ever receives the
//! generated values.  Sizes never depend on the seed, only contents do, so
//! two seeds offer the same amount of work.

use std::collections::HashSet;

/// Steele/Lea/Flood SplitMix64 — small, fast, and trivially portable.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one named part of a workload, so adding a
    /// draw to one part never shifts the values another part sees.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut mixer = Self::new(seed ^ h);
        Self(mixer.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for every
    /// `n` the benchmark uses).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

const ONSETS: [&str; 20] = [
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "br",
    "st",
];
const VOWELS: [&str; 8] = ["a", "e", "i", "o", "u", "ai", "ou", "ea"];
const CODAS: [&str; 6] = ["", "", "n", "r", "s", "l"];

/// One pronounceable pseudo-word of at least five letters (longer than every
/// stop word the program's tokenizer drops, so no generated word vanishes).
fn pseudo_word(rng: &mut SplitMix64) -> String {
    let syllables = 2 + rng.below(3);
    let mut word = String::new();
    for _ in 0..syllables {
        word.push_str(ONSETS[rng.below(ONSETS.len())]);
        word.push_str(VOWELS[rng.below(VOWELS.len())]);
        word.push_str(CODAS[rng.below(CODAS.len())]);
    }
    while word.len() < 5 {
        word.push_str(VOWELS[rng.below(VOWELS.len())]);
        word.push_str(CODAS[2 + rng.below(4)]);
    }
    word
}

/// A fixed-size set of distinct pseudo-words; phrases draw from it, so
/// different rows share words and similarity scores spread out instead of
/// collapsing to "identical or unrelated".
#[derive(Debug, Clone)]
pub struct Vocab {
    words: Vec<String>,
}

impl Vocab {
    pub fn new(seed: u64, label: &str, size: usize) -> Self {
        let mut rng = SplitMix64::stream(seed, label);
        let mut seen = HashSet::with_capacity(size);
        let mut words = Vec::with_capacity(size);
        while words.len() < size {
            let w = pseudo_word(&mut rng);
            if seen.insert(w.clone()) {
                words.push(w);
            }
        }
        Self { words }
    }

    /// A phrase of `n` vocabulary words joined by single spaces.
    pub fn phrase(&self, rng: &mut SplitMix64, n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&self.words[rng.below(self.words.len())]);
        }
        out
    }

    pub fn phrases(&self, rng: &mut SplitMix64, rows: usize, n: usize) -> Vec<String> {
        (0..rows).map(|_| self.phrase(rng, n)).collect()
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// The pre-filter column: the values `0..100` dealt out evenly and then
/// shuffled, so `filter < s` selects the same number of rows (`s` percent,
/// to within one row per value) for every seed — only *which* rows differs.
pub fn percent_column(rng: &mut SplitMix64, rows: usize) -> Vec<i64> {
    let mut column: Vec<i64> = (0..rows).map(|i| (i % 100) as i64).collect();
    shuffle(rng, &mut column);
    column
}

/// The three delta kinds `serve_live` rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    Append,
    Upsert,
    Delete,
}

impl DeltaKind {
    /// The order [`DeltaRotation`] hands them out in.
    pub const ROTATION: [DeltaKind; 3] = [DeltaKind::Append, DeltaKind::Upsert, DeltaKind::Delete];
}

/// One delta: its kind and the ids it touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Append rows with these fresh ids.
    Append(Vec<i64>),
    /// Replace the rows with these (live) ids by new content.
    Upsert(Vec<i64>),
    /// Delete the rows with these (oldest live) ids.
    Delete(Vec<i64>),
}

impl DeltaOp {
    pub fn kind(&self) -> DeltaKind {
        match self {
            DeltaOp::Append(_) => DeltaKind::Append,
            DeltaOp::Upsert(_) => DeltaKind::Upsert,
            DeltaOp::Delete(_) => DeltaKind::Delete,
        }
    }
}

/// Generates the `serve_live` delta rotation APPEND → UPSERT → DELETE-oldest
/// over a table whose ids start as `0..rows`: every third delta returns the
/// table to exactly `rows` rows, and in between it holds `rows + batch`.
#[derive(Debug, Clone)]
pub struct DeltaRotation {
    batch: usize,
    oldest: i64,
    next: i64,
    step: u64,
}

impl DeltaRotation {
    pub fn new(rows: usize, batch: usize) -> Self {
        Self {
            batch,
            oldest: 0,
            next: rows as i64,
            step: 0,
        }
    }

    /// Live rows after the deltas generated so far.
    pub fn live_rows(&self) -> usize {
        (self.next - self.oldest) as usize
    }

    /// The live ids are exactly `oldest..next`.
    pub fn id_range(&self) -> std::ops::Range<i64> {
        self.oldest..self.next
    }

    pub fn next_delta(&mut self) -> DeltaOp {
        let batch = self.batch as i64;
        let op = match DeltaKind::ROTATION[(self.step % 3) as usize] {
            DeltaKind::Append => {
                let ids = (self.next..self.next + batch).collect();
                self.next += batch;
                DeltaOp::Append(ids)
            }
            // the newest rows: always live, never the ones DELETE takes next
            DeltaKind::Upsert => DeltaOp::Upsert((self.next - batch..self.next).collect()),
            DeltaKind::Delete => {
                let ids = (self.oldest..self.oldest + batch).collect();
                self.oldest += batch;
                DeltaOp::Delete(ids)
            }
        };
        self.step += 1;
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden values: if one of these moves, the benchmark's load moved and
    // every recorded baseline is void.  A change that edits them is a change
    // to the benchmark, never part of a product change.
    #[test]
    fn splitmix_stream_is_pinned() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 0x599E_D017_FB08_FC85);
    }

    #[test]
    fn named_streams_differ_and_repeat() {
        let a1: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "inner");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "inner");
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "outer");
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }

    #[test]
    fn vocabulary_and_phrases_are_pinned() {
        let vocab = Vocab::new(42, "vocab", 64);
        assert_eq!(vocab.words.len(), 64);
        assert!(vocab.words.iter().all(|w| w.len() >= 5));
        let distinct: HashSet<&String> = vocab.words.iter().collect();
        assert_eq!(distinct.len(), 64);
        let mut rng = SplitMix64::stream(42, "phrases");
        let golden = [
            vocab.phrase(&mut rng, 3),
            vocab.phrase(&mut rng, 3),
            vocab.phrase(&mut rng, 12),
        ];
        assert_eq!(golden, GOLDEN_PHRASES);
    }

    const GOLDEN_PHRASES: [&str; 3] = [
        "wourjur vealvour stinbrisrai",
        "pailsocair gushounbebroun pailsocair",
        "tagogoupous wourjur cusrolreardo lurgos caszeal fouldodea lurgos stanmur fouldodea kelvas \
         pourpul stoulgous",
    ];

    #[test]
    fn percent_column_selects_the_same_share_for_every_seed() {
        for seed in [3, 4] {
            let mut rng = SplitMix64::stream(seed, "filter");
            let col = percent_column(&mut rng, 100_000);
            assert!(col.iter().all(|v| (0..100).contains(v)));
            assert_eq!(col.iter().filter(|v| **v < 20).count(), 20_000);
            // shuffled, not the dealing order
            assert!(col[..100].iter().zip(0..).any(|(v, i)| *v != i));
        }
        let a = percent_column(&mut SplitMix64::stream(3, "filter"), 1_000);
        let b = percent_column(&mut SplitMix64::stream(4, "filter"), 1_000);
        assert_ne!(a, b);
    }

    #[test]
    fn delta_rotation_keeps_the_table_size_stable() {
        let mut rot = DeltaRotation::new(200_000, 100);
        let mut live: HashSet<i64> = (0..200_000).collect();
        for step in 0..600 {
            match rot.next_delta() {
                DeltaOp::Append(ids) => {
                    assert_eq!(ids.len(), 100);
                    for id in ids {
                        assert!(live.insert(id), "append of a live id");
                    }
                }
                DeltaOp::Upsert(ids) => {
                    assert_eq!(ids.len(), 100);
                    assert!(
                        ids.iter().all(|id| live.contains(id)),
                        "upsert of a dead id"
                    );
                }
                DeltaOp::Delete(ids) => {
                    assert_eq!(ids.len(), 100);
                    for id in ids {
                        assert!(live.remove(&id), "delete of a dead id");
                    }
                }
            }
            assert_eq!(live.len(), rot.live_rows());
            assert!(rot.id_range().all(|id| live.contains(&id)));
            // within +-1% of the starting size at every step
            assert!((198_000..=202_000).contains(&live.len()), "step {step}");
            if step % 3 == 2 {
                assert_eq!(live.len(), 200_000);
            }
        }
    }

    #[test]
    fn delta_rotation_is_deterministic() {
        let ops = |n: usize| {
            let mut rot = DeltaRotation::new(1_000, 10);
            (0..n).map(|_| rot.next_delta()).collect::<Vec<_>>()
        };
        assert_eq!(ops(30), ops(30));
    }
}
