//! Token-based data sharding (Section III-A).
//!
//! The input tokens of each sequence are divided uniformly along the token
//! dimension and assigned to a contiguous range of banks in ring order;
//! each bank then owns its tokens' embeddings, Q/K/V rows, attention-score
//! rows and FFN activations for the entire inference. A batch of sequences
//! occupies disjoint bank ranges, which is how short-sequence workloads
//! (IMDB, TriviaQA) fill the memory (Section V-B measures per-batch time
//! for exactly this reason).

use crate::ir::BankRange;
use serde::{Deserialize, Serialize};

/// Shard assignment of one sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqShard {
    /// Banks assigned to this sequence.
    pub banks: BankRange,
    /// Sequence length in tokens.
    pub seq_len: u32,
}

impl SeqShard {
    /// Tokens held by the fullest bank (`ceil(L / N)`).
    pub fn tokens_per_bank(&self) -> u32 {
        self.seq_len.div_ceil(self.banks.count.max(1))
    }
}

/// Token-based sharding of a batch across the memory system.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sharding {
    /// Per-sequence shard assignments.
    pub sequences: Vec<SeqShard>,
    /// Total banks in the system.
    pub total_banks: u32,
}

impl Sharding {
    /// Shard `batch` sequences of `seq_len` tokens over `total_banks`
    /// banks: banks are split evenly among sequences, and no sequence gets
    /// more banks than it has tokens (a bank must own at least one token).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `seq_len == 0`, or `total_banks == 0`.
    pub fn new(total_banks: u32, batch: u32, seq_len: u32) -> Self {
        assert!(batch > 0 && seq_len > 0 && total_banks > 0, "degenerate sharding");
        let per_seq = (total_banks / batch).clamp(1, seq_len);
        let sequences = (0..batch)
            .map(|i| SeqShard {
                banks: BankRange::new(i * (total_banks / batch).max(1) % total_banks, per_seq),
                seq_len,
            })
            .collect();
        Self { sequences, total_banks }
    }

    /// Banks doing work (≤ total banks).
    pub fn active_banks(&self) -> u32 {
        self.sequences.iter().map(|s| s.banks.count).sum::<u32>().min(self.total_banks)
    }

    /// Bank utilization fraction (IMDB at batch 1 under-fills the system —
    /// the paper's explanation for its smaller speedup).
    pub fn utilization(&self) -> f64 {
        f64::from(self.active_banks()) / f64::from(self.total_banks)
    }

    /// Tokens in the fullest bank across the batch.
    pub fn max_tokens_per_bank(&self) -> u32 {
        self.sequences.iter().map(SeqShard::tokens_per_bank).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pubmed_sharding_two_tokens_per_bank() {
        // L = 4096 over 2048 banks: 2 tokens per bank.
        let s = Sharding::new(2048, 1, 4096);
        assert_eq!(s.sequences.len(), 1);
        assert_eq!(s.sequences[0].banks.count, 2048);
        assert_eq!(s.max_tokens_per_bank(), 2);
        assert_eq!(s.utilization(), 1.0);
    }

    #[test]
    fn imdb_batch_fills_banks() {
        // 16 sequences × 128 tokens over 2048 banks: one token per bank.
        let s = Sharding::new(2048, 16, 128);
        assert_eq!(s.active_banks(), 2048);
        assert_eq!(s.max_tokens_per_bank(), 1);
    }

    #[test]
    fn short_sequence_at_batch_1_underutilizes() {
        let s = Sharding::new(2048, 1, 128);
        assert_eq!(s.active_banks(), 128);
        assert!(s.utilization() < 0.1);
    }

    #[test]
    fn figure4_example_three_tokens_three_banks() {
        let s = Sharding::new(3, 1, 3);
        assert_eq!(s.sequences[0].banks.count, 3);
        assert_eq!(s.max_tokens_per_bank(), 1);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_batch_rejected() {
        Sharding::new(8, 0, 4);
    }

    proptest! {
        #[test]
        fn shards_are_disjoint_and_within_bounds(
            banks in 1u32..512, batch in 1u32..8, seq in 1u32..1000
        ) {
            let s = Sharding::new(banks, batch, seq);
            let mut seen = std::collections::HashSet::new();
            for sh in &s.sequences {
                prop_assert!(sh.banks.count >= 1);
                prop_assert!(sh.banks.count <= seq);
                for b in sh.banks.iter() {
                    prop_assert!(b.0 < banks, "bank {} out of {banks}", b.0);
                    // Ranges may wrap only when batch > banks; we only
                    // require disjointness when everything fits.
                    if u64::from(batch) * u64::from(sh.banks.count) <= u64::from(banks) {
                        prop_assert!(seen.insert(b.0), "bank {} double-assigned", b.0);
                    }
                }
            }
            // Every token is owned: tokens_per_bank × banks ≥ L.
            for sh in &s.sequences {
                prop_assert!(u64::from(sh.tokens_per_bank()) * u64::from(sh.banks.count) >= u64::from(seq));
            }
        }
    }
}
