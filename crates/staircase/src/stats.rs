//! Scan statistics recorded by the staircase join implementations.

/// Counters describing how much work an axis step did.
///
/// The paper's claim (Section 3) is that the loop-lifted staircase join never
/// touches more than `|result| + |context|` nodes of the document encoding;
/// property tests assert this bound using these counters, and the
/// `staircase_micro` bench reports them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Document-encoding rows examined: a scanning step counts every row its
    /// sweep visits and the context nodes themselves, an index-driven step
    /// ([`crate::looplifted_step_candidates`]) the candidates it looks at.
    pub nodes_scanned: u64,
    /// Context entries consumed.
    pub contexts: u64,
    /// Result tuples emitted.
    pub results: u64,
    /// Number of sequential passes over the document table (1 for the
    /// loop-lifted variant, one per iteration for the iterative variant).
    pub passes: u64,
    /// Whole storage runs (chunks of the paged store's column image) inside
    /// a context region that were passed over without touching a row: their
    /// kind summary ruled the node test out (scanning step), or their
    /// element-name index holds no entry for the name (index-driven step).
    pub pages_skipped: u64,
}

impl ScanStats {
    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = ScanStats::default();
    }

    /// Merge another statistics record into this one.
    pub fn merge(&mut self, other: &ScanStats) {
        self.nodes_scanned += other.nodes_scanned;
        self.contexts += other.contexts;
        self.results += other.results;
        self.passes += other.passes;
        self.pages_skipped += other.pages_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_reset() {
        let mut a = ScanStats {
            nodes_scanned: 5,
            contexts: 2,
            results: 3,
            passes: 1,
            pages_skipped: 0,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.nodes_scanned, 10);
        assert_eq!(a.passes, 2);
        a.reset();
        assert_eq!(a, ScanStats::default());
    }
}
