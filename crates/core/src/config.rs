//! Execution / optimization configuration and runtime statistics.
//!
//! Every optimization the paper evaluates is an independent switch here so
//! the ablation experiments (Figures 12–14, Section 4.2) can be reproduced by
//! toggling exactly one knob at a time.

use mxq_staircase::ScanStats;

/// Optimization and execution switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Evaluate `child` steps with the loop-lifted staircase join (Section 3);
    /// when false, the plain staircase join is invoked once per iteration
    /// (the "iterative child step" configuration of Figure 12).
    pub loop_lifted_child: bool,
    /// Same switch for the `descendant`/`descendant-or-self` axes.
    pub loop_lifted_descendant: bool,
    /// Push simple name tests below the location step using the element-name
    /// index (Section 3.2, the "nametest" configuration of Figure 12).
    pub nametest_pushdown: bool,
    /// Recognise value-based joins hidden in FLWOR/where nesting and compile
    /// them to relational joins instead of loop-lifted Cartesian products
    /// (Section 4.1, Figure 13).
    pub join_recognition: bool,
    /// Exploit order (Section 4.1, Figure 14).  Every operator emits its
    /// table sorted on `[iter, pos]` with positions `1..k` (the convention
    /// documented on [`crate::algebra::Op`]); this mode trusts that, skips
    /// the sorts that would re-establish it and renumbers positions with the
    /// streaming row numbering.  When false every order requirement is
    /// (re-)established with a full sort.
    pub order_aware: bool,
    /// For non-equality existential comparisons, push min/max aggregates
    /// below the theta-join (Figure 8(b)); when false the join produces
    /// duplicate iteration pairs removed by a δ afterwards (Figure 8(a)).
    pub existential_minmax: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            loop_lifted_child: true,
            loop_lifted_descendant: true,
            nametest_pushdown: true,
            join_recognition: true,
            order_aware: true,
            existential_minmax: true,
        }
    }
}

impl ExecConfig {
    /// The fully optimized configuration (all switches on) — the default.
    pub fn optimized() -> Self {
        Self::default()
    }

    /// A stable fingerprint of the configuration, used as part of plan-cache
    /// keys.  Every field feeds the key — two configs that differ in any of
    /// them must never share a cached statement, even when the difference
    /// changes only how a plan runs rather than its shape.  The exhaustive
    /// destructuring makes a field added later a compile error here until
    /// it feeds the key.
    pub fn fingerprint(&self) -> u64 {
        let ExecConfig {
            loop_lifted_child,
            loop_lifted_descendant,
            nametest_pushdown,
            join_recognition,
            order_aware,
            existential_minmax,
        } = *self;
        [
            loop_lifted_child,
            loop_lifted_descendant,
            nametest_pushdown,
            join_recognition,
            order_aware,
            existential_minmax,
        ]
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
    }

    /// The fully naive configuration (all switches off): iterative staircase
    /// joins, no join recognition, no order awareness.
    pub fn naive() -> Self {
        ExecConfig {
            loop_lifted_child: false,
            loop_lifted_descendant: false,
            nametest_pushdown: false,
            join_recognition: false,
            order_aware: false,
            existential_minmax: false,
        }
    }
}

/// Statistics gathered while executing one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Staircase join counters (nodes scanned, passes, …).
    pub staircase: ScanStats,
    /// Number of full sorts performed.
    pub sorts: u64,
    /// Number of sorts avoided: the order-aware mode took an input's
    /// `[iter, pos]` order from the table convention, or a location step's
    /// emission order was already `(iter, document order)`.
    pub sorts_avoided: u64,
    /// Number of algebra operators evaluated (memoised nodes count once).
    pub ops_evaluated: u64,
    /// Total rows of all materialised intermediate tables.
    pub rows_materialized: u64,
    /// Largest single intermediate table (rows).
    pub peak_rows: u64,
    /// Join pairs produced by theta/equi joins (before duplicate elimination).
    pub join_pairs: u64,
    /// Elements constructed in the transient container.
    pub constructed_nodes: u64,
    /// Node rows element construction appended by copying content
    /// subtrees (within the transient container and out of the store).
    pub copied_nodes: u64,
    /// Equi-joins whose operands are `Dict` columns over one dictionary
    /// instance: the joins that run code-to-code.
    pub proven_dict_joins: u64,
}

impl ExecStats {
    /// Record the materialisation of an intermediate result of `rows` rows.
    pub fn record_table(&mut self, rows: usize) {
        self.rows_materialized += rows as u64;
        self.peak_rows = self.peak_rows.max(rows as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let c = ExecConfig::default();
        assert!(c.loop_lifted_child && c.join_recognition && c.order_aware);
        let n = ExecConfig::naive();
        assert!(!n.loop_lifted_child && !n.join_recognition && !n.order_aware);
    }

    #[test]
    fn fingerprint_covers_every_execution_affecting_field() {
        let base = ExecConfig::default();
        let variants = [
            ExecConfig {
                loop_lifted_child: !base.loop_lifted_child,
                ..base
            },
            ExecConfig {
                loop_lifted_descendant: !base.loop_lifted_descendant,
                ..base
            },
            ExecConfig {
                nametest_pushdown: !base.nametest_pushdown,
                ..base
            },
            ExecConfig {
                join_recognition: !base.join_recognition,
                ..base
            },
            ExecConfig {
                order_aware: !base.order_aware,
                ..base
            },
            ExecConfig {
                existential_minmax: !base.existential_minmax,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(
                v.fingerprint(),
                base.fingerprint(),
                "flipping a field must change the fingerprint: {v:?}"
            );
        }
    }

    #[test]
    fn record_table_tracks_peak() {
        let mut s = ExecStats::default();
        s.record_table(10);
        s.record_table(3);
        assert_eq!(s.rows_materialized, 13);
        assert_eq!(s.peak_rows, 10);
    }
}
