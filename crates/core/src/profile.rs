//! Per-operator execution profiles (`EXPLAIN ANALYZE`).
//!
//! A profiled [`Executor`](crate::Executor) times every plan node it
//! evaluates at its one chokepoint, `Executor::eval`: inclusive time from
//! entry to exit, self time (inclusive minus the inclusive time of the
//! children evaluated inside it), rows out, memo hits, and the sorts done
//! and avoided and the staircase rows scanned and runs skipped inside the
//! node itself.  Without profiling the sink is `None` and each evaluation
//! pays one branch.
//!
//! [`Session::profile`](crate::Session::profile) and
//! [`Prepared::profile`](crate::Prepared::profile) run a query with the
//! sink on and return a [`Profile`]; its `Display` is the annotated plan.

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use crate::algebra::PlanRef;
use crate::config::ExecStats;

/// What one plan node cost in one profiled execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Plan node id (as in `Plan::explain`).
    pub id: usize,
    /// Short operator name (`Plan::op_name`).
    pub op: &'static str,
    /// Depth of the node's first occurrence in the plan DAG (root 0).
    pub depth: usize,
    /// Times the node was evaluated; 0 for a node its consumer ran in place
    /// (a nested element constructor built inside its parent).
    pub evals: u64,
    /// Time inside the node itself, excluding its children's evaluations.
    pub self_ns: u64,
    /// Time from entry to exit, children included.
    pub total_ns: u64,
    /// Rows of the table the node emitted.
    pub rows: u64,
    /// Evaluations answered from the memo (the node is shared).
    pub memo_hits: u64,
    /// Full sorts done inside the node itself.
    pub sorts: u64,
    /// Sorts the node skipped because its input's order was known.
    pub sorts_avoided: u64,
    /// Document rows the node's own location steps examined
    /// (`ScanStats::nodes_scanned`).
    pub nodes_scanned: u64,
    /// Storage runs the node's own location steps passed over untouched
    /// (`ScanStats::pages_skipped`).
    pub pages_skipped: u64,
}

/// The per-operator profile of one query execution.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One row per plan node, in preorder of the plan DAG (a shared node
    /// once, at its first occurrence).
    pub ops: Vec<OpProfile>,
    /// Wall time of the whole execution (evaluating the plan and handing
    /// back its result items; serialization excluded).
    pub exec_ns: u64,
    /// Number of result items.
    pub result_items: usize,
    /// The execution's runtime counters.
    pub stats: ExecStats,
}

impl Profile {
    /// Sum of the operators' self times; close to [`Profile::exec_ns`],
    /// which also covers the memo lookups and the final result extraction.
    pub fn self_ns_total(&self) -> u64 {
        self.ops.iter().map(|o| o.self_ns).sum()
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(
            f,
            "{:>9} {:>9} {:>8} {:>5} {:>5} {:>5} {:>8} {:>5}  operator",
            "self ms", "total ms", "rows", "memo", "sorts", "avoid", "scanned", "skip"
        )?;
        for o in &self.ops {
            let indent = "  ".repeat(o.depth);
            if o.evals == 0 {
                writeln!(
                    f,
                    "{:>9} {:>9} {:>8} {:>5} {:>5} {:>5} {:>8} {:>5}  {indent}[{}] {} (in parent)",
                    "-", "-", "-", "-", "-", "-", "-", "-", o.id, o.op
                )?;
                continue;
            }
            writeln!(
                f,
                "{:>9.3} {:>9.3} {:>8} {:>5} {:>5} {:>5} {:>8} {:>5}  {indent}[{}] {}",
                ms(o.self_ns),
                ms(o.total_ns),
                o.rows,
                o.memo_hits,
                o.sorts,
                o.sorts_avoided,
                o.nodes_scanned,
                o.pages_skipped,
                o.id,
                o.op
            )?;
        }
        write!(
            f,
            "execution {:.3} ms, operator self times {:.3} ms, {} result items",
            ms(self.exec_ns),
            ms(self.self_ns_total()),
            self.result_items
        )
    }
}

/// The counters a node is charged for: sorts done and avoided, staircase
/// rows scanned and runs skipped.
#[derive(Clone, Copy, Default)]
struct Work([u64; 4]);

impl Work {
    fn of(stats: &ExecStats) -> Work {
        Work([
            stats.sorts,
            stats.sorts_avoided,
            stats.staircase.nodes_scanned,
            stats.staircase.pages_skipped,
        ])
    }

    fn minus(self, other: Work) -> Work {
        Work(std::array::from_fn(|i| self.0[i] - other.0[i]))
    }

    fn add(&mut self, other: Work) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// One open evaluation: when it started, the counters at entry, and what
/// its children took.
struct Frame {
    start: Instant,
    entry: Work,
    child_ns: u64,
    child_work: Work,
}

/// The executor's profile sink: per plan node costs, and the stack of
/// evaluations in progress.
#[derive(Default)]
pub(crate) struct ProfileSink {
    costs: HashMap<usize, OpProfile>,
    open: Vec<Frame>,
}

impl ProfileSink {
    /// A memoised evaluation of node `id`.
    pub(crate) fn memo_hit(&mut self, id: usize) {
        self.costs.entry(id).or_default().memo_hits += 1;
    }

    /// An evaluation starts; `stats` are the counters at entry.
    pub(crate) fn enter(&mut self, stats: &ExecStats) {
        self.open.push(Frame {
            start: Instant::now(),
            entry: Work::of(stats),
            child_ns: 0,
            child_work: Work::default(),
        });
    }

    /// The evaluation of node `id` (the innermost open one) ends with
    /// `rows` rows (`None`: it failed); `stats` are the counters at exit.
    pub(crate) fn exit(&mut self, id: usize, rows: Option<usize>, stats: &ExecStats) {
        let Some(frame) = self.open.pop() else { return };
        let total = frame.start.elapsed().as_nanos() as u64;
        let work = Work::of(stats).minus(frame.entry);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += total;
            parent.child_work.add(work);
        }
        let [sorts, avoided, scanned, skipped] = work.minus(frame.child_work).0;
        let cost = self.costs.entry(id).or_default();
        cost.evals += 1;
        cost.total_ns += total;
        cost.self_ns += total.saturating_sub(frame.child_ns);
        cost.rows += rows.unwrap_or(0) as u64;
        cost.sorts += sorts;
        cost.sorts_avoided += avoided;
        cost.nodes_scanned += scanned;
        cost.pages_skipped += skipped;
    }

    /// The rows of `plan`'s nodes, in preorder.
    pub(crate) fn rows(&self, plan: &PlanRef) -> Vec<OpProfile> {
        let mut rows = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut todo = vec![(plan.clone(), 0)];
        while let Some((p, depth)) = todo.pop() {
            if !seen.insert(p.id) {
                continue;
            }
            let cost = self.costs.get(&p.id).cloned().unwrap_or_default();
            rows.push(OpProfile {
                id: p.id,
                op: p.op_name(),
                depth,
                ..cost
            });
            todo.extend(p.children().into_iter().rev().map(|c| (c, depth + 1)));
        }
        rows
    }
}
