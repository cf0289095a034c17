//! Compiled statements and the plan cache.
//!
//! **Owns** [`CompiledStatement`], the shape key a text is cached under,
//! the one LRU of [`PLAN_CACHE_CAPACITY`] compiled shapes, and the compile
//! entry points [`Database::compile_cached`] / `compile_parsed`.  A text is
//! parsed, its literals are lifted into parameter slots, and every text of
//! one shape (under one configuration fingerprint) shares one plan.
//!
//! **May call** the parser, the compiler and plan analysis.  It takes only
//! the plan-cache mutex, for one map lookup or insert at a time, and never
//! while compiling.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mxq_engine::Item;

use super::Database;
use crate::algebra::PlanRef;
use crate::analysis::{self, Analysis, Rewrite};
use crate::ast::Statement;
use crate::compile::{lift_literals, Compiler};
use crate::config::ExecConfig;
use crate::parser::parse_statement;
use crate::pul::UpdatePlan;
use crate::Error;

/// Number of compiled statement shapes the plan cache retains.
pub(crate) const PLAN_CACHE_CAPACITY: usize = 256;

/// A parsed + compiled statement, shareable across sessions and threads.
#[derive(Debug)]
pub(crate) enum CompiledStatement {
    /// A compiled query plan.
    Query {
        plan: PlanRef,
        operators: usize,
        externals: Vec<String>,
        /// Property-driven rewrites the simplifier applied at compile time.
        rewrites: Vec<Rewrite>,
    },
    /// A compiled update plan.
    Update {
        plan: UpdatePlan,
        externals: Vec<String>,
    },
}

impl CompiledStatement {
    pub(super) fn externals(&self) -> &[String] {
        match self {
            CompiledStatement::Query { externals, .. } => externals,
            CompiledStatement::Update { externals, .. } => externals,
        }
    }
}

/// What [`Database::compile_cached`] returns: the plan of a text's shape
/// and the literals this text fills its parameter slots with.
pub(crate) struct Shaped {
    pub(super) compiled: Arc<CompiledStatement>,
    pub(super) literals: Vec<Item>,
    /// Served from the plan cache?
    pub(super) hit: bool,
}

/// A plan-cache key: a statement's *shape* — the parsed statement with its
/// literals lifted into parameter slots ([`crate::compile::lift_literals`])
/// — under one configuration fingerprint.  Texts that differ only in lifted
/// constants (or in whitespace and comments) have equal keys.  The hash is
/// taken once, when the key is built, and is the map's hash.
pub(super) struct ShapeKey {
    hash: u64,
    fp: u64,
    shape: Statement,
}

impl ShapeKey {
    pub(super) fn new(fp: u64, shape: Statement) -> Self {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        fp.hash(&mut h);
        shape.hash(&mut h);
        ShapeKey {
            hash: h.finish(),
            fp,
            shape,
        }
    }
}

impl PartialEq for ShapeKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.fp == other.fp && self.shape == other.shape
    }
}

impl Eq for ShapeKey {}

impl std::hash::Hash for ShapeKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// LRU cache of compiled statements keyed by statement shape.
pub(super) struct PlanCache {
    capacity: usize,
    tick: u64,
    /// Shape → (compiled, last-used tick).
    map: HashMap<ShapeKey, (Arc<CompiledStatement>, u64)>,
}

impl PlanCache {
    pub(super) fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    pub(super) fn get(&mut self, key: &ShapeKey) -> Option<Arc<CompiledStatement>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.1 = tick;
            entry.0.clone()
        })
    }

    pub(super) fn insert(&mut self, key: ShapeKey, stmt: Arc<CompiledStatement>) {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // evict the least recently used entry (linear scan: the cache is
            // small and eviction is rare compared to hits)
            if let Some(oldest) = self.map.values().map(|(_, tick)| *tick).min() {
                self.map.retain(|_, (_, tick)| *tick != oldest);
            }
        }
        self.tick += 1;
        self.map.insert(key, (stmt, self.tick));
    }

    pub(super) fn len(&self) -> usize {
        self.map.len()
    }
}

impl Database {
    /// Parse a statement text, lift its literals, and look up (or compile
    /// and insert) the plan of its shape under a configuration.
    pub(crate) fn compile_cached(&self, text: &str, config: ExecConfig) -> Result<Shaped, Error> {
        let mut shape = parse_statement(text)?;
        let literals = lift_literals(&mut shape);
        let key = ShapeKey::new(config.fingerprint(), shape);
        let cached = self.plan_cache.lock().unwrap().get(&key);
        if let Some(compiled) = cached {
            self.counters
                .plan_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(Shaped {
                compiled,
                literals,
                hit: true,
            });
        }
        self.counters
            .plan_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(self.compile_parsed(&key.shape, config)?);
        self.plan_cache
            .lock()
            .unwrap()
            .insert(key, compiled.clone());
        Ok(Shaped {
            compiled,
            literals,
            hit: false,
        })
    }

    /// Parse + compile a statement with its literals inline (no cache).
    pub(crate) fn compile_statement(
        &self,
        text: &str,
        config: ExecConfig,
    ) -> Result<CompiledStatement, Error> {
        self.compile_parsed(&parse_statement(text)?, config)
    }

    /// Compile a parsed statement, verify and simplify its plan.
    fn compile_parsed(
        &self,
        statement: &Statement,
        config: ExecConfig,
    ) -> Result<CompiledStatement, Error> {
        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
        let mut compiler = Compiler::new(config);
        match statement {
            Statement::Query(q) => {
                let plan = compiler.compile_query(q)?;
                // static analysis: verify the compiled plan's structural
                // invariants, then let the inferred properties remove
                // provably redundant operators and fuse counted joins; the
                // rewritten plan is verified again
                let props = analysis::analyze(&plan);
                analysis::verify(&plan, &props)?;
                let simplified = analysis::simplify(&plan, &props);
                let plan = simplified.plan;
                analysis::verify(&plan, &analysis::analyze(&plan))?;
                let operators = plan.operator_count();
                Ok(CompiledStatement::Query {
                    plan,
                    operators,
                    externals: compiler.external_variables().to_vec(),
                    rewrites: simplified.rewrites,
                })
            }
            Statement::Update(u) => {
                let plan = compiler.compile_update(u)?;
                let mut props = Analysis::default();
                for root in plan.roots() {
                    props.extend_with(root);
                }
                for root in plan.roots() {
                    analysis::verify(root, &props)?;
                }
                Ok(CompiledStatement::Update {
                    plan,
                    externals: compiler.external_variables().to_vec(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with(xml: &str) -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.load_document("doc.xml", xml).unwrap();
        db
    }

    #[test]
    fn plan_cache_counters_add_up_under_concurrent_prepares() {
        // N sessions hammer the cache with overlapping statement shapes; the
        // cache must never lose a lookup: every compile_cached call is
        // exactly one hit or one miss, whatever the interleaving.
        let db = db_with("<a><b/></a>");
        let queries: Vec<String> = [
            "count(doc(\"doc.xml\")/a/b) + 1",
            "count(doc(\"doc.xml\")/a/b) - 1",
            "count(doc(\"doc.xml\")/a) + 1",
            "count(doc(\"doc.xml\")//b) + 1",
            "sum(doc(\"doc.xml\")/a/b) + 1",
            "count(doc(\"doc.xml\")/a/b[1]) + 1",
        ]
        .map(String::from)
        .to_vec();
        let mut lookups = 0u64;
        std::thread::scope(|scope| {
            for t in 0..4 {
                let db = &db;
                let queries = &queries;
                scope.spawn(move || {
                    let mut s = db.session();
                    for round in 0..5 {
                        let q = &queries[(t + round) % queries.len()];
                        s.query(q).unwrap();
                    }
                });
            }
        });
        lookups += 4 * 5;
        let stats = db.stats();
        assert_eq!(
            stats.plan_cache_hits + stats.plan_cache_misses,
            lookups,
            "every lookup is exactly one hit or one miss"
        );
        assert_eq!(
            stats.plan_cache_misses, stats.prepares,
            "every miss compiled exactly once"
        );
        // all six shapes fit the cache, so they are all resident and a
        // re-run is all hits
        assert_eq!(db.stats().plan_cache_len, queries.len());
        let mut s = db.session();
        for q in &queries {
            s.query(q).unwrap();
        }
        let after = db.stats();
        assert_eq!(after.plan_cache_hits, stats.plan_cache_hits + 6);
        assert_eq!(after.plan_cache_misses, stats.plan_cache_misses);

        // texts that differ only in a lifted literal share one entry
        for i in 2..=7 {
            let r = s
                .query(&format!("count(doc(\"doc.xml\")/a/b) + {i}"))
                .unwrap();
            assert_eq!(r.serialize(), (1 + i).to_string());
        }
        let variants = db.stats();
        assert_eq!(variants.plan_cache_hits, after.plan_cache_hits + 6);
        assert_eq!(variants.prepares, after.prepares);
        assert_eq!(db.stats().plan_cache_len, queries.len());
    }

    #[test]
    fn plan_cache_holds_its_full_capacity() {
        let db = db_with("<a><b/></a>");
        let mut s = db.session();
        // element names are part of a shape, so these are distinct shapes
        let shape = |i: usize| format!("count(doc(\"doc.xml\")/a/e{i})");
        for i in 0..PLAN_CACHE_CAPACITY {
            s.query(&shape(i)).unwrap();
        }
        let filled = db.stats();
        assert_eq!(filled.plan_cache_misses, PLAN_CACHE_CAPACITY as u64);
        assert_eq!(filled.plan_cache_len, PLAN_CACHE_CAPACITY);

        // every re-run is a hit: nothing was evicted before the cache held
        // its full capacity
        for i in 0..PLAN_CACHE_CAPACITY {
            s.query(&shape(i)).unwrap();
        }
        let rerun = db.stats();
        assert_eq!(
            rerun.plan_cache_hits,
            filled.plan_cache_hits + PLAN_CACHE_CAPACITY as u64,
            "a re-run of {PLAN_CACHE_CAPACITY} cached shapes missed"
        );
        assert_eq!(rerun.plan_cache_misses, filled.plan_cache_misses);

        // one shape more evicts exactly the least recently used one: shape 0
        s.query(&shape(PLAN_CACHE_CAPACITY)).unwrap();
        assert_eq!(db.stats().plan_cache_len, PLAN_CACHE_CAPACITY);
        let before = db.stats();
        for i in 1..=PLAN_CACHE_CAPACITY {
            s.query(&shape(i)).unwrap();
        }
        let after = db.stats();
        assert_eq!(after.plan_cache_misses, before.plan_cache_misses);
        s.query(&shape(0)).unwrap();
        assert_eq!(
            db.stats().plan_cache_misses,
            after.plan_cache_misses + 1,
            "shape 0 was the one evicted"
        );
    }
}
