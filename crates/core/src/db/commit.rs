//! The commit pipeline: one set of named phases for updates, loads and
//! WAL replay.
//!
//! **Owns** the phases, in pipeline order:
//!
//! 1. **evaluate** ([`Database::evaluate_update_pul`]): snapshot
//!    evaluation of an update plan into a pending-update list plus the
//!    set of fragments it read;
//! 2. **latch** (`latch`): the fragment latches of the write and read
//!    sets, in ascending fragment order;
//! 3. **validate** (`validate`): detect a latched fragment republished
//!    since the evaluation snapshot, which forces a re-evaluation;
//! 4. **ticket**: [`CommitOrder::begin`](super::latch::CommitOrder) draws
//!    the generation the commit lands on;
//! 5. **log** (`log`): the WAL append, before any master mutates;
//! 6. **splice** ([`splice`]): master reconstruction if needed, PUL
//!    application, snapshot of the result;
//! 7. **wait_durable** (`wait_durable`): the group-commit fsync wait;
//! 8. **publish** (`publish`): store `Arc` swaps, generation, dirty marks.
//!
//! An update runs all eight (`try_apply_update`); a load runs ticket →
//! log → wait_durable → publish (`commit_load`); recovery replay runs
//! splice → publish for an update and publish for a load, and never logs.
//!
//! **May call** `latch` (latches, tickets, turnstile), `collect` (PUL
//! validation), the executor (evaluation) and the durability attachment
//! (append, fsync wait, dirty marks).  Lock order: fragment latches (in
//! ascending order) → ticket → store → ckpt → wal.  Dirty marks need
//! `&mut DocStore`, so only `publish`, inside the store write lock, can
//! make them.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

use mxq_engine::Item;
use mxq_xmldb::{
    shred, Container, Document, PagedDocument, ShredOptions, StoreSnapshot, UpdateStats,
    TRANSIENT_FRAG,
};

use super::collect::PrimitiveCollector;
use super::latch::FragLatch;
use super::{Database, UpdateReport};
use crate::config::ExecConfig;
use crate::durability;
use crate::exec::Executor;
use crate::params::Params;
use crate::pul::{PendingUpdateList, UpdateKind, UpdatePlan, UpdateTarget};
use crate::Error;

/// What a commit publishes.
pub(super) enum Change {
    /// Fresh snapshots of existing fragments (an update).
    Snapshots(Vec<(u32, Arc<Document>)>),
    /// A new document (a load); it gets the next fragment id.
    Load(Box<Document>),
}

/// Shred a document text the way loads do: with a document node, so
/// `fn:doc(name)/root` navigates as in the XQuery data model.
pub(super) fn shred_document(name: &str, xml: &str) -> Result<Document, Error> {
    let opts = ShredOptions {
        document_node: true,
        ..ShredOptions::default()
    };
    Ok(shred(name, xml, &opts)?)
}

impl Database {
    /// Shred and load an XML document under the given name (the name is what
    /// `fn:doc("name")` refers to).  On a durable database the load is
    /// WAL-logged (and synced per the policy) before it is published, like
    /// any update.
    pub fn load_document(&self, name: &str, xml: &str) -> Result<(), Error> {
        // shred exactly once: an invalid document is rejected before it is
        // logged (recovery must never trip over a failed operation), and
        // the shredded result is what the store pages — the text is not
        // parsed a second time
        let doc = shred_document(name, xml)?;
        self.commit_load(doc, |_| durability::encode_load_xml(name, xml))
    }

    /// Load an already shredded document.  WAL-logged on a durable database
    /// (the document travels as an encoded image).
    pub fn load_shredded(&self, doc: Document) -> Result<(), Error> {
        self.commit_load(doc, durability::encode_load_doc)
    }

    /// Commit a document load: ticket → log → wait_durable → publish.
    /// Loads take no fragment latch — the fragment does not exist yet, so
    /// no other writer can touch it; the commit ticket alone orders the
    /// load against every concurrent commit.  The fragment id is assigned
    /// inside the publish turnstile, so ids are dense in ticket order and
    /// recovery (which replays records in stamp order) reassigns the exact
    /// same ids.
    fn commit_load(
        &self,
        doc: Document,
        payload: impl FnOnce(&Document) -> Vec<u8>,
    ) -> Result<(), Error> {
        let ticket = self.commit.begin();
        let seq = self.log(ticket, || payload(&doc))?;
        self.wait_durable(ticket, seq)?;
        self.commit
            .publish(ticket, || self.publish(ticket, Change::Load(Box::new(doc))))
    }

    /// Evaluate phase: evaluate a compiled update plan against `snap` and
    /// collect the validated pending-update list (snapshot evaluation of
    /// every statement's plans, then primitive collection).  Pure with
    /// respect to the store — nothing is mutated.
    ///
    /// Also returns the **read set**: every store fragment the evaluation
    /// read (documents resolved by `fn:doc`, node items bound through
    /// external variables, container accesses, and the fragments of the
    /// evaluated target/source items the collector copies from).  The
    /// commit pipeline latches these along with the write set so the
    /// values this PUL was computed from stay frozen until it publishes.
    pub(super) fn evaluate_update_pul(
        &self,
        uplan: &UpdatePlan,
        config: ExecConfig,
        params: &Params,
        snap: &StoreSnapshot,
    ) -> Result<(PendingUpdateList, Vec<u32>), Error> {
        struct Evaled {
            kind: UpdateKind,
            targets: Vec<Item>,
            attr: Option<String>,
            source: Option<Vec<Item>>,
        }
        let mut evaled = Vec::with_capacity(uplan.statements.len());
        let mut exec = Executor::with_params(snap, config, params.clone());
        for stmt in &uplan.statements {
            let (targets, attr) = match &stmt.target {
                UpdateTarget::Nodes(p) => (exec.eval_result(p)?, None),
                UpdateTarget::Attribute { elem, name } => {
                    (exec.eval_result(elem)?, Some(name.clone()))
                }
            };
            let source = match &stmt.source {
                Some(p) => Some(exec.eval_result(p)?),
                None => None,
            };
            evaled.push(Evaled {
                kind: stmt.kind,
                targets,
                attr,
                source,
            });
        }
        let mut reads: HashSet<u32> = exec.read_fragments().into_iter().collect();
        // nodes constructed while evaluating sources live in the executor's
        // private transient container; the collector copies their content
        // into the primitives' own fragments, after which the container is
        // dropped with this function frame
        let transient = exec.finish().0;

        // the collector reads target context and copies source subtrees
        // straight from the snapshot — fold those fragments into the read
        // set too (targets usually are the write set, but a source node
        // living in another document is a cross-document read)
        for ev in &evaled {
            for item in ev.targets.iter().chain(ev.source.iter().flatten()) {
                if let Item::Node(n) = item {
                    if n.frag != TRANSIENT_FRAG {
                        reads.insert(n.frag);
                    }
                }
            }
        }

        let collector = PrimitiveCollector {
            snap,
            transient: &transient,
        };
        let mut pul = PendingUpdateList::new();
        for ev in &evaled {
            collector.collect(
                ev.kind,
                &ev.targets,
                ev.attr.as_deref(),
                &ev.source,
                &mut pul,
            )?;
        }
        let mut reads: Vec<u32> = reads.into_iter().collect();
        reads.sort_unstable();
        Ok((pul, reads))
    }

    /// Execute a compiled update plan: snapshot evaluation, pending-update
    /// list collection, atomic application to the paged store, eager
    /// re-materialization and publication of the touched documents.
    ///
    /// Writers touching disjoint documents run fully in parallel; writers
    /// that share a document — written *or read* by the update — queue on
    /// its fragment latch.  Latching the read set along with the write set
    /// keeps multi-writer execution serializable: an update that computes
    /// its new values from another document holds that document frozen
    /// from validation to publish, so no write-skew anomaly can commit.
    /// Publishes happen in commit-ticket order, so readers observe a
    /// linear history of atomic `Arc` swaps regardless of how the writers
    /// interleaved.
    ///
    /// One caveat short of full serializability: a `fn:doc` call that finds
    /// *no* document ("unknown document" error, or an update statement
    /// evaluating to the empty sequence because of it) has no fragment to
    /// latch, so a concurrent `load_document` is not serialized against it
    /// (a phantom).  Loads only ever add documents; they never change one
    /// an update could have read.
    pub(crate) fn apply_update(
        &self,
        uplan: &UpdatePlan,
        config: ExecConfig,
        params: &Params,
    ) -> Result<UpdateReport, Error> {
        loop {
            if let Some(report) = self.try_apply_update(uplan, config, params)? {
                return Ok(report);
            }
            // the fragment set changed between evaluation and latching
            // (another writer's commit moved a target into or out of a
            // document we had not latched) — rare; rerun the whole
            // pipeline on a fresh snapshot
        }
    }

    /// One attempt at committing an update plan, through every phase.
    /// Returns `Ok(None)` when the attempt must be restarted because
    /// re-evaluation under the latches produced a different fragment set.
    fn try_apply_update(
        &self,
        uplan: &UpdatePlan,
        config: ExecConfig,
        params: &Params,
    ) -> Result<Option<UpdateReport>, Error> {
        let snap = self.snapshot();
        let (mut pul, reads) = self.evaluate_update_pul(uplan, config, params, &snap)?;
        let frags = pul.fragments();
        let mut report = UpdateReport {
            statements: uplan.statements.len(),
            documents_touched: frags.len(),
            ..UpdateReport::default()
        };
        if frags.is_empty() {
            // nothing to do: no latch, no ticket, no WAL record
            self.counters.updates.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(report));
        }

        // the latch scope is the union of the write set and the read set
        // (see `latch_scope`)
        let scope = latch_scope(&frags, &reads);
        let latches: Vec<Arc<FragLatch>> = scope.iter().map(|&f| self.latches.latch(f)).collect();
        let mut slots = self.latch(&latches);

        let (latest, stale) = self.validate(&snap, &scope);
        if stale {
            self.counters
                .latch_conflicts
                .fetch_add(1, Ordering::Relaxed);
            let (repul, rereads) = self.evaluate_update_pul(uplan, config, params, &latest)?;
            if repul.fragments() != frags || latch_scope(&repul.fragments(), &rereads) != scope {
                // the rewritten plan touches (or reads) different documents
                // than we latched — drop the latches and restart from scratch
                return Ok(None);
            }
            pul = repul;
        }

        // the commit ticket is the generation this commit lands on.  Taken
        // only now, with every latch held: a writer inside the publish
        // turnstile can then never wait on a latch (it owns all it needs),
        // so the turnstile cannot deadlock against the latch queues.
        let ticket = self.commit.begin();
        // the WAL record is appended *before* any master mutates: on
        // failure the masters are untouched
        let seq = self.log(ticket, || durability::encode_update(pul.primitives()))?;

        let mut pages = Vec::with_capacity(frags.len());
        for (slot, &frag) in slots.iter_mut().zip(&scope) {
            if frags.binary_search(&frag).is_err() {
                // read-only latch: held for stability, nothing to apply
                continue;
            }
            let (applied, stats, page) = splice(&pul, frag, slot, &latest);
            report.primitives += applied;
            report.stats.accumulate(&stats);
            pages.push((frag, page));
        }

        let published = self.wait_durable(ticket, seq).and_then(|()| {
            self.commit
                .publish(ticket, || self.publish(ticket, Change::Snapshots(pages)))
        });
        if let Err(e) = published {
            // the spliced masters now diverge from the published state:
            // clear the slots so the next writer on these documents
            // reconstructs from the (unchanged) published snapshots.  A
            // publish error is unreachable in practice (latched fragments
            // are loaded documents); were it reached, the record is
            // already durable and the outcome indeterminate across a crash.
            for slot in &mut slots {
                **slot = None;
            }
            return Err(e);
        }
        self.counters.updates.fetch_add(1, Ordering::Relaxed);
        Ok(Some(report))
    }

    /// Latch phase: lock every latch of the commit's scope, in the given
    /// (ascending fragment) order, counting the ones another writer held.
    fn latch<'a>(
        &self,
        latches: &'a [Arc<FragLatch>],
    ) -> Vec<MutexGuard<'a, Option<PagedDocument>>> {
        latches
            .iter()
            .map(|latch| {
                latch.slot.try_lock().unwrap_or_else(|_| {
                    self.counters.latch_waits.fetch_add(1, Ordering::Relaxed);
                    latch.slot.lock().unwrap()
                })
            })
            .collect()
    }

    /// Validate phase: if any latched fragment (read or written) was
    /// republished since `snap`, the PUL may be stale (targets' pre ranks
    /// shifted, or read values changed) and must be re-evaluated against
    /// the returned current snapshot, now that the latches freeze these
    /// fragments.  One store read serves the generation probe and (only
    /// when the generation moved) the fresh snapshot — this runs once per
    /// commit, so it must not clone store state in the common unconflicted
    /// case.
    fn validate(&self, snap: &StoreSnapshot, scope: &[u32]) -> (StoreSnapshot, bool) {
        let latest = {
            let store = self.store.read().unwrap();
            if store.generation() == snap.generation() {
                snap.clone()
            } else {
                store.snapshot()
            }
        };
        let stale = snap.generation() != latest.generation()
            && scope.iter().any(|&f| !same_container(snap, &latest, f));
        (latest, stale)
    }

    /// Log phase: append the commit's record, stamped with its ticket, to
    /// the WAL.  Returns the group-commit sequence for
    /// [`wait_durable`](Database::wait_durable) (0 outside group commit,
    /// and on an in-memory database, which logs nothing).  On failure the
    /// ticket is given up.
    fn log(&self, ticket: u64, payload: impl FnOnce() -> Vec<u8>) -> Result<u64, Error> {
        let Some(durable) = &self.durable else {
            return Ok(0);
        };
        durable.append(ticket, &payload()).map_err(|e| {
            self.commit.abort(ticket);
            Error::Durability(e)
        })
    }

    /// Wait-durable phase: under group commit the record must be covered
    /// by an fsync before the commit becomes visible; a no-op otherwise.
    /// On failure the ticket is given up.
    fn wait_durable(&self, ticket: u64, seq: u64) -> Result<(), Error> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        durable.wait_durable(seq).map_err(|e| {
            self.commit.abort(ticket);
            Error::Durability(e)
        })
    }

    /// Publish phase: one store write critical section that installs the
    /// change, lands the store on `generation` and marks the changed
    /// fragments dirty for the next checkpoint, so readers observe the
    /// commit as a whole or not at all.  Live commits call this inside
    /// their turn of the turnstile; replay calls it directly.
    ///
    /// The dirty marks happen inside the critical section (lock order:
    /// store → ckpt), so a checkpoint capturing the dirty set under the
    /// store read lock sees a commit's marks and its published containers
    /// together or not at all.
    pub(super) fn publish(&self, generation: u64, change: Change) -> Result<(), Error> {
        let mut store = self.store.write().unwrap();
        let frags = match change {
            Change::Snapshots(pages) => {
                let mut frags = Vec::with_capacity(pages.len());
                for (frag, page) in pages {
                    store.publish(frag, page)?;
                    frags.push(frag);
                }
                frags
            }
            Change::Load(doc) => vec![store.add_document(*doc)],
        };
        store.set_generation(generation);
        if let Some(durable) = &self.durable {
            durable.mark_dirty(&mut store, &frags);
        }
        Ok(())
    }
}

/// Splice phase: apply `pul`'s primitives on `frag` to the fragment's
/// master in `slot` — one column-image patch per primitive, outside any
/// store lock — reconstructing the master from `published` first when the
/// slot is empty.  Returns the primitives applied, the storage cost and
/// the snapshot to publish.
pub(super) fn splice(
    pul: &PendingUpdateList,
    frag: u32,
    slot: &mut Option<PagedDocument>,
    published: &StoreSnapshot,
) -> (usize, UpdateStats, Arc<Document>) {
    let master = slot.get_or_insert_with(|| {
        // an `Arc` clone of the published image (an evicted document is
        // faulted back in from its checkpoint image first); chunks are
        // copied on first write
        PagedDocument::from_document(published.container_owned(frag).document())
    });
    let before = master.stats;
    let applied = pul.apply_to(frag, master);

    // the patched image must still be a well-formed document (debug builds
    // only — this is O(document))
    #[cfg(debug_assertions)]
    master
        .columns()
        .check_invariants()
        .expect("incremental column maintenance broke the image");

    let stats = master.stats.delta_since(&before);
    (applied, stats, Arc::new(master.snapshot()))
}

/// The latch scope of a commit: the union of its write set and read set,
/// ascending and deduplicated (both inputs are sorted fragment lists).
///
/// Latching the reads too is what makes multi-writer commits
/// serializable: an update that reads document B while writing document
/// A holds B's latch from validation to publish, so no concurrent commit
/// can republish B under the values this PUL was computed from (write
/// skew).  Reads are usually a subset of the writes, in which case this
/// degenerates to the plain write-set latching and disjoint-document
/// writers still share nothing.  The ascending order means two writers
/// latching overlapping sets cannot deadlock.
pub(super) fn latch_scope(writes: &[u32], reads: &[u32]) -> Vec<u32> {
    let mut scope: Vec<u32> = writes.iter().chain(reads).copied().collect();
    scope.sort_unstable();
    scope.dedup();
    scope
}

/// True when `frag` resolves to the same published container in both
/// snapshots.  Pointer identity suffices: every publish installs a fresh
/// `Arc`, so an equal pointer means no commit republished the fragment
/// between the two snapshots.
fn same_container(a: &StoreSnapshot, b: &StoreSnapshot, frag: u32) -> bool {
    match (a.container_owned(frag), b.container_owned(frag)) {
        (Container::Paged(x), Container::Paged(y)) => Arc::ptr_eq(&x, &y),
        (Container::Evicted(x), Container::Evicted(y)) => Arc::ptr_eq(&x, &y),
        _ => false,
    }
}
