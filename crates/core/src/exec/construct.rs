//! Element construction.
//!
//! **Owns** `eval_elem_ctor`: a constructor and the constructors nested in
//! it over the same loop are laid out once (`CtorLayout`, `Build`) and
//! built per iteration straight into the transient container.
//!
//! **May call** `DocumentBuilder`, `value` (the per-iteration walk) and
//! `scalar`'s `first_str`.

use std::rc::Rc;
use std::sync::Arc;

use mxq_engine::{Column, Item, NodeId};
use mxq_xmldb::{DocumentBuilder, TRANSIENT_FRAG};

use crate::algebra::{Op, PlanRef};

use super::{EResult, Executor, Seq, Value};

impl Executor<'_> {
    pub(super) fn eval_elem_ctor(
        &mut self,
        loop_: &PlanRef,
        name: &str,
        attrs: &[(String, PlanRef)],
        content: &[PlanRef],
    ) -> EResult<Value> {
        let loop_iters = self.loop_iters(loop_)?;
        let mut layout = CtorLayout::default();
        self.lay_out_ctor(&mut layout, loop_, name, attrs, content)?;
        let CtorLayout {
            program,
            names,
            tables,
        } = layout;
        let columns: Vec<&Column> = tables.iter().map(|t| &t.item).collect();

        // content nodes constructed by child plans already live in the
        // transient container the new elements are appended to
        let mut builder = DocumentBuilder::append_to(std::mem::take(&mut self.transient));
        // names are interned / allocated once per call, not per element
        let qids: Vec<u32> = names.iter().map(|n| builder.intern(n)).collect();

        let value = self.per_iter(loop_iters, &tables, |ex, _, runs| {
            let root_pre = builder.next_pre();
            for step in &program {
                match step {
                    Build::Start(k) => {
                        builder.start_interned(qids[*k]);
                        ex.stats.constructed_nodes += 1;
                    }
                    Build::Attr(aname, t) => {
                        let run = runs[*t].clone();
                        builder.attribute(aname, &ex.first_str(columns[*t], run));
                    }
                    Build::Content(ts) => {
                        let runs = ts.iter().map(|&t| (columns[t], runs[t].clone()));
                        ex.stats.copied_nodes += builder.append_content(runs, |frag| {
                            (frag != TRANSIENT_FRAG).then(|| ex.container(frag))
                        });
                    }
                    Build::End => builder.end_element(),
                }
            }
            Some(Item::Node(NodeId::new(TRANSIENT_FRAG, root_pre)))
        });
        self.transient = builder.finish();
        Ok(value)
    }

    /// Lay out one constructor as build instructions, evaluating its
    /// attribute and content sequences.  A content part that is itself a
    /// constructor over the same loop is laid out inline: it is built in
    /// place inside its parent instead of being materialized and then
    /// copied, which the parent's deep copy makes the same thing.  (A
    /// constructor some other consumer also uses is still evaluated there.)
    fn lay_out_ctor<'p>(
        &mut self,
        layout: &mut CtorLayout<'p>,
        loop_: &PlanRef,
        name: &'p str,
        attrs: &[(String, PlanRef)],
        content: &'p [PlanRef],
    ) -> EResult<()> {
        layout.program.push(Build::Start(layout.names.len()));
        layout.names.push(name);
        for (aname, plan) in attrs {
            layout
                .program
                .push(Build::Attr(Arc::from(aname.as_str()), layout.tables.len()));
            layout.tables.push(self.eval_in_iter_order(plan)?);
        }
        for part in content {
            match &part.op {
                Op::ElemCtor {
                    loop_: inner,
                    name,
                    attrs,
                    content,
                } if inner.id == loop_.id => {
                    self.lay_out_ctor(layout, loop_, name, attrs, content)?;
                }
                _ => {
                    let t = layout.tables.len();
                    match layout.program.last_mut() {
                        Some(Build::Content(ts)) => ts.push(t),
                        _ => layout.program.push(Build::Content(vec![t])),
                    }
                    layout.tables.push(self.eval_in_iter_order(part)?);
                }
            }
        }
        layout.program.push(Build::End);
        Ok(())
    }
}

/// An element constructor laid out for its per-iteration build
/// ([`Executor::lay_out_ctor`]): the instructions, the element names they
/// open and the evaluated attribute and content sequences they read.
#[derive(Default)]
struct CtorLayout<'p> {
    program: Vec<Build>,
    names: Vec<&'p str>,
    tables: Vec<Rc<Seq>>,
}

/// One instruction of an element constructor's per-iteration build.
enum Build {
    /// Open an element named `names[k]`.
    Start(usize),
    /// Add an attribute: its name, and the sequence of its string values.
    Attr(Arc<str>, usize),
    /// Append the items of these sequences as one content sequence (adjacent
    /// atomics merge across them).
    Content(Vec<usize>),
    /// Close the element.
    End,
}
