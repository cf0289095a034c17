//! The stored form of every node container: its relational image, with
//! coded name and attribute columns, cut into **chunks** that are the
//! logical pages of the paper's update scheme (Section 5.2).
//!
//! The paper's storage layer keeps the structural `pre|size|level` table in
//! dense columns and the node names in an interned qname container
//! (Figure 9).  [`DocumentColumns`] is that layout, cut into chunks of a
//! power-of-two row target (MonetDB/X100-style): each chunk holds its
//! own `size` (u32) / `level` (u16) / `kind` (one byte) / name-code (u32)
//! vectors plus a u32 text end offset — 15 bytes a row — and one text
//! heap: the content of its text/comment/PI rows back to back, each row's
//! text the heap bytes between the end of the row before it and its own
//! (MonetDB's string heap, per chunk), so element and document rows hold
//! empty spans and a text costs its bytes and nothing else.  Next to them
//! sit the `owner|name|value` attribute rows of *its* nodes (owners stored
//! chunk-locally).  Element names (with PI targets) and attribute names
//! are coded by two **append-only interners** ([`Names`]): a name's code
//! is the rank it was first seen at and never moves.  Attribute *values*
//! are coded against a **shared sorted dictionary**, since value codes are
//! compared: sorts, min/max and the shared-code joins run on them.
//! The name column holds element names and PI targets (every other row
//! encodes the empty string).  This is the only copy of a container's
//! nodes — a loaded document's, a shredded one's, a statement's transient's:
//! there is no tuple table behind it.
//!
//! [`crate::DocumentBuilder`] writes the image through a build session
//! (`Appender`): rows fill the open last chunk, so every chunk but the
//! last keeps `chunk_rows` rows and locating a row stays a shift.  The
//! shredder, construction, the XQUF insert sources, the on-disk decoders
//! and the naive scheme's rebuild all write rows that way; a copy of a
//! subtree is a range copy of column slices and heap bytes within one
//! image, or a row walk that maps each distinct code once (and copies each
//! text's bytes) from another.
//!
//! Every write interns the names it brings straight into the image's
//! interners (copying an interner a published snapshot still shares on its
//! first new name), so a new name rewrites no chunk.  One path turns
//! attribute values into codes: a write's session dictionary gives a value
//! the dictionary lacks a provisional code, and the write's end merges
//! those values in once and remaps the value codes of the chunks that hold
//! one the merge moves.  A build session ends so, and so does every patch
//! of [`crate::update::PagedDocument`] that brings a value: the splice of
//! an inserted fragment's rows (mapped from the fragment's own image) and
//! an attribute write.  Its other patches (removals, ancestor `size`
//! deltas, renames, text writes) touch no dictionary.  Every chunk keeps
//! an upper bound of its value codes, so a merge rewrites (and copies)
//! only the chunks holding a code it moves — none when the new value
//! sorts after every other one.  A chunk is the unit of the
//! paper's remappable pre numbers: a row splice lands in exactly one
//! chunk, shifts only that chunk's rows and chunk-local attribute owners,
//! and then fixes up the O(#chunks) start index — O(chunk), not
//! O(document).  An oversized chunk splits back into row-target pieces,
//! so chunks stay bounded and double as the work unit for batch-at-a-time
//! kernels.
//!
//! Every chunk also carries summaries — min/max level, a node-kind mask
//! and a name-code bucket bitmask — maintained on each patch, so backward
//! parent scans and kind/name probes skip whole chunks that cannot contain
//! a match.  Next to them sits the chunk-local **element-name posting
//! index**: the chunk's element rows ordered by `(name code, offset)`,
//! rebuilt with the summaries (O(chunk) per structural patch, derived at
//! load — never stored on disk), and over it a **name directory**: one
//! `(name code, first posting)` pair per distinct element name, so the run
//! of one name is a single binary search over a short contiguous list away.
//! The index is the ready-made candidate list of the name-test push-down
//! (paper §3.2): the paged read view's
//! [`NodeRead::run_named`](crate::read::NodeRead::run_named) hands a
//! location step the elements of one name inside one chunk as a borrowed
//! slice, so a step visits only the chunks its context regions overlap.
//!
//! Chunks are shared (`Arc`) between the master image and every published
//! snapshot; a patch copies the chunk it lands in, nothing else.
//!
//! The executor reads the chunks in place: an attribute step hands out
//! value codes into the image's shared attribute-value dictionary, so
//! equi-joins between attribute values of one document run code-to-code
//! and never touch a string.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use mxq_engine::Dictionary;

use crate::node::NodeKind;
use crate::read::{AttrsIter, NamedRun};

/// Default chunk row target: power-of-two, sized so a chunk's columns fit
/// comfortably in L1/L2 while keeping the start index tiny.
pub const DEFAULT_CHUNK_ROWS: usize = 1024;

/// Does a node of `kind` carry text content (a non-empty heap span may be
/// its)?
fn carries_text(kind: NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::Text | NodeKind::Comment | NodeKind::ProcessingInstruction
    )
}

/// An append-only interner of element names (and PI targets) or of
/// attribute names: a name's code is the rank it was first interned at,
/// and it never moves, so a write that brings a new name rewrites no row.
/// Code order is not string order; nothing compares name codes but for
/// equality.
#[derive(Debug, Clone, Default)]
pub struct Names {
    /// The names, by code.
    strings: Vec<Arc<str>>,
    /// The code of every name.
    codes: HashMap<Arc<str>, u32>,
}

impl Names {
    /// Code of `name`, if it was interned.
    pub fn code_of(&self, name: &str) -> Option<u32> {
        self.codes.get(name).copied()
    }

    /// The name of code `code`.
    pub fn str_of(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Number of names interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no name was interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The names in code order (the order they were first interned in).
    pub fn iter(&self) -> std::slice::Iter<'_, Arc<str>> {
        self.strings.iter()
    }

    /// Does every name map to its place in the list, and the map hold no
    /// other entry?
    fn check(&self) -> Result<(), String> {
        let agree = (0..)
            .zip(&self.strings)
            .all(|(code, s)| self.code_of(s) == Some(code));
        if agree && self.codes.len() == self.strings.len() {
            Ok(())
        } else {
            Err("the name list and the code map disagree".into())
        }
    }

    /// The code of `name`, a new one past the others when it is new (the
    /// interner copied first when a published image still shares it).
    fn intern(self: &mut Arc<Names>, name: &str) -> u32 {
        if let Some(code) = self.code_of(name) {
            return code;
        }
        let names = Arc::make_mut(self);
        let code = names.strings.len() as u32;
        let name: Arc<str> = Arc::from(name);
        names.strings.push(name.clone());
        names.codes.insert(name, code);
        code
    }
}

/// The first code a dictionary remap moves (`u32::MAX` when it moves
/// none): the codes below it keep their value.
fn first_moved(remap: &[u32]) -> u32 {
    (remap.iter().zip(0..))
        .position(|(&c, i)| c != i)
        .map_or(u32::MAX, |i| i as u32)
}

/// The length of a chunk's text heap as a row end offset; every write
/// that grows a heap checks it, so the other offsets fit as well.
///
/// # Panics
/// Panics when one chunk's texts pass 4 GiB.
fn heap_end(heap: &str) -> u32 {
    u32::try_from(heap.len()).expect("a chunk's text heap stays below 4 GiB")
}

/// One past the largest code of a column (0 when it is empty).
fn code_end(column: &[u32]) -> u32 {
    column.iter().max().map_or(0, |&c| c + 1)
}

/// One piece of the column image — the logical page of Section 5.2: a run
/// of consecutive node rows plus the attribute rows they own (owners are
/// chunk-local offsets, so a splice renumbers inside the chunk only).
#[derive(Debug, Clone, Default)]
struct Chunk {
    size: Vec<u32>,
    level: Vec<u16>,
    kind: Vec<NodeKind>,
    /// Element name or PI target code (the empty string for other rows).
    name_code: Vec<u32>,
    /// The content of the text, comment and PI rows, back to back in row
    /// order.
    heap: String,
    /// End offset in `heap` of each row's text; a row's text starts where
    /// the row before it ends (row 0's at 0), so element and document rows
    /// hold empty spans.
    ends: Vec<u32>,
    /// Attribute rows of this chunk's nodes, owner-ordered; the owner is
    /// the node's offset *within this chunk*.
    attr_owner: Vec<u32>,
    attr_name_code: Vec<u32>,
    attr_value_code: Vec<u32>,
    /// Summaries, rebuilt on every structural patch of the chunk.
    min_level: u16,
    max_level: u16,
    /// Bit `kind as u8` set for every node kind in the chunk.
    kind_mask: u8,
    /// Bit `code % 64` set for every name code in the chunk (conservative
    /// — a set bit means "may contain").
    name_buckets: u64,
    /// The chunk-local element-name posting index: the local offsets of the
    /// element rows ordered by `(name code, offset)`, so the elements of one
    /// name are a contiguous, ascending run.
    postings: Vec<u32>,
    /// The name directory over `postings`: `(name code, first posting)` of
    /// every distinct element name in the chunk, ascending by code, so a
    /// name's run is one binary search over this short list away.
    directory: Vec<(u32, u32)>,
    /// An upper bound, one past the largest code, of `attr_value_code`,
    /// kept by every write: a value dictionary remap that moves no code
    /// below it leaves the chunk (and its sharing) alone.
    value_end: u32,
}

impl Chunk {
    fn len(&self) -> usize {
        self.size.len()
    }

    /// Heap offset where the text of row `l` starts (`l == len`: the end
    /// of the heap).
    fn start(&self, l: usize) -> usize {
        l.checked_sub(1).map_or(0, |p| self.ends[p] as usize)
    }

    /// The heap bytes of the rows `rows`.
    fn span(&self, rows: Range<usize>) -> Range<usize> {
        self.start(rows.start)..self.start(rows.end)
    }

    /// The text of row `l` (empty for element and document rows).
    #[inline]
    fn text(&self, l: usize) -> &str {
        &self.heap[self.span(l..l + 1)]
    }

    /// Append `text` to the heap as the text of a new row.
    fn push_text(&mut self, text: &str) {
        self.heap.push_str(text);
        self.ends.push(heap_end(&self.heap));
    }

    /// Replace the text of row `l`: the heap bytes after it move.
    fn set_text(&mut self, l: usize, text: &str) {
        let span = self.span(l..l + 1);
        let (old, new) = (span.len() as u32, text.len() as u32);
        self.heap.replace_range(span, text);
        heap_end(&self.heap);
        for end in &mut self.ends[l..] {
            *end = *end - old + new;
        }
    }

    /// Rebuild the summaries and the name index from the rows: one pass
    /// over the structural columns, then one sort of the element rows
    /// keyed `(name code, offset)`.
    fn rebuild_summary(&mut self) {
        let (mut min, mut max, mut kinds) = (u16::MAX, 0, 0u8);
        let mut keys: Vec<u64> = Vec::new();
        let rows = self.level.iter().zip(&self.kind).zip(&self.name_code);
        for (l, ((&level, &kind), &code)) in rows.enumerate() {
            (min, max) = (min.min(level), max.max(level));
            kinds |= 1u8 << kind as u8;
            if kind == NodeKind::Element {
                keys.push(u64::from(code) << 32 | l as u64);
            }
        }
        (self.min_level, self.max_level, self.kind_mask) = (min, max, kinds);
        self.rebuild_buckets();
        self.value_end = code_end(&self.attr_value_code);
        keys.sort_unstable();
        self.postings.clear();
        self.directory.clear();
        for (i, key) in keys.into_iter().enumerate() {
            let code = (key >> 32) as u32;
            if self.directory.last().is_none_or(|&(c, _)| c != code) {
                self.directory.push((code, i as u32));
            }
            self.postings.push(key as u32);
        }
    }

    /// Resident bytes of the chunk's columns, heap and name index: the
    /// widths of a row's five columns (15 bytes), the heap's bytes, one
    /// offset per posting, a `(code, first)` pair per directory entry and
    /// three codes per attribute row.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let row = size_of::<u32>()
            + size_of::<u16>()
            + size_of::<NodeKind>()
            + size_of::<u32>()
            + size_of::<u32>();
        self.len() * row
            + self.heap.len()
            + self.postings.len() * size_of::<u32>()
            + self.directory.len() * size_of::<(u32, u32)>()
            + self.attr_owner.len() * 3 * size_of::<u32>()
    }

    fn rebuild_buckets(&mut self) {
        self.name_buckets = self
            .name_code
            .iter()
            .fold(0u64, |m, &c| m | (1u64 << (c % 64)));
    }

    /// Local offsets (ascending) of the element rows with name code `code`.
    fn named(&self, code: u32) -> &[u32] {
        if self.name_buckets & (1u64 << (code % 64)) == 0 {
            return &[];
        }
        let Ok(i) = self.directory.binary_search_by_key(&code, |&(c, _)| c) else {
            return &[];
        };
        let start = self.directory[i].1 as usize;
        let end = self
            .directory
            .get(i + 1)
            .map_or(self.postings.len(), |&(_, first)| first as usize);
        &self.postings[start..end]
    }

    /// An empty chunk with room for `rows` rows.
    fn with_capacity(rows: usize) -> Chunk {
        Chunk {
            size: Vec::with_capacity(rows),
            level: Vec::with_capacity(rows),
            kind: Vec::with_capacity(rows),
            name_code: Vec::with_capacity(rows),
            ends: Vec::with_capacity(rows),
            ..Chunk::default()
        }
    }

    /// Add an attribute row to the node at local offset `l`, after its
    /// others.
    fn insert_attr(&mut self, l: usize, name_code: u32, value_code: u32) {
        let at = if l + 1 == self.len() {
            self.attr_owner.len()
        } else {
            self.attr_range(l..l + 1).end
        };
        self.attr_owner.insert(at, l as u32);
        self.attr_name_code.insert(at, name_code);
        self.attr_value_code.insert(at, value_code);
        self.bound_value(value_code + 1);
    }

    /// Raise the value code bound to cover `end`.
    fn bound_value(&mut self, end: u32) {
        self.value_end = self.value_end.max(end);
    }

    /// Chunk-local attribute row range of the nodes at the local offsets
    /// `rows`.
    fn attr_range(&self, rows: Range<usize>) -> Range<usize> {
        let a = self
            .attr_owner
            .partition_point(|&o| (o as usize) < rows.start);
        a..a + self.attr_owner[a..].partition_point(|&o| (o as usize) < rows.end)
    }

    /// Splice the rows of `piece` in at local offset `l`: the rows after
    /// `l`, their heap bytes and their attribute owners shift.  Summaries
    /// are left stale.
    fn splice_in(&mut self, l: usize, piece: Chunk) {
        let k = piece.len() as u32;
        self.bound_value(code_end(&piece.attr_value_code));
        self.size.splice(l..l, piece.size);
        self.level.splice(l..l, piece.level);
        self.kind.splice(l..l, piece.kind);
        self.name_code.splice(l..l, piece.name_code);
        let (at, before) = (self.start(l), self.start(self.ends.len()));
        self.heap.insert_str(at, &piece.heap);
        let bytes = heap_end(&self.heap) - before as u32;
        let at = at as u32;
        for end in &mut self.ends[l..] {
            *end += bytes;
        }
        self.ends
            .splice(l..l, piece.ends.iter().map(|&end| end + at));
        let a = self.attr_owner.partition_point(|&o| (o as usize) < l);
        for o in &mut self.attr_owner[a..] {
            *o += k;
        }
        self.attr_owner
            .splice(a..a, piece.attr_owner.iter().map(|&o| o + l as u32));
        self.attr_name_code.splice(a..a, piece.attr_name_code);
        self.attr_value_code.splice(a..a, piece.attr_value_code);
    }

    /// Drop the rows `l..l + c` and their attribute rows.  Summaries are
    /// left stale.
    fn remove(&mut self, l: usize, c: usize) {
        self.size.drain(l..l + c);
        self.level.drain(l..l + c);
        self.kind.drain(l..l + c);
        self.name_code.drain(l..l + c);
        let span = self.span(l..l + c);
        let bytes = span.len() as u32;
        self.heap.replace_range(span, "");
        self.ends.drain(l..l + c);
        for end in &mut self.ends[l..] {
            *end -= bytes;
        }
        let attrs = self.attr_range(l..l + c);
        let a = attrs.start;
        self.attr_owner.drain(attrs.clone());
        self.attr_name_code.drain(attrs.clone());
        self.attr_value_code.drain(attrs);
        for o in &mut self.attr_owner[a..] {
            *o -= c as u32;
        }
    }

    /// Append copies of the rows `rows` of `src`, of their heap bytes and
    /// of their attribute rows (owners re-based).  Summaries are left
    /// stale.
    fn extend_rows(&mut self, src: &Chunk, rows: Range<usize>) {
        let (base, start) = (self.len() as u32, rows.start as u32);
        let attrs = src.attr_range(rows.clone());
        let span = src.span(rows.clone());
        let (at, from) = (self.heap.len() as u32, span.start as u32);
        self.heap.push_str(&src.heap[span]);
        heap_end(&self.heap);
        self.bound_value(src.value_end);
        self.size.extend_from_slice(&src.size[rows.clone()]);
        self.level.extend_from_slice(&src.level[rows.clone()]);
        self.kind.extend_from_slice(&src.kind[rows.clone()]);
        self.name_code
            .extend_from_slice(&src.name_code[rows.clone()]);
        self.ends
            .extend(src.ends[rows].iter().map(|&end| end - from + at));
        self.attr_owner.extend(
            src.attr_owner[attrs.clone()]
                .iter()
                .map(|&o| o - start + base),
        );
        self.attr_name_code
            .extend_from_slice(&src.attr_name_code[attrs.clone()]);
        self.attr_value_code
            .extend_from_slice(&src.attr_value_code[attrs]);
    }

    /// [`Chunk::extend_rows`] with this chunk as the source: each column
    /// copies its own slice in place.
    fn extend_rows_within(&mut self, rows: Range<usize>) {
        let (base, start) = (self.len(), rows.start as u32);
        let attrs = self.attr_range(rows.clone());
        let span = self.span(rows.clone());
        let (at, from) = (self.heap.len() as u32, span.start as u32);
        self.heap.extend_from_within(span);
        heap_end(&self.heap);
        self.size.extend_from_within(rows.clone());
        self.level.extend_from_within(rows.clone());
        self.kind.extend_from_within(rows.clone());
        self.name_code.extend_from_within(rows.clone());
        self.ends.extend_from_within(rows);
        for end in &mut self.ends[base..] {
            *end = *end - from + at;
        }
        let owners = self.attr_owner.len();
        self.attr_owner.extend_from_within(attrs.clone());
        for o in &mut self.attr_owner[owners..] {
            *o = *o - start + base as u32;
        }
        self.attr_name_code.extend_from_within(attrs.clone());
        self.attr_value_code.extend_from_within(attrs);
    }

    /// Append row `row` of the image `src` at `level`, its text copied:
    /// its names interned in `names` (the element and the attribute-name
    /// interner), its values coded through the session dictionary
    /// `values`, each distinct code of `src` mapped once through `maps`.
    /// Summaries are left stale.
    fn push_mapped(
        &mut self,
        row: Row<'_>,
        level: u16,
        src: &DocumentColumns,
        [tags, attr_names]: [&mut Arc<Names>; 2],
        values: &mut SessionDict,
        maps: &mut CopyMaps,
    ) {
        let owner = self.len() as u32;
        let code = row.name_code;
        let name_code = maps
            .tags
            .map(&src.tags, code, |d| tags.intern(d.str_of(code)));
        self.size.push(row.size);
        self.level.push(level);
        self.kind.push(row.kind);
        self.name_code.push(name_code);
        self.push_text(row.text);
        for (&n, &v) in row.attr_names.iter().zip(row.attr_values) {
            let n = maps
                .attr_names
                .map(&src.attr_names, n, |d| attr_names.intern(d.str_of(n)));
            let v = maps
                .values
                .map(&src.attr_values, v, |d| values.code(d.str_of(v)));
            self.attr_owner.push(owner);
            self.attr_name_code.push(n);
            self.attr_value_code.push(v);
            self.bound_value(v + 1);
        }
    }

    /// Rewrite the value codes through a value dictionary remap.
    fn remap(&mut self, remap: &[u32]) {
        for code in &mut self.attr_value_code {
            *code = remap[*code as usize];
        }
        self.value_end = code_end(&self.attr_value_code);
    }

    /// Move the rows from `a` on into a chunk of their own (owners and
    /// text ends re-based), summaries not built; this chunk keeps the rows
    /// before `a`.
    fn split_off(&mut self, a: usize) -> Chunk {
        let aa = self.attr_owner.partition_point(|&o| (o as usize) < a);
        let mut attr_owner = self.attr_owner.split_off(aa);
        for o in &mut attr_owner {
            *o -= a as u32;
        }
        let at = self.start(a);
        let mut ends = self.ends.split_off(a);
        for end in &mut ends {
            *end -= at as u32;
        }
        Chunk {
            size: self.size.split_off(a),
            level: self.level.split_off(a),
            kind: self.kind.split_off(a),
            name_code: self.name_code.split_off(a),
            heap: self.heap.split_off(at),
            ends,
            attr_owner,
            attr_name_code: self.attr_name_code.split_off(aa),
            attr_value_code: self.attr_value_code.split_off(aa),
            ..Chunk::default()
        }
    }

    /// Cut into pieces of `rows` rows (the last may be shorter), summaries
    /// built.
    fn into_pieces(mut self, rows: usize) -> Vec<Arc<Chunk>> {
        let mut pieces: Vec<Arc<Chunk>> = (0..self.len())
            .step_by(rows)
            .rev()
            .map(|a| {
                let mut piece = self.split_off(a);
                piece.rebuild_summary();
                Arc::new(piece)
            })
            .collect();
        pieces.reverse();
        pieces
    }
}

/// One stored row, as [`DocumentColumns::walk_rows`] hands it out.
pub(crate) struct Row<'a> {
    pub(crate) size: u32,
    pub(crate) level: u16,
    pub(crate) kind: NodeKind,
    /// Element name or PI target code (a [`DocumentColumns::tags`] code).
    pub(crate) name_code: u32,
    /// Content of a text, comment or PI row (empty for other rows).
    pub(crate) text: &'a str,
    /// Name codes of the row's attributes ([`DocumentColumns::attr_names`]).
    pub(crate) attr_names: &'a [u32],
    /// Value codes of the row's attributes ([`DocumentColumns::attr_values`]).
    pub(crate) attr_values: &'a [u32],
}

/// The chunked relational image of one document container, with
/// coded string columns (see the module docs).
#[derive(Debug, Clone)]
pub struct DocumentColumns {
    /// Interner of the element names and PI targets (plus the empty
    /// string used for every other row), shared with the published images
    /// until a write brings a new name.  Append-only: names deleted from
    /// the document linger as unused entries, and no code ever moves.
    tags: Arc<Names>,
    /// Interner of the attribute names, shared and grown like `tags`.
    attr_names: Arc<Names>,
    /// Sorted dictionary over the attribute *values* (code order is string
    /// order) — mixed content (ids, keywords, numeric strings side by
    /// side), so joins over it go through the per-code numeric keys of
    /// [`Dictionary::numeric_key_of`].
    attr_values: Arc<Dictionary>,
    /// Shared per chunk: cloning the image (the first patch after a publish)
    /// copies pointers, and a patch then copies only the chunk it touches
    /// (`Arc::make_mut`) — readers of the published image keep the rest.
    chunks: Vec<Arc<Chunk>>,
    /// `starts[i]` = pre of the first row of chunk `i` (prefix sums; the
    /// per-chunk min/max pre follow as `starts[i]..starts[i]+len`).
    starts: Vec<usize>,
    /// Power-of-two row target per chunk; a chunk splits once it exceeds
    /// twice this.
    chunk_rows: usize,
    /// True while every chunk except the last holds exactly `chunk_rows`
    /// rows (any freshly built image); lets [`DocumentColumns::locate`]
    /// compute the chunk index with a shift instead of a binary search.
    uniform: bool,
    len: usize,
    attr_count: usize,
}

impl Default for DocumentColumns {
    fn default() -> DocumentColumns {
        DocumentColumns {
            tags: Arc::default(),
            attr_names: Arc::default(),
            attr_values: Dictionary::new(Vec::<Arc<str>>::new()),
            chunks: Vec::new(),
            starts: Vec::new(),
            chunk_rows: DEFAULT_CHUNK_ROWS,
            uniform: true,
            len: 0,
            attr_count: 0,
        }
    }
}

impl DocumentColumns {
    /// Rebuild the same content at a different chunk row target (must be a
    /// power of two) — interners, dictionary and codes are reused as-is.
    pub(crate) fn rechunked(&self, chunk_rows: usize) -> DocumentColumns {
        assert!(
            chunk_rows.is_power_of_two(),
            "chunk_rows must be a power of two, got {chunk_rows}"
        );
        let mut merged = Chunk::default();
        for c in &self.chunks {
            merged.splice_in(merged.len(), Chunk::clone(c));
        }
        let mut out = DocumentColumns {
            tags: self.tags.clone(),
            attr_names: self.attr_names.clone(),
            attr_values: self.attr_values.clone(),
            chunk_rows,
            chunks: merged.into_pieces(chunk_rows),
            ..DocumentColumns::default()
        };
        out.rebuild_starts();
        out
    }

    /// Number of node rows in the image.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the image holds no node rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of attribute rows.
    pub fn attr_count(&self) -> usize {
        self.attr_count
    }

    /// The element-name (and PI-target) interner.
    pub fn tags(&self) -> &Names {
        &self.tags
    }

    /// The attribute-name interner.
    pub fn attr_names(&self) -> &Names {
        &self.attr_names
    }

    /// The attribute-value dictionary.
    pub fn attr_values(&self) -> &Arc<Dictionary> {
        &self.attr_values
    }

    /// Rough resident-memory footprint in bytes: the fixed-width columns,
    /// the name index, the text payloads, the attribute rows, the
    /// interners and the value dictionary.  Used by the eviction policy's memory budget — a
    /// heuristic, not an allocator report.
    pub(crate) fn approx_bytes(&self) -> usize {
        let bytes = |s: &Arc<str>| 16 + s.len();
        let names = |n: &Names| n.iter().map(bytes).sum::<usize>();
        self.chunks.iter().map(|c| c.approx_bytes()).sum::<usize>()
            + names(&self.tags)
            + names(&self.attr_names)
            + self.attr_values.iter().map(bytes).sum::<usize>()
    }

    // -- chunk geometry and summaries -------------------------------------

    /// The configured power-of-two chunk row target.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks in the image.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// `(first pre, row count)` of chunk `i`.
    pub(crate) fn chunk_span(&self, i: usize) -> (u32, usize) {
        (self.starts[i] as u32, self.chunks[i].len())
    }

    /// True when chunk `i` may contain a node of `kind` (exact).
    pub(crate) fn chunk_has_kind(&self, i: usize, kind: NodeKind) -> bool {
        self.chunks[i].kind_mask & (1u8 << kind as u8) != 0
    }

    /// Index of the chunk holding row `pre`.
    pub fn chunk_of(&self, pre: u32) -> usize {
        self.locate(pre).0
    }

    /// The elements with name code `code` inside the chunk holding `pre`,
    /// straight from that chunk's posting index (borrowed, no allocation).
    pub(crate) fn chunk_named(&self, pre: u32, code: u32) -> NamedRun<'_> {
        let ci = self.chunk_of(pre);
        let base = self.starts[ci] as u32;
        NamedRun {
            base,
            offsets: self.chunks[ci].named(code),
            end: base + self.chunks[ci].len() as u32 - 1,
        }
    }

    /// True when chunks `i` of `self` and `j` of `other` are one shared
    /// allocation — what copy-on-write leaves of every chunk a patch did
    /// not touch.
    pub fn shares_chunk(&self, i: usize, other: &DocumentColumns, j: usize) -> bool {
        Arc::ptr_eq(&self.chunks[i], &other.chunks[j])
    }

    /// Preorder ranks of the fragment roots (level-0 rows), found through
    /// the per-chunk minimum level.
    pub fn fragment_roots(&self) -> Vec<u32> {
        let mut roots = Vec::new();
        for (ci, c) in self.chunks.iter().enumerate() {
            if c.min_level == 0 {
                let base = self.starts[ci];
                roots.extend(
                    (0..c.len())
                        .filter(|&l| c.level[l] == 0)
                        .map(|l| (base + l) as u32),
                );
            }
        }
        roots
    }

    /// Chunk index and chunk-local offset of row `pre`.
    #[inline]
    fn locate(&self, pre: u32) -> (usize, usize) {
        let pre = pre as usize;
        debug_assert!(pre < self.len, "pre {pre} out of bounds {}", self.len);
        // uniform geometry (every chunk but the last holds exactly
        // `chunk_rows` rows — true for any freshly built image): the chunk
        // index is a shift, no binary search on the hot structural path
        let ci = if self.uniform {
            (pre >> self.chunk_rows.trailing_zeros()).min(self.chunks.len() - 1)
        } else {
            self.starts.partition_point(|&s| s <= pre) - 1
        };
        (ci, pre - self.starts[ci])
    }

    fn rebuild_starts(&mut self) {
        self.starts.clear();
        let mut rows = 0usize;
        let mut attrs = 0usize;
        for c in &self.chunks {
            self.starts.push(rows);
            rows += c.len();
            attrs += c.attr_owner.len();
        }
        self.len = rows;
        self.attr_count = attrs;
        self.uniform = self
            .chunks
            .split_last()
            .is_none_or(|(_, init)| init.iter().all(|c| c.len() == self.chunk_rows));
    }

    // -- dense structural read path ---------------------------------------

    /// Subtree size at `pre`.
    #[inline]
    pub fn node_size(&self, pre: u32) -> u32 {
        let (ci, l) = self.locate(pre);
        self.chunks[ci].size[l]
    }

    /// Level (depth) at `pre`.
    #[inline]
    pub fn node_level(&self, pre: u32) -> u16 {
        let (ci, l) = self.locate(pre);
        self.chunks[ci].level[l]
    }

    /// Node kind at `pre`.
    #[inline]
    pub(crate) fn node_kind(&self, pre: u32) -> NodeKind {
        let (ci, l) = self.locate(pre);
        self.chunks[ci].kind[l]
    }

    /// Name code at `pre` (a [`Self::tags`] code: the element name or PI
    /// target; other rows carry the code of the empty string).
    #[inline]
    pub(crate) fn node_name_code(&self, pre: u32) -> u32 {
        let (ci, l) = self.locate(pre);
        self.chunks[ci].name_code[l]
    }

    /// Element name / PI target / empty string at `pre`, decoded.
    #[inline]
    pub(crate) fn node_name(&self, pre: u32) -> &str {
        self.tags.str_of(self.node_name_code(pre))
    }

    /// The content of the text, comment or PI row at `pre`, borrowed from
    /// its chunk's heap (empty for element and document rows).
    #[inline]
    pub(crate) fn node_text(&self, pre: u32) -> &str {
        let (ci, l) = self.locate(pre);
        self.chunks[ci].text(l)
    }

    /// Closest node before position `pos` whose level is strictly below
    /// `level` — the backward parent/anchor scan.  Whole chunks whose
    /// minimum level is not below `level` are skipped via the summaries.
    pub(crate) fn anchor_before(&self, pos: u32, level: u16) -> Option<u32> {
        if level == 0 || pos == 0 || self.len == 0 {
            return None;
        }
        let (mut ci, l) = self.locate(pos.min(self.len as u32) - 1);
        let mut hi = l + 1; // exclusive local upper bound
        loop {
            let chunk = &self.chunks[ci];
            if chunk.min_level < level {
                for v in (0..hi).rev() {
                    if chunk.level[v] < level {
                        return Some((self.starts[ci] + v) as u32);
                    }
                }
            }
            if ci == 0 {
                return None;
            }
            ci -= 1;
            hi = self.chunks[ci].len();
        }
    }

    /// Hand the `count` rows starting at `pre` to `f`, in document order:
    /// the position is located once, then the chunks are walked with a
    /// running attribute cursor and a running heap offset.
    pub(crate) fn walk_rows(&self, pre: u32, count: usize, mut f: impl FnMut(Row<'_>)) {
        if count == 0 {
            return;
        }
        let (mut ci, mut l) = self.locate(pre);
        let mut left = count;
        while left > 0 {
            let c = &self.chunks[ci];
            let end = (l + left).min(c.len());
            let mut a = c.attr_owner.partition_point(|&o| (o as usize) < l);
            let mut from = c.start(l);
            for r in l..end {
                let b = a + c.attr_owner[a..]
                    .iter()
                    .take_while(|&&o| o as usize == r)
                    .count();
                let to = c.ends[r] as usize;
                f(Row {
                    size: c.size[r],
                    level: c.level[r],
                    kind: c.kind[r],
                    name_code: c.name_code[r],
                    text: &c.heap[from..to],
                    attr_names: &c.attr_name_code[a..b],
                    attr_values: &c.attr_value_code[a..b],
                });
                (a, from) = (b, to);
            }
            left -= end - l;
            ci += 1;
            l = 0;
        }
    }

    /// Attribute rows of element `pre` as a cursor over the columns.
    pub(crate) fn attrs_of(&self, pre: u32) -> AttrsIter<'_> {
        let (ci, l) = self.locate(pre);
        let chunk = &self.chunks[ci];
        let r = chunk.attr_range(l..l + 1);
        AttrsIter {
            names: &self.attr_names,
            values: &self.attr_values,
            codes: chunk.attr_name_code[r.clone()]
                .iter()
                .zip(&chunk.attr_value_code[r]),
        }
    }

    /// Value of attribute `name` on element `pre`.
    pub(crate) fn attr_value_of(&self, pre: u32, name: &str) -> Option<&str> {
        let code = self.attr_names.code_of(name)?;
        Some(self.attr_values.str_of(self.attr_value_code_of(pre, code)?))
    }

    /// Value codes (into [`Self::attr_values`]) of all attribute rows of
    /// element `pre`, in attribute order.
    pub fn attr_value_codes_of(&self, pre: u32) -> &[u32] {
        let (ci, l) = self.locate(pre);
        let chunk = &self.chunks[ci];
        &chunk.attr_value_code[chunk.attr_range(l..l + 1)]
    }

    /// Value *code* (into [`Self::attr_values`]) of the attribute with
    /// name code `name` (an [`Self::attr_names`] code) on element `pre` —
    /// the dictionary-encoded form of its value.
    pub fn attr_value_code_of(&self, pre: u32, name: u32) -> Option<u32> {
        let (ci, i) = self.attr_slot(pre, name)?;
        Some(self.chunks[ci].attr_value_code[i])
    }

    /// Chunk index and chunk attribute row of the attribute with name code
    /// `name` on element `pre`.
    fn attr_slot(&self, pre: u32, name: u32) -> Option<(usize, usize)> {
        let (ci, l) = self.locate(pre);
        let chunk = &self.chunks[ci];
        let rows = chunk.attr_range(l..l + 1);
        let i = chunk.attr_name_code[rows.clone()]
            .iter()
            .position(|&n| n == name)?;
        Some((ci, rows.start + i))
    }

    /// All attribute rows as `(global owner, name code, value code)` in
    /// owner order.
    fn attr_rows(&self) -> impl Iterator<Item = (i64, u32, u32)> + '_ {
        self.chunks.iter().enumerate().flat_map(|(ci, c)| {
            let base = self.starts[ci] as i64;
            c.attr_owner
                .iter()
                .zip(&c.attr_name_code)
                .zip(&c.attr_value_code)
                .map(move |((&o, &n), &v)| (base + o as i64, n, v))
        })
    }

    // -- coding values: every write's session dictionary ------------------

    /// End a write's session: the values it brought merge into the value
    /// dictionary, and the chunks holding a code the merge moves are
    /// remapped.  Returns the remap, for the rows the write holds outside
    /// the image (`None`: the write brought no new value).
    fn merge(&mut self, values: SessionDict) -> Option<Vec<u32>> {
        let remap = values.merge_into(&mut self.attr_values)?;
        // a chunk whose value codes all lie below the first code the remap
        // moves keeps its allocation: a value that sorts after every
        // existing one costs no chunk copy
        let moved = first_moved(&remap);
        for chunk in &mut self.chunks {
            if chunk.value_end > moved {
                Arc::make_mut(chunk).remap(&remap);
            }
        }
        Some(remap)
    }

    // -- incremental maintenance (the paged update path) ------------------

    /// The final code of the attribute value `value`, merged into the value
    /// dictionary when it is new.
    fn value_code(&mut self, value: &str) -> u32 {
        let mut values = SessionDict::new(&self.attr_values);
        let code = values.code(value);
        self.merge(values)
            .map_or(code, |remap| remap[code as usize])
    }

    /// Splice the rows of `fragment` into the image at position `at`, its
    /// roots at `level`: a walk over its rows that maps each distinct code
    /// once (interning the names the image lacks), then the merge of the
    /// values it lacks.  The splice
    /// lands in exactly one chunk: that chunk's rows shift, its chunk-local
    /// attribute owners renumber, and the start index is patched —
    /// O(chunk size plus rows inserted plus #chunks), never a whole-image
    /// memmove.  A chunk grown past twice the row target splits into
    /// row-target pieces; returns the number of chunks the split added
    /// (0 when the rows fit).
    pub(crate) fn splice_nodes(
        &mut self,
        at: usize,
        fragment: &DocumentColumns,
        level: u16,
    ) -> usize {
        if fragment.is_empty() {
            return 0;
        }
        let mut values = SessionDict::new(&self.attr_values);
        let mut maps = CopyMaps::default();
        let mut piece = Chunk::with_capacity(fragment.len());
        let (tags, attr_names) = (&mut self.tags, &mut self.attr_names);
        fragment.walk_rows(0, fragment.len(), |row| {
            let names = [&mut *tags, &mut *attr_names];
            let row_level = row.level + level;
            piece.push_mapped(row, row_level, fragment, names, &mut values, &mut maps);
        });
        if let Some(remap) = self.merge(values) {
            piece.remap(&remap);
        }
        if self.chunks.is_empty() {
            self.chunks = piece.into_pieces(self.chunk_rows);
            self.rebuild_starts();
            return self.chunks.len();
        }
        let ci = if at == self.len {
            self.chunks.len() - 1
        } else {
            self.locate(at as u32).0
        };
        let l = at - self.starts[ci];
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.splice_in(l, piece);
        let added = if chunk.len() > 2 * self.chunk_rows {
            let pieces = std::mem::take(chunk).into_pieces(self.chunk_rows);
            let added = pieces.len() - 1;
            self.chunks.splice(ci..=ci, pieces);
            added
        } else {
            chunk.rebuild_summary();
            0
        };
        self.rebuild_starts();
        added
    }

    /// Remove `count` node rows starting at `at`, dropping their attribute
    /// rows and renumbering the chunk-local owners of the touched chunks
    /// only.  Chunks emptied by the removal are dropped.  Returns the
    /// number of chunks touched.
    pub(crate) fn remove_nodes(&mut self, at: usize, count: usize) -> usize {
        if count == 0 {
            return 0;
        }
        let (mut ci, mut l) = self.locate(at as u32);
        let mut remaining = count;
        let mut touched = 0;
        while remaining > 0 {
            let chunk = Arc::make_mut(&mut self.chunks[ci]);
            let c = remaining.min(chunk.len() - l);
            chunk.remove(l, c);
            remaining -= c;
            touched += 1;
            if chunk.len() == 0 {
                self.chunks.remove(ci);
            } else {
                chunk.rebuild_summary();
                ci += 1;
            }
            l = 0;
        }
        self.rebuild_starts();
        touched
    }

    /// Ancestor `size` maintenance: add `delta` to the size of `pre`.
    pub(crate) fn add_size(&mut self, pre: u32, delta: i64) {
        let size = self.size_mut(pre);
        *size = (*size as i64 + delta) as u32;
    }

    /// The size slot of `pre`, its chunk copied first when it is shared.
    fn size_mut(&mut self, pre: u32) -> &mut u32 {
        let (ci, l) = self.locate(pre);
        &mut Arc::make_mut(&mut self.chunks[ci]).size[l]
    }

    /// In-place rename of the element or PI target at `pre` (a no-op on
    /// other kinds).
    pub(crate) fn set_name(&mut self, pre: u32, name: &str) {
        if !matches!(
            self.node_kind(pre),
            NodeKind::Element | NodeKind::ProcessingInstruction
        ) {
            return;
        }
        let code = self.tags.intern(name);
        let (ci, l) = self.locate(pre);
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.name_code[l] = code;
        // the posting index is ordered on the name code
        chunk.rebuild_summary();
    }

    /// In-place replacement of the content of the text, comment or PI row
    /// at `pre`.
    pub(crate) fn set_text(&mut self, pre: u32, text: &str) {
        debug_assert!(carries_text(self.node_kind(pre)));
        let (ci, l) = self.locate(pre);
        Arc::make_mut(&mut self.chunks[ci]).set_text(l, text);
    }

    /// Set (or insert, at the end of the owner's run) an attribute.
    pub(crate) fn set_attribute(&mut self, pre: u32, name: &str, value: &str) {
        let value_code = self.value_code(value);
        let code = self.attr_names.intern(name);
        match self.attr_slot(pre, code) {
            Some((ci, i)) => {
                let chunk = Arc::make_mut(&mut self.chunks[ci]);
                chunk.attr_value_code[i] = value_code;
                chunk.bound_value(value_code + 1);
            }
            None => self.push_attr(pre, code, value_code),
        }
    }

    /// Add an attribute row to the element at `pre`, after its others.
    fn push_attr(&mut self, pre: u32, name_code: u32, value_code: u32) {
        let (ci, l) = self.locate(pre);
        Arc::make_mut(&mut self.chunks[ci]).insert_attr(l, name_code, value_code);
        self.attr_count += 1;
    }

    /// Remove an attribute (no-op if absent).
    pub(crate) fn remove_attribute(&mut self, pre: u32, name: &str) {
        let code = self.attr_names.code_of(name);
        let Some((ci, i)) = code.and_then(|code| self.attr_slot(pre, code)) else {
            return;
        };
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk.attr_owner.remove(i);
        chunk.attr_name_code.remove(i);
        chunk.attr_value_code.remove(i);
        self.attr_count -= 1;
    }

    /// Rename an attribute in place (no-op if absent).
    pub(crate) fn rename_attribute(&mut self, pre: u32, name: &str, new_name: &str) {
        let code = self.attr_names.code_of(name);
        let Some((ci, i)) = code.and_then(|code| self.attr_slot(pre, code)) else {
            return;
        };
        let new_code = self.attr_names.intern(new_name);
        Arc::make_mut(&mut self.chunks[ci]).attr_name_code[i] = new_code;
    }

    // -- appending (a build session) ---------------------------------------

    /// Detach the last chunk when it has room left: the open chunk a build
    /// session fills.
    fn take_open(&mut self) -> Chunk {
        if self
            .chunks
            .last()
            .is_none_or(|c| c.len() >= self.chunk_rows)
        {
            return Chunk::default();
        }
        let (Some(chunk), Some(_)) = (self.chunks.pop(), self.starts.pop()) else {
            return Chunk::default();
        };
        self.len -= chunk.len();
        self.attr_count -= chunk.attr_owner.len();
        Arc::unwrap_or_clone(chunk)
    }

    /// Attach `chunk` as the last chunk.  The geometry stays uniform only
    /// while every chunk before it holds exactly `chunk_rows` rows.
    fn push_chunk(&mut self, chunk: Chunk) {
        if let Some(last) = self.chunks.last() {
            self.uniform &= last.len() == self.chunk_rows;
        }
        self.starts.push(self.len);
        self.len += chunk.len();
        self.attr_count += chunk.attr_owner.len();
        self.chunks.push(Arc::new(chunk));
    }

    // -- verification -----------------------------------------------------

    /// Check the image against itself: every `size` matches the level
    /// structure, levels step down from the fragment roots by one, the
    /// chunk summaries and posting indexes equal a rebuild from the rows,
    /// attribute owners are in range and ordered, the text ends never
    /// decrease, fall on char boundaries and end at the heap's end, only
    /// text, comment and PI rows carry text, every code lies below the
    /// length of its interner or dictionary, each interner's list and map
    /// agree, and the start index and counts add up.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tags.check().map_err(|e| format!("tags: {e}"))?;
        self.attr_names
            .check()
            .map_err(|e| format!("attribute names: {e}"))?;
        let mut rows = 0usize;
        let mut attrs = 0usize;
        for (ci, c) in self.chunks.iter().enumerate() {
            for (column, codes, len) in [
                ("name", &c.name_code, self.tags.len()),
                ("attribute-name", &c.attr_name_code, self.attr_names.len()),
                (
                    "attribute-value",
                    &c.attr_value_code,
                    self.attr_values.len(),
                ),
            ] {
                if codes.iter().any(|&code| code as usize >= len) {
                    return Err(format!("chunk {ci}: a {column} code out of range"));
                }
            }
            if c.len() == 0 {
                return Err(format!("chunk {ci} is empty"));
            }
            if self.starts.get(ci) != Some(&rows) {
                return Err(format!("chunk {ci}: stale start index"));
            }
            rows += c.len();
            attrs += c.attr_owner.len();
            if c.attr_owner.windows(2).any(|w| w[0] > w[1])
                || c.attr_owner.last().is_some_and(|&o| o as usize >= c.len())
            {
                return Err(format!(
                    "chunk {ci}: attribute owners out of order or range"
                ));
            }
            if c.ends.len() != c.len()
                || c.ends.windows(2).any(|w| w[0] > w[1])
                || c.ends.last().map(|&end| end as usize) != Some(c.heap.len())
                || !c
                    .ends
                    .iter()
                    .all(|&end| c.heap.is_char_boundary(end as usize))
            {
                return Err(format!(
                    "chunk {ci}: text ends out of order or off the heap"
                ));
            }
            for l in 0..c.len() {
                if !carries_text(c.kind[l]) && !c.span(l..l + 1).is_empty() {
                    return Err(format!(
                        "row {}: an element or document row with text",
                        self.starts[ci] + l
                    ));
                }
            }
        }
        if (rows, attrs) != (self.len, self.attr_count) {
            return Err(format!(
                "counts ({rows}, {attrs}) != recorded ({}, {})",
                self.len, self.attr_count
            ));
        }
        self.summaries_are_fresh()?;
        self.check_tree()
    }

    /// Every `size` matches the level structure, and levels step down from
    /// the fragment roots (level 0) by one — checked against a stack of
    /// the open ancestors.
    fn check_tree(&self) -> Result<(), String> {
        let mut open: Vec<(u32, u16)> = Vec::new();
        let close = |open: &mut Vec<(u32, u16)>, until: u16, at: u32| {
            while let Some(&(p, lv)) = open.last() {
                if lv < until {
                    break;
                }
                open.pop();
                if self.node_size(p) != at - p - 1 {
                    return Err(format!(
                        "size of {p} is {} not {}",
                        self.node_size(p),
                        at - p - 1
                    ));
                }
            }
            Ok(())
        };
        for v in 0..self.len as u32 {
            let level = self.node_level(v);
            close(&mut open, level, v)?;
            let expect = open.last().map_or(0, |&(_, lv)| lv + 1);
            if level != expect {
                return Err(format!("level of {v} is {level} not {expect}"));
            }
            open.push((v, level));
        }
        close(&mut open, 0, self.len as u32)
    }

    /// Compare the *decoded* content of two images: per-row structural
    /// values, names and texts, and per-row attributes.  Dictionary
    /// identity and chunk geometry are deliberately not compared — the
    /// incrementally maintained image may keep interner entries for
    /// names no longer present and may have ragged chunks, and the two
    /// sides may even use different chunk row targets.
    pub fn same_content(&self, other: &DocumentColumns) -> Result<(), String> {
        self.summaries_are_fresh()?;
        other.summaries_are_fresh()?;
        if self.len() != other.len() {
            return Err(format!("row count {} != {}", self.len(), other.len()));
        }
        for i in 0..self.len() {
            let p = i as u32;
            if self.node_size(p) != other.node_size(p)
                || self.node_level(p) != other.node_level(p)
                || self.node_kind(p) != other.node_kind(p)
            {
                return Err(format!(
                    "structural row {i}: ({}, {}, {:?}) != ({}, {}, {:?})",
                    self.node_size(p),
                    self.node_level(p),
                    self.node_kind(p),
                    other.node_size(p),
                    other.node_level(p),
                    other.node_kind(p)
                ));
            }
            if self.node_name(p) != other.node_name(p) {
                return Err(format!(
                    "name at {i}: `{}` != `{}`",
                    self.node_name(p),
                    other.node_name(p)
                ));
            }
            if self.node_text(p) != other.node_text(p) {
                return Err(format!(
                    "text at {i}: {:?} != {:?}",
                    self.node_text(p),
                    other.node_text(p)
                ));
            }
        }
        if self.attr_count() != other.attr_count() {
            return Err(format!(
                "attr count {} != {}",
                self.attr_count(),
                other.attr_count()
            ));
        }
        for (i, ((ao, an, av), (bo, bn, bv))) in self.attr_rows().zip(other.attr_rows()).enumerate()
        {
            let a = (
                ao,
                self.attr_names.str_of(an).as_ref(),
                self.attr_values.str_of(av).as_ref(),
            );
            let b = (
                bo,
                other.attr_names.str_of(bn).as_ref(),
                other.attr_values.str_of(bv).as_ref(),
            );
            if a != b {
                return Err(format!("attr row {i}: {a:?} != {b:?}"));
            }
        }
        Ok(())
    }

    /// Every chunk's maintained summaries, posting index and name
    /// directory equal the ones rebuilt from its rows.
    fn summaries_are_fresh(&self) -> Result<(), String> {
        for (ci, c) in self.chunks.iter().enumerate() {
            let mut fresh = Chunk::clone(c);
            fresh.rebuild_summary();
            if c.postings != fresh.postings {
                return Err(format!("chunk {ci}: stale element-name posting index"));
            }
            if c.directory != fresh.directory {
                return Err(format!("chunk {ci}: stale name directory"));
            }
            if (c.min_level, c.max_level, c.kind_mask, c.name_buckets)
                != (
                    fresh.min_level,
                    fresh.max_level,
                    fresh.kind_mask,
                    fresh.name_buckets,
                )
            {
                return Err(format!("chunk {ci}: stale level/kind/name summary"));
            }
            if c.value_end < fresh.value_end {
                return Err(format!("chunk {ci}: a value code past its bound"));
            }
        }
        Ok(())
    }
}

/// A build session over an image, through which
/// [`DocumentBuilder`](crate::DocumentBuilder) appends rows in preorder.
/// Rows go to the open chunk (the image's last one, when it has room),
/// which joins the image each time it fills.  A name gets its final code
/// from the image's interners at once; an attribute value gets its code
/// through the session dictionary, and [`Appender::seal`] merges the
/// values it lacked in once, remapping the chunks' value codes only then,
/// and rebuilds the summaries of the chunks the session wrote.
#[derive(Debug)]
pub(crate) struct Appender {
    /// The image without the open chunk.
    cols: DocumentColumns,
    /// The rows from `cols.len` on.
    open: Chunk,
    /// The first chunk the session writes.
    first: usize,
    values: SessionDict,
    /// The codes here of the copy sources' codes.
    maps: CopyMaps,
    /// Code of the empty string: the name of every row but element and PI
    /// rows.
    empty: u32,
}

/// The value dictionary of the image during a write (a build session, a
/// splice or an attribute write).  A value the dictionary holds keeps its
/// code, one it lacks gets a provisional code past the dictionary's end;
/// [`SessionDict::merge_into`] then grows the dictionary by the new
/// values in one merge and remaps every code handed out.
#[derive(Debug)]
struct SessionDict {
    /// The dictionary as the session found it.
    dict: Arc<Dictionary>,
    /// The codes handed out, by string.
    seen: HashMap<Arc<str>, u32>,
    /// The strings the dictionary lacks, one per provisional code.
    fresh: Vec<Arc<str>>,
}

/// The codes in the image being written of one copy source's codes
/// (`u32::MAX`: not mapped yet), so each distinct code of a source is
/// mapped once; a new source starts it over.
#[derive(Debug)]
struct CodeMap<D> {
    source: Option<Arc<D>>,
    mapped: Vec<u32>,
}

impl<D> Default for CodeMap<D> {
    fn default() -> Self {
        CodeMap {
            source: None,
            mapped: Vec::new(),
        }
    }
}

impl<D> CodeMap<D> {
    /// The code here of code `code` of `src`: `code_here` codes it on its
    /// first use.
    fn map(&mut self, src: &Arc<D>, code: u32, code_here: impl FnOnce(&D) -> u32) -> u32 {
        if !self.source.as_ref().is_some_and(|d| Arc::ptr_eq(d, src)) {
            self.source = Some(src.clone());
            self.mapped.clear();
        }
        let i = code as usize;
        if i >= self.mapped.len() {
            self.mapped.resize(i + 1, u32::MAX);
        }
        if self.mapped[i] == u32::MAX {
            self.mapped[i] = code_here(src);
        }
        self.mapped[i]
    }
}

/// The code maps of a write that copies rows out of other images, one per
/// code column.
#[derive(Debug, Default)]
struct CopyMaps {
    tags: CodeMap<Names>,
    attr_names: CodeMap<Names>,
    values: CodeMap<Dictionary>,
}

impl SessionDict {
    fn new(dict: &Arc<Dictionary>) -> SessionDict {
        SessionDict {
            dict: dict.clone(),
            seen: HashMap::new(),
            fresh: Vec::new(),
        }
    }

    /// The code of `s`, or its provisional code: one hash probe, so a
    /// value coded over and over costs one entry.
    fn code(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.seen.get(s) {
            return code;
        }
        let (key, code) = match self.dict.code_of(s) {
            Some(code) => (self.dict.str_of(code).clone(), code),
            None => {
                let key: Arc<str> = Arc::from(s);
                self.fresh.push(key.clone());
                (key, (self.dict.len() + self.fresh.len() - 1) as u32)
            }
        };
        self.seen.insert(key, code);
        code
    }

    /// Grow `dict`, the dictionary the session started from, by the
    /// strings it lacked.  Returns `None` when there were none, else the
    /// remap of every code handed out: the dictionary's own codes, then the
    /// provisional ones.
    fn merge_into(self, dict: &mut Arc<Dictionary>) -> Option<Vec<u32>> {
        if self.fresh.is_empty() {
            return None;
        }
        // the fresh strings are distinct: each one's rank among them
        let mut fresh: Vec<(Arc<str>, usize)> = self.fresh.into_iter().zip(0..).collect();
        fresh.sort_unstable();
        let mut rank = vec![0; fresh.len()];
        for (r, (_, i)) in fresh.iter().enumerate() {
            rank[*i] = r;
        }
        let added = Dictionary::new(fresh.into_iter().map(|(s, _)| s));
        let remap = if dict.is_empty() {
            *dict = added;
            rank.iter().map(|&r| r as u32).collect()
        } else {
            let (merged, mut remap, new) = Dictionary::merge(dict, &added);
            remap.extend(rank.iter().map(|&r| new[r]));
            *dict = merged;
            remap
        };
        Some(remap)
    }
}

impl Appender {
    /// Open a build session appending to `cols`.
    pub(crate) fn new(mut cols: DocumentColumns) -> Appender {
        let open = cols.take_open();
        let empty = cols.tags.intern("");
        Appender {
            first: cols.chunks.len(),
            open,
            values: SessionDict::new(&cols.attr_values),
            maps: CopyMaps::default(),
            empty,
            cols,
        }
    }

    /// Number of rows, the ones this session appended included.
    pub(crate) fn len(&self) -> u32 {
        (self.cols.len + self.open.len()) as u32
    }

    /// The code of an element name or PI target.
    pub(crate) fn tag(&mut self, name: &str) -> u32 {
        self.cols.tags.intern(name)
    }

    /// The code of the empty name, for text, comment and document rows.
    pub(crate) fn empty(&self) -> u32 {
        self.empty
    }

    /// Room for one more row in the open chunk: a full one joins the image.
    fn room(&mut self) -> usize {
        if self.open.len() >= self.cols.chunk_rows {
            // a session that filled one chunk is likely to fill the next
            let rows = self.cols.chunk_rows;
            let full = std::mem::replace(&mut self.open, Chunk::with_capacity(rows));
            self.cols.push_chunk(full);
        }
        self.cols.chunk_rows - self.open.len()
    }

    /// Append a row.  An element's `size` is a placeholder until
    /// [`Self::close`] sets it.
    pub(crate) fn push(
        &mut self,
        (kind, level, size): (NodeKind, u16, u32),
        name_code: u32,
        text: &str,
    ) {
        self.room();
        let open = &mut self.open;
        open.size.push(size);
        open.level.push(level);
        open.kind.push(kind);
        open.name_code.push(name_code);
        open.push_text(text);
    }

    /// Set the size of the row at `pre` to the rows appended after it;
    /// returns the placeholder it replaces.
    pub(crate) fn close(&mut self, pre: u32) -> u32 {
        let size = self.len() - pre - 1;
        let slot = match (pre as usize).checked_sub(self.cols.len) {
            Some(l) => &mut self.open.size[l],
            None => self.cols.size_mut(pre),
        };
        std::mem::replace(slot, size)
    }

    /// Add the attribute `name = value` to the element at `owner`.
    pub(crate) fn attribute(&mut self, owner: u32, name: &str, value: &str) {
        let n = self.cols.attr_names.intern(name);
        let v = self.values.code(value);
        match (owner as usize).checked_sub(self.cols.len) {
            Some(l) => self.open.insert_attr(l, n, v),
            None => self.cols.push_attr(owner, n, v),
        }
    }

    /// Append a copy of the subtree at `pre` of this image, its root at
    /// `level`: a range copy of the column slices and heap bytes, a source
    /// chunk (or the open chunk itself) at a time.
    pub(crate) fn copy_within(&mut self, pre: u32, level: u16) {
        let (size, from) = match (pre as usize).checked_sub(self.cols.len) {
            Some(l) => (self.open.size[l], self.open.level[l]),
            None => (self.cols.node_size(pre), self.cols.node_level(pre)),
        };
        let (mut at, end) = (pre as usize, pre as usize + size as usize + 1);
        while at < end {
            let room = self.room();
            let (rows, copied) = (
                self.open.len(),
                match at.checked_sub(self.cols.len) {
                    Some(l) => {
                        let take = room.min(end - at);
                        self.open.extend_rows_within(l..l + take);
                        take
                    }
                    None => {
                        let (ci, l) = self.cols.locate(at as u32);
                        let src = &self.cols.chunks[ci];
                        let take = room.min(end - at).min(src.len() - l);
                        self.open.extend_rows(src, l..l + take);
                        take
                    }
                },
            );
            for lv in &mut self.open.level[rows..] {
                *lv = *lv - from + level;
            }
            at += copied;
        }
    }

    /// Append a copy of the subtree at `pre` of another image `src`, its
    /// root at `level`: a walk over its rows that copies their texts and
    /// maps each distinct code once.
    pub(crate) fn copy_from(&mut self, src: &DocumentColumns, pre: u32, level: u16) {
        let from = src.node_level(pre);
        src.walk_rows(pre, src.node_size(pre) as usize + 1, |row| {
            self.room();
            let row_level = row.level - from + level;
            let names = [&mut self.cols.tags, &mut self.cols.attr_names];
            let (values, maps) = (&mut self.values, &mut self.maps);
            self.open
                .push_mapped(row, row_level, src, names, values, maps);
        });
    }

    /// End the session: the open chunk joins the image, the values the
    /// session brought merge into the value dictionary (remapping the
    /// chunks holding a code the merge moves), and the chunks it wrote get
    /// their summaries.
    pub(crate) fn seal(self) -> DocumentColumns {
        let Appender {
            mut cols,
            open,
            first,
            values,
            ..
        } = self;
        if open.len() > 0 {
            cols.push_chunk(open);
        }
        cols.merge(values);
        for chunk in &mut cols.chunks[first..] {
            Arc::make_mut(chunk).rebuild_summary();
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Document, DocumentBuilder};
    use crate::shred::{shred, ShredOptions};
    use mxq_engine::join::radix_hash_join;
    use mxq_engine::Column;

    const XML: &str = r#"<site><item id="1"><name>a</name></item><item id="2"/></site>"#;

    /// A shredded document and its column image.
    fn image(xml: &str) -> (Document, DocumentColumns) {
        let doc = shred("t", xml, &ShredOptions::default()).unwrap();
        let cols = doc.columns().clone();
        (doc, cols)
    }

    #[test]
    fn export_shapes_and_dictionaries() {
        let (doc, cols) = image(XML);
        assert_eq!(cols.len(), doc.len());
        assert_eq!(cols.attr_count(), 2);
        // tag interner: "", site, item, name — in first-seen order
        let tags: Vec<&str> = cols.tags().iter().map(|s| s.as_ref()).collect();
        assert_eq!(tags, ["", "site", "item", "name"]);
        let attr_names: Vec<&str> = cols.attr_names().iter().map(|s| s.as_ref()).collect();
        assert_eq!(attr_names, ["id"]);
        // row 0 is the root element
        assert_eq!(cols.node_name(0), "site");
        assert_eq!(cols.tags().str_of(cols.node_name_code(0)).as_ref(), "site");
        // the dense read path: site, item, name, "a", item
        let (e, t) = (NodeKind::Element, NodeKind::Text);
        let rows: Vec<(u32, u16, NodeKind)> = (0..doc.len() as u32)
            .map(|p| (cols.node_size(p), cols.node_level(p), cols.node_kind(p)))
            .collect();
        assert_eq!(
            rows,
            [(4, 0, e), (2, 1, e), (1, 2, e), (0, 3, t), (0, 1, e)]
        );
        assert_eq!(cols.attr_value_of(1, "id"), Some("1"));
        assert_eq!(cols.attr_value_of(1, "missing"), None);
    }

    /// The `Dict` column an attribute step emits over `owners`: value codes
    /// straight from the image, over its shared value dictionary.
    fn attr_values_of(cols: &DocumentColumns, owners: &[u32], name: &str) -> Column {
        let name = cols.attr_names().code_of(name).unwrap_or(u32::MAX);
        Column::Dict {
            codes: owners
                .iter()
                .filter_map(|&p| cols.attr_value_code_of(p, name))
                .collect(),
            dict: cols.attr_values().clone(),
        }
    }

    #[test]
    fn shared_dictionary_enables_code_joins() {
        let xml = r#"<r><p id="a"/><p id="b"/><o by="b"/><o by="a"/><o by="b"/></r>"#;
        let (doc, cols) = image(xml);
        let people = attr_values_of(&cols, &doc.elements_named("p"), "id");
        let orders = attr_values_of(&cols, &doc.elements_named("o"), "by");
        let (_, pdict) = people.dict_parts().unwrap();
        let (_, odict) = orders.dict_parts().unwrap();
        assert!(Arc::ptr_eq(pdict, odict), "dictionary is shared");
        // joining the two attribute columns pairs each order with its buyer
        let (l, r) = radix_hash_join(&people, &orders);
        assert_eq!(l, vec![0, 1, 1]);
        assert_eq!(r, vec![1, 0, 2]);
    }

    #[test]
    fn attribute_values_are_dictionary_encoded() {
        let (doc, cols) = image(XML);
        let value = attr_values_of(&cols, &doc.elements_named("item"), "id");
        let (codes, dict) = value.dict_parts().unwrap();
        assert!(
            Arc::ptr_eq(dict, cols.attr_values()),
            "dictionary is shared"
        );
        assert_eq!(codes.len(), 2);
        assert_eq!(value.item(0).string_value(), "1");
        assert_eq!(value.item(1).string_value(), "2");
        // the id values are numeric strings, so the mixed code join runs:
        // self-join matches each value exactly once
        let (l, r) = radix_hash_join(&value, &value);
        assert_eq!(l, vec![0, 1]);
        assert_eq!(r, vec![0, 1]);
        // the owner's code run agrees with the per-name lookup
        assert_eq!(cols.attr_value_codes_of(1), &codes[..1]);
    }

    #[test]
    fn same_content_detects_divergence() {
        let (_, a) = image(XML);
        let (_, mut b) = image(XML);
        a.same_content(&b).unwrap();
        b.add_size(0, 1);
        assert!(a.same_content(&b).is_err());
    }

    #[test]
    fn check_invariants_catches_a_broken_image() -> Result<(), Box<dyn std::error::Error>> {
        let (_, mut cols) = image(XML);
        cols.check_invariants()?;
        // a size that disagrees with the level structure
        cols.add_size(1, 1);
        assert!(cols.check_invariants().is_err());
        cols.add_size(1, -1);
        // text on an element row
        let (ci, l) = cols.locate(1);
        Arc::make_mut(&mut cols.chunks[ci]).set_text(l, "x");
        assert!(cols.check_invariants().is_err());
        Arc::make_mut(&mut cols.chunks[ci]).set_text(l, "");
        cols.check_invariants()?;
        // a text end that splits a character
        let (ci, l) = cols.locate(3);
        let chunk = Arc::make_mut(&mut cols.chunks[ci]);
        chunk.set_text(l, "é");
        chunk.ends[l] -= 1;
        chunk.heap.pop();
        assert!(cols.check_invariants().is_err());
        // codes past their interner or dictionary (one name, two values)
        for column in ["name", "attribute-name", "attribute-value"] {
            let (_, mut cols) = image(XML);
            let chunk = Arc::make_mut(&mut cols.chunks[0]);
            let codes = match column {
                "name" => &mut chunk.name_code,
                "attribute-name" => &mut chunk.attr_name_code,
                _ => &mut chunk.attr_value_code,
            };
            codes[0] = 4;
            let err = cols.check_invariants().expect_err(column);
            assert!(err.contains(&format!("a {column} code")), "{err}");
        }
        // an interner whose map disagrees with its list
        let (_, mut cols) = image(XML);
        Arc::make_mut(&mut cols.tags).strings.swap(1, 2);
        let err = cols.check_invariants().expect_err("a swapped interner");
        assert!(err.starts_with("tags: "), "{err}");
        Ok(())
    }

    /// Texts and PI targets live in the chunk: the heap holds the content
    /// of text, comment and PI rows, the name column the PI target.
    #[test]
    fn text_column_and_pi_targets() -> Result<(), Box<dyn std::error::Error>> {
        let xml = "<a><!--note--><?tgt data?>x<b/></a>";
        let (doc, cols) = image(xml);
        cols.check_invariants()?;
        let texts: Vec<&str> = (0..doc.len() as u32)
            .map(|pre| cols.node_text(pre))
            .collect();
        assert_eq!(texts, ["", "note", "data", "x", ""]);
        assert_eq!(cols.chunks[0].heap, "notedatax");
        assert_eq!(cols.node_name(2), "tgt");
        // the posting index holds elements only: the PI target is no step
        // candidate
        let code = cols.tags().code_of("tgt").ok_or("target encoded")?;
        assert!(cols.chunk_named(0, code).offsets.is_empty());
        Ok(())
    }

    /// A fragment the builder writes.
    fn built(build: impl FnOnce(&mut DocumentBuilder)) -> Document {
        let mut b = DocumentBuilder::new("#fragment");
        build(&mut b);
        b.finish()
    }

    /// A wide flat document: root + n <r i="i"><t>text</t></r> children.
    fn wide_doc(n: usize) -> Document {
        let mut xml = String::from("<root>");
        for i in 0..n {
            xml.push_str(&format!("<r i=\"{i}\"><t>x{i}</t></r>"));
        }
        xml.push_str("</root>");
        shred("w", &xml, &ShredOptions::default()).unwrap()
    }

    #[test]
    fn chunk_geometry_and_rechunking() -> Result<(), String> {
        let doc = wide_doc(100); // 301 nodes
        for rows in [16usize, 64, 256] {
            let cols = doc.columns().rechunked(rows);
            assert_eq!(cols.chunk_rows(), rows);
            assert_eq!(cols.chunk_count(), doc.len().div_ceil(rows));
            // spans tile the pre range exactly
            let mut at = 0u32;
            for i in 0..cols.chunk_count() {
                let (start, len) = cols.chunk_span(i);
                assert_eq!(start, at);
                at += len as u32;
            }
            assert_eq!(at as usize, doc.len());
            // content (the heaps' bytes included) is chunking-invariant
            cols.check_invariants()?;
            cols.same_content(doc.columns())?;
            // rechunking round-trips
            cols.rechunked(32).same_content(&cols)?;
        }
        Ok(())
    }

    #[test]
    fn chunk_summaries_cover_their_rows() {
        let doc = wide_doc(100);
        let cols = doc.columns().rechunked(64);
        for i in 0..cols.chunk_count() {
            let (start, len) = cols.chunk_span(i);
            let chunk = &cols.chunks[i];
            for p in start..start + len as u32 {
                let lv = cols.node_level(p);
                assert!(lv >= chunk.min_level && lv <= chunk.max_level);
                assert!(cols.chunk_has_kind(i, cols.node_kind(p)));
                let code = cols.node_name_code(p);
                assert!(chunk.name_buckets & (1u64 << (code % 64)) != 0);
            }
        }
    }

    #[test]
    fn anchor_before_matches_linear_scan() {
        let doc = wide_doc(50);
        let cols = doc.columns().rechunked(16);
        for pos in 0..doc.len() as u32 {
            for level in 0..4u16 {
                let expect = (0..pos).rev().find(|&v| cols.node_level(v) < level);
                assert_eq!(
                    cols.anchor_before(pos, level),
                    expect,
                    "pos {pos} lv {level}"
                );
            }
        }
    }

    #[test]
    fn splice_stays_within_one_chunk() {
        let doc = wide_doc(100);
        let mut cols = doc.columns().rechunked(64);
        let before: Vec<(u32, usize)> = (0..cols.chunk_count())
            .map(|i| cols.chunk_span(i))
            .collect();
        // splice a childless element row into the middle of chunk 2
        let at = (before[2].0 as usize) + 10;
        let row = built(|b| {
            b.start_element("zzz");
            b.attribute("k", "v");
            b.end_element();
        });
        let published = cols.clone();
        cols.splice_nodes(at, row.columns(), 1);
        // its names sort after every other one: no chunk but the spliced
        // one is copied
        for i in (0..cols.chunk_count()).filter(|&i| i != 2) {
            assert!(cols.shares_chunk(i, &published, i), "chunk {i} copied");
        }
        // chunks before the splice point kept their row counts; only the
        // spliced chunk grew
        assert_eq!(cols.chunk_span(2).1, before[2].1 + 1);
        for (i, b) in before.iter().enumerate().take(2) {
            assert_eq!(cols.chunk_span(i).1, b.1);
        }
        assert_eq!(cols.node_name(at as u32), "zzz");
        assert_eq!(cols.attr_value_of(at as u32, "k"), Some("v"));
        // and removal restores the original content
        cols.remove_nodes(at, 1);
        cols.same_content(doc.columns()).unwrap();
    }

    /// Every chunk's name directory answers like a linear filter of the
    /// chunk's element rows, for every code of the tag interner.
    fn assert_directory_matches_rows(cols: &DocumentColumns) {
        for i in 0..cols.chunk_count() {
            let (start, len) = cols.chunk_span(i);
            for code in 0..cols.tags().len() as u32 {
                let run = cols.chunk_named(start, code);
                let got: Vec<u32> = run.offsets.iter().map(|&o| run.base + o).collect();
                let want: Vec<u32> = (start..start + len as u32)
                    .filter(|&p| {
                        cols.node_kind(p) == NodeKind::Element && cols.node_name_code(p) == code
                    })
                    .collect();
                assert_eq!(got, want, "chunk {i}, name {:?}", cols.tags().str_of(code));
            }
        }
    }

    /// A new name gets the next code, also one that sorts before every
    /// element name: an insert and a rename that bring one leave every
    /// chunk's name directory answering like a linear filter.
    #[test]
    fn name_directory_follows_a_dictionary_remap() -> Result<(), String> {
        let doc = wide_doc(30); // 91 nodes
        let mut cols = doc.columns().rechunked(16);
        assert_directory_matches_rows(&cols);
        // insert a childless <aa/> before the 12th <r> (chunk 2) …
        let row = built(|b| {
            b.start_element("aa");
            b.end_element();
        });
        cols.splice_nodes(1 + 3 * 11, row.columns(), 1);
        cols.add_size(0, 1);
        assert_directory_matches_rows(&cols);
        cols.check_invariants()?;
        // … then rename an <r> of chunk 4 to a name that sorts before it
        let pre = 1 + 3 * 21 + 1; // past the inserted row
        assert_eq!(cols.node_name(pre), "r");
        cols.set_name(pre, "a");
        assert_directory_matches_rows(&cols);
        cols.check_invariants()?;
        let tags: Vec<&str> = cols.tags().iter().map(|s| s.as_ref()).collect();
        assert_eq!(tags, ["", "root", "r", "t", "aa", "a"]);
        Ok(())
    }

    #[test]
    fn oversized_chunks_split() {
        let doc = wide_doc(4); // 13 nodes
        let mut cols = doc.columns().rechunked(16);
        assert_eq!(cols.chunk_count(), 1);
        let rows = built(|b| {
            for i in 0..40 {
                b.text(&format!("t{i}"));
            }
        });
        cols.splice_nodes(13, rows.columns(), 1);
        assert!(cols.chunk_count() > 1, "oversized chunk must split");
        for i in 0..cols.chunk_count() {
            assert!(cols.chunk_span(i).1 <= 2 * cols.chunk_rows());
        }
        assert_eq!(cols.len(), 53);
    }

    /// The text of every row, read back.
    fn texts(cols: &DocumentColumns) -> Vec<String> {
        (0..cols.len() as u32)
            .map(|pre| cols.node_text(pre).to_string())
            .collect()
    }

    /// The image passes its checks, every row reads the text of `want`,
    /// and every heap holds exactly the bytes of its rows' texts.
    fn assert_texts(cols: &DocumentColumns, want: &[String]) -> Result<(), String> {
        cols.check_invariants()?;
        assert_eq!(texts(cols), want);
        for c in &cols.chunks {
            let live: usize = (0..c.len()).map(|l| c.text(l).len()).sum();
            assert_eq!(c.heap.len(), live, "dead bytes in a heap");
        }
        Ok(())
    }

    /// Growing and shrinking a text in place, a splice into the middle of
    /// a chunk, a removal across chunks and the split of an oversized
    /// chunk move heap bytes with their rows and leave every text intact.
    #[test]
    fn text_heaps_follow_every_patch() -> Result<(), String> {
        let doc = wide_doc(12); // 37 rows, texts at rows 3, 6, …
        for rows in [2usize, 4, 16] {
            let mut cols = doc.columns().rechunked(rows);
            let mut want = texts(&cols);
            for (pre, text) in [
                (3, "a text much longer than x0"),
                (6, ""),
                (9, "é"),
                (3, "y"),
            ] {
                cols.set_text(pre, text);
                want[pre as usize] = text.to_string();
                assert_texts(&cols, &want)?;
            }
            // three text rows spliced in at a chunk-local offset of 1
            let piece = built(|b| {
                b.text("s1");
                b.comment("s2 ü");
                b.processing_instruction("p", "s3");
            });
            cols.splice_nodes(13, piece.columns(), 1);
            cols.add_size(0, 3);
            want.splice(13..13, ["s1", "s2 ü", "s3"].map(String::from));
            assert_texts(&cols, &want)?;
            // the third <r> subtree, across chunk bounds at 2 and 4 rows
            cols.remove_nodes(7, 3);
            cols.add_size(0, -3);
            want.drain(7..10);
            assert_texts(&cols, &want)?;
            // forty text rows into one chunk: it splits
            let many = built(|b| {
                for i in 0..40 {
                    b.text(&format!("many {i}"));
                }
            });
            let chunks = cols.chunk_count();
            cols.splice_nodes(4, many.columns(), 1);
            cols.add_size(0, 40);
            want.splice(4..4, (0..40).map(|i| format!("many {i}")));
            assert!(cols.chunk_count() > chunks + 1, "the chunk split");
            assert_texts(&cols, &want)?;
        }
        Ok(())
    }
}
