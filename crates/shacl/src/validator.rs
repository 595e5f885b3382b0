//! Conformance checking (Table 1) and schema validation.
//!
//! [`Context`] bundles a schema and a graph with a per-graph compiled-path
//! cache; [`Context::conforms`] decides `H, G, a ⊨ φ`. [`validate`] checks
//! a whole graph against a schema, producing a [`ValidationReport`] in the
//! style of a SHACL engine — this is the "mere validation" baseline of the
//! overhead experiment (§5.3.1).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use shapefrag_govern::{EngineError, ExecCtx};
use shapefrag_rdf::graph::IntMap;
use shapefrag_rdf::{Graph, GraphAccess, Iri, Term, TermId};

use crate::nnf::Nnf;
use crate::path::PathExpr;
use crate::rpq::PathCache;
use crate::schema::Schema;
use crate::shape::{PathOrId, Shape};

/// A memo entry is two bits: bit 0 marks a decided fact and bit 1 holds
/// its value, so `00` is undecided, `01` is false and `11` is true.
const DECIDED: u64 = 0b01;
const DECIDED_TRUE: u64 = 0b11;
/// Bit 0 of all 32 entries of a word, for counting decided entries.
const DECIDED_MASK: u64 = 0x5555_5555_5555_5555;
/// Entries per `AtomicU64` word.
const NODES_PER_WORD: usize = 32;

/// A shared table of decided `(shape name, node)` conformance facts.
///
/// Conformance of a node to a *named* shape is a pure function of the graph
/// and schema, so once decided it can be reused by every referencing target
/// — and by every worker thread. Facts live in dense per-shape tables of
/// 2-bit entries indexed by [`TermId`], read and written with relaxed
/// atomics: no hashing and no lock on a lookup or an insert. A memo
/// is valid for exactly one `(graph, schema)` pair; the first
/// [`Context::with_memo`] binds the memo to a cheap fingerprint of that
/// pair, and a later mismatch panics in debug builds and detaches the memo
/// (running unmemoized, which is always sound) in release builds — stale
/// reuse across snapshots/epochs cannot poison results. The incremental
/// engine moves a memo across graph *versions* deliberately: it drops the
/// impacted entries ([`ConformanceMemo::invalidate`]) and then re-binds to
/// the new fingerprint ([`ConformanceMemo::rebind`]).
pub struct ConformanceMemo {
    /// The current tables, sized from the bound schema and graph. Binding,
    /// [`ConformanceMemo::rebind`] and an out-of-range
    /// [`ConformanceMemo::insert`] replace them with a grown copy, and
    /// [`ConformanceMemo::clear`] with empty ones; a [`Context`] keeps the
    /// tables current at its creation.
    tables: RwLock<Arc<MemoTables>>,
    /// Fingerprint of the `(schema, graph)` pair this memo is bound to;
    /// `None` until the first attachment (or after [`ConformanceMemo::clear`]).
    binding: RwLock<Option<(u64, u64)>>,
    /// Optional subsumption index enabling derived answers: a bit decided
    /// for one shape can settle related shapes without re-evaluation. See
    /// [`ConformanceMemo::attach_containment`].
    containment: RwLock<Option<Arc<ContainmentIndex>>>,
    /// Whether `containment` holds an index, so a miss without one takes
    /// no lock. `Relaxed` suffices: the lock publishes the index itself,
    /// and a stale `false` only skips one optional derivation.
    indexed: AtomicBool,
    /// Lookups answered through a containment edge rather than a direct bit.
    containment_hits: AtomicU64,
    /// Lookups where the index was attached but no related bit applied.
    containment_misses: AtomicU64,
}

/// Dense conformance tables: per shape id, one 2-bit entry per node id in
/// `0..nodes`, 32 entries to an `AtomicU64`. A shape's table is allocated
/// on its first insert. A `(shape, node)` pair outside the bounds has no
/// entry and is simply not memoized, which is sound for a cache. Entries
/// use `Relaxed` atomics: an entry is the whole fact and publishes no
/// other data (the `OnceLock` publishes a table's allocation).
struct MemoTables {
    nodes: usize,
    shapes: Box<[OnceLock<Box<[AtomicU64]>>]>,
}

fn zeroed_words(words: usize) -> Box<[AtomicU64]> {
    (0..words).map(|_| AtomicU64::new(0)).collect()
}

impl MemoTables {
    fn new(shapes: usize, nodes: usize) -> MemoTables {
        MemoTables {
            nodes,
            shapes: (0..shapes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The word holding the `(shape, node)` entry and the entry's bit
    /// offset in it, allocating the shape's table when `alloc` is set;
    /// `None` outside the bounds (or for an unallocated table).
    fn entry(&self, shape: u32, node: TermId, alloc: bool) -> Option<(&AtomicU64, u32)> {
        let slot = self.shapes.get(shape as usize)?;
        let n = node.0 as usize;
        if n >= self.nodes {
            return None;
        }
        let table = if alloc {
            slot.get_or_init(|| zeroed_words(self.nodes.div_ceil(NODES_PER_WORD)))
        } else {
            slot.get()?
        };
        Some((&table[n / NODES_PER_WORD], 2 * (n % NODES_PER_WORD) as u32))
    }

    fn get(&self, shape: u32, node: TermId) -> Option<bool> {
        let (word, shift) = self.entry(shape, node, false)?;
        let code = (word.load(Ordering::Relaxed) >> shift) & DECIDED_TRUE;
        (code & DECIDED != 0).then_some(code == DECIDED_TRUE)
    }

    /// Records a fact; `false` when the pair lies outside the bounds.
    fn set(&self, shape: u32, node: TermId, value: bool) -> bool {
        let Some((word, shift)) = self.entry(shape, node, true) else {
            return false;
        };
        let mask = DECIDED_TRUE << shift;
        let code = if value { DECIDED_TRUE } else { DECIDED } << shift;
        // Compare-and-swap, so writers of neighbouring entries of one word
        // never lose each other's bits.
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
            (w & mask != code).then_some(w & !mask | code)
        });
        true
    }

    fn unset(&self, shape: u32, node: TermId) {
        if let Some((word, shift)) = self.entry(shape, node, false) {
            word.fetch_and(!(DECIDED_TRUE << shift), Ordering::Relaxed);
        }
    }

    fn unset_shape(&self, shape: u32) {
        if let Some(table) = self.shapes.get(shape as usize).and_then(OnceLock::get) {
            for word in table.iter() {
                word.store(0, Ordering::Relaxed);
            }
        }
    }

    fn len(&self) -> usize {
        self.shapes
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|table| table.iter())
            .map(|word| (word.load(Ordering::Relaxed) & DECIDED_MASK).count_ones() as usize)
            .sum()
    }

    /// A copy with room for at least `shapes` × `nodes` entries.
    fn grown(&self, shapes: usize, nodes: usize) -> MemoTables {
        let out = MemoTables::new(shapes.max(self.shapes.len()), nodes.max(self.nodes));
        let words = out.nodes.div_ceil(NODES_PER_WORD);
        for (slot, old) in out.shapes.iter().zip(self.shapes.iter()) {
            if let Some(old) = old.get() {
                let load = |i: usize| old.get(i).map_or(0, |w| w.load(Ordering::Relaxed));
                let _ = slot.set((0..words).map(|i| AtomicU64::new(load(i))).collect());
            }
        }
        out
    }

    /// Subsumption derivation: a `true` bit of any shape contained in
    /// `shape` proves `true`, and a `false` bit of any shape containing
    /// `shape` proves `false`.
    fn derive(&self, index: &ContainmentIndex, shape: u32, node: TermId) -> Option<bool> {
        if index
            .subs_of(shape)
            .iter()
            .any(|&sub| self.get(sub, node) == Some(true))
        {
            Some(true)
        } else if index
            .supers_of(shape)
            .iter()
            .any(|&sup| self.get(sup, node) == Some(false))
        {
            Some(false)
        } else {
            None
        }
    }
}

/// Adjacency form of a schema's proven containment relation, consumed by
/// [`ConformanceMemo`] for subsumption-keyed reuse. Shape ids are the
/// dense [`Schema::name_id`] ids; an edge `(sub, sup)` asserts that every
/// `sub`-conformant node is `sup`-conformant. The index is stamped with
/// [`schema_fingerprint`] of the schema it was computed for, so a memo
/// bound to a different schema refuses it.
///
/// The analyze crate's `ContainmentMatrix` produces these; this type is a
/// plain data holder so the validator does not depend on the analyzer.
#[derive(Debug, Clone, Default)]
pub struct ContainmentIndex {
    /// `supers[s]`: shapes properly containing `s` (a `false` there derives
    /// `false` for `s`).
    supers: Vec<Vec<u32>>,
    /// `subs[s]`: shapes properly contained in `s` (a `true` there derives
    /// `true` for `s`).
    subs: Vec<Vec<u32>>,
    schema_fp: u64,
}

impl ContainmentIndex {
    /// Builds the adjacency lists from proper containment edges
    /// `(sub, sup)` over `shapes` dense ids.
    pub fn from_edges(shapes: usize, edges: &[(u32, u32)], schema_fp: u64) -> ContainmentIndex {
        let mut supers = vec![Vec::new(); shapes];
        let mut subs = vec![Vec::new(); shapes];
        for &(sub, sup) in edges {
            supers[sub as usize].push(sup);
            subs[sup as usize].push(sub);
        }
        ContainmentIndex {
            supers,
            subs,
            schema_fp,
        }
    }

    /// Fingerprint of the schema the edges were proven over.
    pub fn schema_fp(&self) -> u64 {
        self.schema_fp
    }

    /// Shapes properly containing `sid`.
    pub fn supers_of(&self, sid: u32) -> &[u32] {
        self.supers.get(sid as usize).map_or(&[], Vec::as_slice)
    }

    /// Shapes properly contained in `sid`.
    pub fn subs_of(&self, sid: u32) -> &[u32] {
        self.subs.get(sid as usize).map_or(&[], Vec::as_slice)
    }

    /// True iff the index holds no edges at all.
    pub fn is_trivial(&self) -> bool {
        self.supers.iter().all(Vec::is_empty)
    }

    /// Every shape whose memo bits can transitively derive from — or flow
    /// into — bits of `seed`: the union of the forward closure over
    /// `supers` (true bits propagate sub → sup) and the backward closure
    /// over `subs` (false bits propagate sup → sub), including `seed`
    /// itself. This is the set the incremental engine must invalidate
    /// together with an impacted shape.
    pub fn related_closure(&self, seed: u32) -> Vec<u32> {
        let n = self.supers.len();
        let mut out: BTreeSet<u32> = BTreeSet::new();
        out.insert(seed);
        for forward in [true, false] {
            let mut seen = vec![false; n];
            if (seed as usize) < n {
                seen[seed as usize] = true;
            }
            let mut work = vec![seed];
            while let Some(s) = work.pop() {
                let next = if forward {
                    self.supers_of(s)
                } else {
                    self.subs_of(s)
                };
                for &t in next {
                    if !std::mem::replace(&mut seen[t as usize], true) {
                        out.insert(t);
                        work.push(t);
                    }
                }
            }
        }
        out.into_iter().collect()
    }
}

impl Default for ConformanceMemo {
    fn default() -> Self {
        ConformanceMemo::new()
    }
}

impl ConformanceMemo {
    /// Creates an empty memo (for one graph + schema pair).
    pub fn new() -> Self {
        ConformanceMemo {
            tables: RwLock::new(Arc::new(MemoTables::new(0, 0))),
            binding: RwLock::new(None),
            containment: RwLock::new(None),
            indexed: AtomicBool::new(false),
            containment_hits: AtomicU64::new(0),
            containment_misses: AtomicU64::new(0),
        }
    }

    /// Attaches a containment index, enabling subsumption-derived answers.
    /// Refused (returning `false`, leaving the memo without an index) when
    /// the memo is already bound to a schema with a different fingerprint —
    /// a matrix computed for another schema must never derive bits here.
    pub fn attach_containment(&self, index: Arc<ContainmentIndex>) -> bool {
        if let Some((schema_fp, _)) = *self.binding.read() {
            if schema_fp != index.schema_fp {
                return false;
            }
        }
        *self.containment.write() = Some(index);
        self.indexed.store(true, Ordering::Relaxed);
        true
    }

    /// The attached containment index, if any.
    pub fn containment(&self) -> Option<Arc<ContainmentIndex>> {
        if !self.indexed.load(Ordering::Relaxed) {
            return None;
        }
        self.containment.read().clone()
    }

    /// Drops an attached index proven over a schema other than `schema_fp`.
    fn drop_foreign_index(&self, schema_fp: u64) {
        let mut idx = self.containment.write();
        if idx.as_ref().is_some_and(|i| i.schema_fp != schema_fp) {
            *idx = None;
            self.indexed.store(false, Ordering::Relaxed);
        }
    }

    /// `(derived answers, derivation attempts that found nothing)` since
    /// construction. Both stay 0 until an index is attached.
    pub fn containment_counters(&self) -> (u64, u64) {
        (
            self.containment_hits.load(Ordering::Relaxed),
            self.containment_misses.load(Ordering::Relaxed),
        )
    }

    /// Grows the tables to hold `shapes` × `nodes` entries. Growing a
    /// non-empty node range adds a quarter of headroom, so a graph that
    /// interns a few terms per edit batch does not copy the tables on
    /// every rebind.
    fn reserve(&self, shapes: usize, nodes: usize) {
        let mut tables = self.tables.write();
        if shapes <= tables.shapes.len() && nodes <= tables.nodes {
            return;
        }
        let nodes = if nodes <= tables.nodes || tables.nodes == 0 {
            nodes
        } else {
            nodes.max(tables.nodes + tables.nodes / 4)
        };
        *tables = Arc::new(tables.grown(shapes, nodes));
    }

    /// Looks up a decided fact.
    pub fn lookup(&self, shape: u32, node: TermId) -> Option<bool> {
        self.tables.read().get(shape, node)
    }

    /// [`ConformanceMemo::lookup`] extended with subsumption derivation:
    /// on a direct miss, a `true` bit of any shape contained in `shape`
    /// proves `true` here, and a `false` bit of any shape containing
    /// `shape` proves `false`. Derived answers are written back as regular
    /// bits (they are genuine conformance facts) and counted in
    /// [`ConformanceMemo::containment_counters`].
    pub fn lookup_or_derive(&self, shape: u32, node: TermId) -> Option<bool> {
        self.lookup_or_derive_in(&self.tables.read(), shape, node)
    }

    fn lookup_or_derive_in(&self, tables: &MemoTables, shape: u32, node: TermId) -> Option<bool> {
        if let Some(v) = tables.get(shape, node) {
            return Some(v);
        }
        let index = self.containment()?;
        self.derive_in(tables, &index, shape, node)
    }

    /// Derives an undecided pair through `index`, writing a derived bit
    /// back and counting the attempt as a hit or a miss.
    fn derive_in(
        &self,
        tables: &MemoTables,
        index: &ContainmentIndex,
        shape: u32,
        node: TermId,
    ) -> Option<bool> {
        let derived = tables.derive(index, shape, node);
        match derived {
            Some(v) => {
                self.containment_hits.fetch_add(1, Ordering::Relaxed);
                tables.set(shape, node, v);
            }
            None => {
                self.containment_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        derived
    }

    /// Records a decided fact, growing the tables when the pair lies
    /// outside them. (Inside a [`Context`], a pair outside the context's
    /// tables is simply not memoized.)
    pub fn insert(&self, shape: u32, node: TermId, value: bool) {
        if !self.tables.read().set(shape, node, value) {
            self.reserve(shape as usize + 1, node.0 as usize + 1);
            self.tables.read().set(shape, node, value);
        }
    }

    /// Number of decided facts.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True iff nothing has been decided yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Binds the memo to the `(schema, graph)` pair on first use, sizing
    /// its tables; returns `false` when the memo is already bound to a
    /// *different* pair (the caller must then run unmemoized).
    fn bind_or_check<G: GraphAccess>(&self, schema: &Schema, graph: &G) -> bool {
        let fingerprint = memo_fingerprint(schema, graph);
        if let Some(bound) = *self.binding.read() {
            return bound == fingerprint;
        }
        let mut slot = self.binding.write();
        match *slot {
            Some(bound) => bound == fingerprint,
            None => {
                *slot = Some(fingerprint);
                // An index attached before the first binding was taken on
                // trust; now that the schema is known, drop a mismatch.
                self.drop_foreign_index(fingerprint.0);
                self.reserve(schema.len(), graph.term_count());
                true
            }
        }
    }

    /// Drops the decided facts of `shape` at exactly `nodes`, leaving every
    /// other `(shape, node)` entry in place. This is the incremental
    /// engine's selective invalidation: after an edit batch, only
    /// impact-routed pairs are dropped and everything else is reused.
    pub fn invalidate(&self, shape: u32, nodes: impl IntoIterator<Item = TermId>) {
        let tables = self.tables.read();
        for node in nodes {
            tables.unset(shape, node);
        }
    }

    /// Drops every decided fact of `shape` regardless of node. The
    /// incremental engine falls back to this when a shape's impact profile
    /// is a wildcard with unbounded depth (any edit may flip any focus).
    pub fn invalidate_shape(&self, shape: u32) {
        self.tables.read().unset_shape(shape);
    }

    /// Re-binds the memo to a new `(schema, graph)` pair, growing the
    /// tables to cover terms the new graph interned. Sound only when
    /// the caller has already invalidated every entry whose truth value may
    /// differ between the old and new graph (and the id space is shared,
    /// as it is along a delta/compaction lineage).
    pub fn rebind<G: GraphAccess>(&self, schema: &Schema, graph: &G) {
        let fingerprint = memo_fingerprint(schema, graph);
        *self.binding.write() = Some(fingerprint);
        // A containment index proven over a different schema must not
        // survive the rebind.
        self.drop_foreign_index(fingerprint.0);
        self.reserve(schema.len(), graph.term_count());
    }

    /// Forgets every decided fact *and* the binding, returning the memo to
    /// its freshly-constructed state. The governed incremental path uses
    /// this on a mid-batch fault: the memo is either untouched or fully
    /// cleared, never half-invalidated.
    pub fn clear(&self) {
        *self.tables.write() = Arc::new(MemoTables::new(0, 0));
        *self.binding.write() = None;
        *self.containment.write() = None;
        self.indexed.store(false, Ordering::Relaxed);
        self.containment_hits.store(0, Ordering::Relaxed);
        self.containment_misses.store(0, Ordering::Relaxed);
    }
}

/// Order-sensitive fingerprint of a `(schema, graph)` pair for the memo
/// binding check. Freezing is id-stable, so a graph and its
/// [`FrozenGraph`](shapefrag_rdf::FrozenGraph) snapshot fingerprint alike —
/// sharing a memo across the two backends is sound and stays allowed. The
/// fingerprint is a cheap O(schema + 32 triples) guard against accidental
/// cross-pair reuse, not a cryptographic content hash.
fn memo_fingerprint<G: GraphAccess>(schema: &Schema, graph: &G) -> (u64, u64) {
    use std::hash::{Hash, Hasher};
    let mut hg = std::collections::hash_map::DefaultHasher::new();
    graph.len().hash(&mut hg);
    graph.term_count().hash(&mut hg);
    for triple in graph.iter_ids().take(32) {
        triple.hash(&mut hg);
    }
    (schema_fingerprint(schema), hg.finish())
}

/// The schema half of the memo fingerprint, exposed so a
/// [`ContainmentIndex`] can be stamped with the schema it was proven over
/// (and refused by a memo bound to any other schema).
pub fn schema_fingerprint(schema: &Schema) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hs = std::collections::hash_map::DefaultHasher::new();
    schema.len().hash(&mut hs);
    for def in schema.iter() {
        def.name.hash(&mut hs);
    }
    hs.finish()
}

/// Evaluation context: a schema, a graph, and the path-compilation cache.
///
/// A context optionally carries an [`ExecCtx`] (deadline, step/memory
/// budgets, depth limit, cancellation). The boolean conformance API cannot
/// return `Result`, so resource faults are *sticky*: the first
/// [`EngineError`] is recorded, every subsequent primitive short-circuits
/// (returning `false`/empty to unwind quickly), and governed entry points
/// (such as [`validate_governed`]) surface the fault as
/// an `Err` instead of a report.
pub struct Context<'a, G: GraphAccess = Graph> {
    pub schema: &'a Schema,
    pub graph: &'a G,
    paths: PathCache,
    /// Shared `hasShape` decisions; `None` disables memoization.
    memo: Option<MemoView>,
    /// Resource governor; unbounded by default.
    exec: ExecCtx,
    /// First resource fault observed (sticky until [`Context::take_fault`]).
    fault: Option<EngineError>,
}

/// A context's handle on a shared memo: the memo and the tables that were
/// current when the context was created, read and written without locks.
struct MemoView {
    memo: Arc<ConformanceMemo>,
    tables: Arc<MemoTables>,
}

impl<'a, G: GraphAccess> Context<'a, G> {
    /// Creates a context for a schema and graph.
    pub fn new(schema: &'a Schema, graph: &'a G) -> Self {
        Context {
            schema,
            graph,
            paths: PathCache::new(),
            memo: None,
            exec: ExecCtx::unbounded(),
            fault: None,
        }
    }

    /// Creates a context sharing a conformance memo with other contexts
    /// (possibly on other threads). The memo must have been created for
    /// this same `(graph, schema)` pair; the first attachment binds the
    /// memo to the pair's fingerprint. A mismatching later attachment
    /// panics in debug builds; release builds detach the memo and run
    /// unmemoized (correct, just slower), so a stale memo can never leak
    /// conformance facts across snapshots.
    pub fn with_memo(schema: &'a Schema, graph: &'a G, memo: Arc<ConformanceMemo>) -> Self {
        let attached = memo.bind_or_check(schema, graph);
        debug_assert!(
            attached,
            "ConformanceMemo reused across a different (schema, graph) pair; \
             create one memo per pair (see Context::with_memo)"
        );
        Context {
            schema,
            graph,
            paths: PathCache::new(),
            memo: attached.then(|| {
                let tables = Arc::clone(&memo.tables.read());
                MemoView { memo, tables }
            }),
            exec: ExecCtx::unbounded(),
            fault: None,
        }
    }

    /// Attaches an execution governor (builder style):
    /// `Context::new(..).with_exec(ExecCtx::with_budget(..))`.
    pub fn with_exec(mut self, exec: ExecCtx) -> Self {
        self.exec = exec;
        self
    }

    /// The execution governor (for reading `steps_used` etc.).
    pub fn exec(&self) -> &ExecCtx {
        &self.exec
    }

    /// Takes the sticky resource fault, if any. After a `Some` return the
    /// context is usable again (but partial memo entries from the faulted
    /// run remain valid: they were decided before the fault).
    pub fn take_fault(&mut self) -> Option<EngineError> {
        self.fault.take()
    }

    /// True iff a resource fault has been recorded and not yet taken.
    pub fn faulted(&self) -> bool {
        self.fault.is_some()
    }

    fn record_fault(&mut self, e: EngineError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// Enters one governed recursion level on behalf of an external
    /// recursive worker (the provenance collectors in `shapefrag-core`
    /// recurse on shape structure without passing through
    /// [`Context::conforms`]). Returns `false` — recording the fault — when
    /// the depth limit, budget, deadline, or cancellation trips; pair every
    /// `true` return with [`Context::guard_leave`].
    pub fn guard_enter(&mut self) -> bool {
        if self.fault.is_some() {
            return false;
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return false;
        }
        true
    }

    /// Leaves a recursion level entered via [`Context::guard_enter`].
    pub fn guard_leave(&mut self) {
        self.exec.leave();
    }

    /// `⟦E⟧^G(a)`.
    pub fn eval_path(&mut self, path: &PathExpr, from: TermId) -> BTreeSet<TermId> {
        match self.paths.try_eval(path, self.graph, from, &self.exec) {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                BTreeSet::new()
            }
        }
    }

    /// `graph(paths(E, G, from, targets))` as id triples.
    pub fn trace_path(
        &mut self,
        path: &PathExpr,
        from: TermId,
        targets: &BTreeSet<TermId>,
    ) -> BTreeSet<(TermId, TermId, TermId)> {
        match self
            .paths
            .try_trace(path, self.graph, from, targets, &self.exec)
        {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                BTreeSet::new()
            }
        }
    }

    /// `⟦F⟧^G(a)` where `F` is a path expression or `id`.
    pub fn eval_path_or_id(&mut self, f: &PathOrId, from: TermId) -> BTreeSet<TermId> {
        match f {
            PathOrId::Id => BTreeSet::from([from]),
            PathOrId::Path(e) => self.eval_path(e, from),
        }
    }

    /// Decides `H, G, a ⊨ φ` (Table 1).
    ///
    /// Under a governor, each call costs one step and one recursion level;
    /// on a resource fault the answer is `false` and the fault is recorded
    /// (see [`Context::take_fault`]).
    pub fn conforms(&mut self, node: TermId, shape: &Shape) -> bool {
        if self.fault.is_some() {
            return false;
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return false;
        }
        let out = self.conforms_inner(node, shape);
        self.exec.leave();
        out
    }

    fn conforms_inner(&mut self, node: TermId, shape: &Shape) -> bool {
        match shape {
            Shape::True => true,
            Shape::False => false,
            Shape::HasShape(name) => self.conforms_named(node, name),
            Shape::Test(t) => t.satisfied_by(self.graph.term(node)),
            Shape::HasValue(c) => self.graph.term(node) == c,
            Shape::Eq(f, p) => self.eq_holds(node, f, p),
            Shape::Disj(f, p) => self.disj_holds(node, f, p),
            Shape::Closed(allowed) => self.closed_holds(node, allowed),
            Shape::LessThan(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Lt),
            Shape::LessThanEq(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Le),
            Shape::MoreThan(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Gt),
            Shape::MoreThanEq(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Ge),
            Shape::UniqueLang(e) => self.unique_lang_holds(node, e),
            Shape::Not(inner) => !self.conforms(node, inner),
            Shape::And(items) => items.iter().all(|s| self.conforms(node, s)),
            Shape::Or(items) => items.iter().any(|s| self.conforms(node, s)),
            Shape::Geq(n, e, inner) => {
                let candidates = self.eval_path(e, node);
                let mut count: u32 = 0;
                for b in candidates {
                    if self.conforms(b, inner) {
                        count += 1;
                        if count >= *n {
                            return true;
                        }
                    }
                }
                count >= *n
            }
            Shape::Leq(n, e, inner) => {
                let candidates = self.eval_path(e, node);
                let mut count: u32 = 0;
                for b in candidates {
                    if self.conforms(b, inner) {
                        count += 1;
                        if count > *n {
                            return false;
                        }
                    }
                }
                true
            }
            Shape::ForAll(e, inner) => {
                let candidates = self.eval_path(e, node);
                candidates.into_iter().all(|b| self.conforms(b, inner))
            }
        }
    }

    /// Decides conformance for an NNF shape (used by the provenance engine,
    /// which works on NNF throughout).
    pub fn conforms_nnf(&mut self, node: TermId, shape: &Nnf) -> bool {
        if self.fault.is_some() {
            return false;
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return false;
        }
        let out = self.conforms_nnf_inner(node, shape);
        self.exec.leave();
        out
    }

    fn conforms_nnf_inner(&mut self, node: TermId, shape: &Nnf) -> bool {
        match shape {
            Nnf::True => true,
            Nnf::False => false,
            Nnf::HasShape(name) => self.conforms_named(node, name),
            Nnf::NotHasShape(name) => !self.conforms_named(node, name),
            Nnf::Test(t) => t.satisfied_by(self.graph.term(node)),
            Nnf::NotTest(t) => !t.satisfied_by(self.graph.term(node)),
            Nnf::HasValue(c) => self.graph.term(node) == c,
            Nnf::NotHasValue(c) => self.graph.term(node) != c,
            Nnf::Eq(f, p) => self.eq_holds(node, f, p),
            Nnf::NotEq(f, p) => !self.eq_holds(node, f, p),
            Nnf::Disj(f, p) => self.disj_holds(node, f, p),
            Nnf::NotDisj(f, p) => !self.disj_holds(node, f, p),
            Nnf::Closed(ps) => self.closed_holds(node, ps),
            Nnf::NotClosed(ps) => !self.closed_holds(node, ps),
            Nnf::LessThan(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Lt),
            Nnf::NotLessThan(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Lt),
            Nnf::LessThanEq(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Le),
            Nnf::NotLessThanEq(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Le),
            Nnf::MoreThan(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Gt),
            Nnf::NotMoreThan(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Gt),
            Nnf::MoreThanEq(e, p) => self.pairwise_cmp(e, p, node, CmpOp::Ge),
            Nnf::NotMoreThanEq(e, p) => !self.pairwise_cmp(e, p, node, CmpOp::Ge),
            Nnf::UniqueLang(e) => self.unique_lang_holds(node, e),
            Nnf::NotUniqueLang(e) => !self.unique_lang_holds(node, e),
            Nnf::And(items) => items.iter().all(|s| self.conforms_nnf(node, s)),
            Nnf::Or(items) => items.iter().any(|s| self.conforms_nnf(node, s)),
            Nnf::Geq(n, e, inner) => {
                let candidates = self.eval_path(e, node);
                let mut count: u32 = 0;
                for b in candidates {
                    if self.conforms_nnf(b, inner) {
                        count += 1;
                        if count >= *n {
                            return true;
                        }
                    }
                }
                count >= *n
            }
            Nnf::Leq(n, e, inner) => {
                let candidates = self.eval_path(e, node);
                let mut count: u32 = 0;
                for b in candidates {
                    if self.conforms_nnf(b, inner) {
                        count += 1;
                        if count > *n {
                            return false;
                        }
                    }
                }
                true
            }
            Nnf::ForAll(e, inner) => {
                let candidates = self.eval_path(e, node);
                candidates.into_iter().all(|b| self.conforms_nnf(b, inner))
            }
        }
    }

    /// Decides `H, G, a ⊨ hasShape(s)`, consulting the shared memo when one
    /// is attached: each `(shape name, node)` pair is decided at most once
    /// per memo, no matter how many referencing shapes or targets ask.
    pub fn conforms_named(&mut self, node: TermId, name: &Term) -> bool {
        let schema = self.schema;
        let sid = self.memo.as_ref().and_then(|_| schema.name_id(name));
        if let (Some(view), Some(sid)) = (&self.memo, sid) {
            if let Some(decided) = view.memo.lookup_or_derive_in(&view.tables, sid, node) {
                return decided;
            }
        }
        let value = self.conforms(node, schema.def(name));
        // A faulted run's answers are unwinding placeholders, not
        // decisions; keep them out of the shared memo.
        if let (Some(view), Some(sid), None) = (&self.memo, sid, &self.fault) {
            view.tables.set(sid, node, value);
        }
        value
    }

    /// Set-at-a-time `⟦E⟧^G(sources[i])` through the multi-source kernel.
    pub fn eval_path_many(&mut self, path: &PathExpr, sources: &[TermId]) -> Vec<BTreeSet<TermId>> {
        match self
            .paths
            .try_eval_many(path, self.graph, sources, &self.exec)
        {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                vec![BTreeSet::new(); sources.len()]
            }
        }
    }

    /// Batched path tracing through the multi-source kernel.
    pub fn trace_path_many(
        &mut self,
        path: &PathExpr,
        requests: &[(TermId, BTreeSet<TermId>)],
    ) -> Vec<BTreeSet<(TermId, TermId, TermId)>> {
        match self
            .paths
            .try_trace_many(path, self.graph, requests, &self.exec)
        {
            Ok(out) => out,
            Err(e) => {
                self.record_fault(e);
                vec![BTreeSet::new(); requests.len()]
            }
        }
    }

    /// Batch driver: decides `H, G, a ⊨ φ` for every node at once,
    /// agreeing pointwise with [`Context::conforms`].
    ///
    /// Boolean structure is evaluated set-wise (narrowing to still-undecided
    /// nodes), quantifier candidate sets come from one multi-source RPQ pass
    /// over all focus nodes, and candidate conformance is decided once per
    /// *distinct* candidate instead of once per (focus, candidate) pair.
    pub fn conforms_all(&mut self, nodes: &[TermId], shape: &Shape) -> Vec<bool> {
        if self.fault.is_some() {
            return vec![false; nodes.len()];
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return vec![false; nodes.len()];
        }
        let out = self.conforms_all_inner(nodes, shape);
        self.exec.leave();
        out
    }

    fn conforms_all_inner(&mut self, nodes: &[TermId], shape: &Shape) -> Vec<bool> {
        match shape {
            Shape::True => vec![true; nodes.len()],
            Shape::False => vec![false; nodes.len()],
            Shape::HasShape(name) => self.conforms_all_named(nodes, name),
            Shape::Not(inner) => {
                let mut out = self.conforms_all(nodes, inner);
                for b in &mut out {
                    *b = !*b;
                }
                out
            }
            Shape::And(items) => {
                let mut out = vec![true; nodes.len()];
                for item in items {
                    let live: Vec<usize> = (0..nodes.len()).filter(|&i| out[i]).collect();
                    if live.is_empty() {
                        break;
                    }
                    let subset: Vec<TermId> = live.iter().map(|&i| nodes[i]).collect();
                    let sub = self.conforms_all(&subset, item);
                    for (k, &i) in live.iter().enumerate() {
                        out[i] = sub[k];
                    }
                }
                out
            }
            Shape::Or(items) => {
                let mut out = vec![false; nodes.len()];
                for item in items {
                    let live: Vec<usize> = (0..nodes.len()).filter(|&i| !out[i]).collect();
                    if live.is_empty() {
                        break;
                    }
                    let subset: Vec<TermId> = live.iter().map(|&i| nodes[i]).collect();
                    let sub = self.conforms_all(&subset, item);
                    for (k, &i) in live.iter().enumerate() {
                        out[i] = sub[k];
                    }
                }
                out
            }
            Shape::Geq(n, e, inner) => {
                let need = *n as usize;
                if matches!(**inner, Shape::True) {
                    self.counted_all(nodes, e, move |count| count >= need)
                } else {
                    self.quantified_all(
                        nodes,
                        e,
                        |ctx, cands| ctx.conforms_all(cands, inner),
                        move |count, _total| count >= need,
                    )
                }
            }
            Shape::Leq(n, e, inner) => {
                let cap = *n as usize;
                if matches!(**inner, Shape::True) {
                    self.counted_all(nodes, e, move |count| count <= cap)
                } else {
                    self.quantified_all(
                        nodes,
                        e,
                        |ctx, cands| ctx.conforms_all(cands, inner),
                        move |count, _total| count <= cap,
                    )
                }
            }
            Shape::ForAll(e, inner) => {
                if matches!(**inner, Shape::True) {
                    // Every candidate conforms to ⊤, so ∀E.⊤ holds trivially.
                    vec![true; nodes.len()]
                } else {
                    self.quantified_all(
                        nodes,
                        e,
                        |ctx, cands| ctx.conforms_all(cands, inner),
                        |count, total| count == total,
                    )
                }
            }
            // Shape-free atoms: no sub-shape to share, decide per node.
            atom => nodes.iter().map(|&a| self.conforms(a, atom)).collect(),
        }
    }

    /// NNF twin of [`Context::conforms_all`], agreeing pointwise with
    /// [`Context::conforms_nnf`].
    pub fn conforms_all_nnf(&mut self, nodes: &[TermId], shape: &Nnf) -> Vec<bool> {
        if self.fault.is_some() {
            return vec![false; nodes.len()];
        }
        if let Err(e) = self.exec.enter() {
            self.record_fault(e);
            return vec![false; nodes.len()];
        }
        let out = self.conforms_all_nnf_inner(nodes, shape);
        self.exec.leave();
        out
    }

    fn conforms_all_nnf_inner(&mut self, nodes: &[TermId], shape: &Nnf) -> Vec<bool> {
        match shape {
            Nnf::True => vec![true; nodes.len()],
            Nnf::False => vec![false; nodes.len()],
            Nnf::HasShape(name) => self.conforms_all_named(nodes, name),
            Nnf::NotHasShape(name) => {
                let mut out = self.conforms_all_named(nodes, name);
                for b in &mut out {
                    *b = !*b;
                }
                out
            }
            Nnf::And(items) => {
                let mut out = vec![true; nodes.len()];
                for item in items {
                    let live: Vec<usize> = (0..nodes.len()).filter(|&i| out[i]).collect();
                    if live.is_empty() {
                        break;
                    }
                    let subset: Vec<TermId> = live.iter().map(|&i| nodes[i]).collect();
                    let sub = self.conforms_all_nnf(&subset, item);
                    for (k, &i) in live.iter().enumerate() {
                        out[i] = sub[k];
                    }
                }
                out
            }
            Nnf::Or(items) => {
                let mut out = vec![false; nodes.len()];
                for item in items {
                    let live: Vec<usize> = (0..nodes.len()).filter(|&i| !out[i]).collect();
                    if live.is_empty() {
                        break;
                    }
                    let subset: Vec<TermId> = live.iter().map(|&i| nodes[i]).collect();
                    let sub = self.conforms_all_nnf(&subset, item);
                    for (k, &i) in live.iter().enumerate() {
                        out[i] = sub[k];
                    }
                }
                out
            }
            Nnf::Geq(n, e, inner) => {
                let need = *n as usize;
                if matches!(**inner, Nnf::True) {
                    self.counted_all(nodes, e, move |count| count >= need)
                } else {
                    self.quantified_all(
                        nodes,
                        e,
                        |ctx, cands| ctx.conforms_all_nnf(cands, inner),
                        move |count, _total| count >= need,
                    )
                }
            }
            Nnf::Leq(n, e, inner) => {
                let cap = *n as usize;
                if matches!(**inner, Nnf::True) {
                    self.counted_all(nodes, e, move |count| count <= cap)
                } else {
                    self.quantified_all(
                        nodes,
                        e,
                        |ctx, cands| ctx.conforms_all_nnf(cands, inner),
                        move |count, _total| count <= cap,
                    )
                }
            }
            Nnf::ForAll(e, inner) => {
                if matches!(**inner, Nnf::True) {
                    vec![true; nodes.len()]
                } else {
                    self.quantified_all(
                        nodes,
                        e,
                        |ctx, cands| ctx.conforms_all_nnf(cands, inner),
                        |count, total| count == total,
                    )
                }
            }
            atom => nodes.iter().map(|&a| self.conforms_nnf(a, atom)).collect(),
        }
    }

    /// Shared quantifier machinery for the batch drivers: one multi-source
    /// RPQ pass yields each focus node's candidate set; the *union* of
    /// candidates is decided in one recursive batch; each focus then counts
    /// its conforming candidates and `decide(count, total)` gives the bit.
    fn quantified_all<F, D>(
        &mut self,
        nodes: &[TermId],
        path: &PathExpr,
        mut conforms_batch: F,
        decide: D,
    ) -> Vec<bool>
    where
        F: FnMut(&mut Self, &[TermId]) -> Vec<bool>,
        D: Fn(usize, usize) -> bool,
    {
        let cand_sets = self.eval_path_many(path, nodes);
        let mut union_vec: Vec<TermId> = cand_sets
            .iter()
            .flat_map(|set| set.iter().copied())
            .collect();
        union_vec.sort_unstable();
        union_vec.dedup();
        let decided = conforms_batch(self, &union_vec);
        let ok: IntMap<TermId, bool> = union_vec.into_iter().zip(decided).collect();
        cand_sets
            .iter()
            .map(|cands| {
                let count = cands.iter().filter(|c| ok[c]).count();
                decide(count, cands.len())
            })
            .collect()
    }

    /// Quantifier fast path for a `⊤` inner shape: every path candidate
    /// conforms, so only the candidate *counts* are needed.
    fn counted_all<D: Fn(usize) -> bool>(
        &mut self,
        nodes: &[TermId],
        path: &PathExpr,
        decide: D,
    ) -> Vec<bool> {
        self.eval_path_many(path, nodes)
            .iter()
            .map(|cands| decide(cands.len()))
            .collect()
    }

    /// Batch form of [`Context::conforms_named`]: memo hits answer
    /// immediately; the distinct undecided nodes are evaluated in one
    /// recursive batch against the definition and recorded.
    fn conforms_all_named(&mut self, nodes: &[TermId], name: &Term) -> Vec<bool> {
        let schema = self.schema;
        let (Some(view), Some(sid)) = (&self.memo, schema.name_id(name)) else {
            return self.conforms_all(nodes, schema.def(name));
        };
        let index = view.memo.containment();
        let mut out = vec![false; nodes.len()];
        let mut missing: Vec<usize> = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            // A direct bit, or subsumption derivation: a true bit of a
            // contained shape, or a false bit of a containing shape,
            // settles this pair without evaluation.
            let decided = view.tables.get(sid, node).or_else(|| {
                let index = index.as_deref()?;
                view.memo.derive_in(&view.tables, index, sid, node)
            });
            match decided {
                Some(v) => out[i] = v,
                None => missing.push(i),
            }
        }
        if missing.is_empty() {
            return out;
        }
        let mut uniq: Vec<TermId> = missing.iter().map(|&i| nodes[i]).collect();
        uniq.sort_unstable();
        uniq.dedup();
        let decided = self.conforms_all(&uniq, schema.def(name));
        // Keep unwinding placeholders from a faulted run out of the
        // shared memo.
        if let (Some(view), None) = (&self.memo, &self.fault) {
            for (&node, &v) in uniq.iter().zip(&decided) {
                view.tables.set(sid, node, v);
            }
        }
        for &i in &missing {
            let k = uniq
                .binary_search(&nodes[i])
                .expect("missing node was decided");
            out[i] = decided[k];
        }
        out
    }

    /// `⟦p⟧^G(a)` for a plain property.
    fn prop_values(&mut self, node: TermId, p: &Iri) -> BTreeSet<TermId> {
        match self.graph.id_of_iri(p) {
            Some(pid) => self.graph.objects_ids(node, pid).collect(),
            None => BTreeSet::new(),
        }
    }

    /// `eq(F, p)`: the `F`-values and `p`-values of `node` coincide.
    fn eq_holds(&mut self, node: TermId, f: &PathOrId, p: &Iri) -> bool {
        let left = self.eval_path_or_id(f, node);
        left == self.prop_values(node, p)
    }

    /// `disj(F, p)`: the `F`-values and `p`-values of `node` are disjoint.
    fn disj_holds(&mut self, node: TermId, f: &PathOrId, p: &Iri) -> bool {
        let left = self.eval_path_or_id(f, node);
        left.is_disjoint(&self.prop_values(node, p))
    }

    /// `closed(P)`: every outgoing predicate of `node` is in `allowed`.
    fn closed_holds(&self, node: TermId, allowed: &BTreeSet<Iri>) -> bool {
        self.graph
            .predicates_out_ids(node)
            .all(|pid| matches!(self.graph.term(pid), Term::Iri(iri) if allowed.contains(iri)))
    }

    /// `uniqueLang(E)`: no two `E`-values of `node` share a language tag.
    fn unique_lang_holds(&mut self, node: TermId, e: &PathExpr) -> bool {
        let values = self.eval_path(e, node);
        let mut tags: Vec<&str> = Vec::new();
        for v in &values {
            if let Term::Literal(lit) = self.graph.term(*v) {
                if let Some(tag) = lit.language() {
                    if tags.contains(&tag) {
                        return false;
                    }
                    tags.push(tag);
                }
            }
        }
        true
    }

    fn pairwise_cmp(&mut self, e: &PathExpr, p: &Iri, node: TermId, op: CmpOp) -> bool {
        let left = self.eval_path(e, node);
        let right = self.prop_values(node, p);
        for b in &left {
            for c in &right {
                let (Term::Literal(lb), Term::Literal(lc)) =
                    (self.graph.term(*b), self.graph.term(*c))
                else {
                    return false; // b and c must be literals
                };
                if !op.holds(lb.value().partial_cmp_value(&lc.value())) {
                    return false;
                }
            }
        }
        true
    }

    /// The target nodes of a target shape: all `a ∈ N(G)` with
    /// `H, G, a ⊨ τ`. Common SHACL target forms take fast paths; arbitrary
    /// shapes fall back to a full node scan.
    pub fn target_nodes(&mut self, target: &Shape) -> BTreeSet<TermId> {
        if let Some(fast) = self.fast_targets(target) {
            return fast;
        }
        let nodes = self.graph.node_ids();
        nodes
            .into_iter()
            .filter(|n| self.conforms(*n, target))
            .collect()
    }

    fn fast_targets(&mut self, target: &Shape) -> Option<BTreeSet<TermId>> {
        match target {
            Shape::False => Some(BTreeSet::new()),
            // Node target.
            Shape::HasValue(c) => Some(self.graph.id_of(c).into_iter().collect()),
            // Union of targets.
            Shape::Or(items) => {
                let mut out = BTreeSet::new();
                for item in items {
                    out.extend(self.fast_targets(item)?);
                }
                Some(out)
            }
            Shape::Geq(1, path, inner) => match (path, inner.as_ref()) {
                // Subjects-of target: ≥1 p.⊤
                (PathExpr::Prop(p), Shape::True) => {
                    let pid = self.graph.id_of_iri(p)?;
                    Some(
                        self.graph
                            .edges_with_predicate_ids(pid)
                            .map(|(s, _)| s)
                            .collect(),
                    )
                }
                // Objects-of target: ≥1 p⁻.⊤
                (PathExpr::Inverse(inv), Shape::True) => match inv.as_ref() {
                    PathExpr::Prop(p) => {
                        let pid = self.graph.id_of_iri(p)?;
                        Some(
                            self.graph
                                .edges_with_predicate_ids(pid)
                                .map(|(_, o)| o)
                                .collect(),
                        )
                    }
                    _ => None,
                },
                // Class target: ≥1 type/sub*.hasValue(c) — find all classes
                // that reach c via sub*, then all their instances.
                (PathExpr::Seq(first, rest), Shape::HasValue(c)) => {
                    let (PathExpr::Prop(type_p), PathExpr::ZeroOrMore(sub)) =
                        (first.as_ref(), rest.as_ref())
                    else {
                        return None;
                    };
                    let PathExpr::Prop(sub_p) = sub.as_ref() else {
                        return None;
                    };
                    let cid = self.graph.id_of(c)?;
                    // Classes reaching c: backward closure over sub_p.
                    let back = PathExpr::Prop(sub_p.clone()).inverse().star();
                    let classes = self.eval_path(&back, cid);
                    let type_pid = self.graph.id_of_iri(type_p)?;
                    let mut out = BTreeSet::new();
                    for class in classes {
                        out.extend(self.graph.subjects_ids(class, type_pid));
                    }
                    Some(out)
                }
                // Plain-class target without subclass closure:
                // ≥1 type.hasValue(c).
                (PathExpr::Prop(type_p), Shape::HasValue(c)) => {
                    let cid = self.graph.id_of(c)?;
                    let type_pid = self.graph.id_of_iri(type_p)?;
                    Some(self.graph.subjects_ids(cid, type_pid).collect())
                }
                _ => None,
            },
            _ => None,
        }
    }
}

impl<'a> Context<'a, Graph> {
    /// Term-level convenience for [`Context::conforms`]; nodes not occurring
    /// in the graph still have well-defined conformance (e.g. to `⊤` or
    /// `hasValue`). Only available on the mutable backend, because an
    /// unknown focus node must be interned into a local graph clone.
    pub fn conforms_term(&mut self, node: &Term, shape: &Shape) -> bool {
        match self.graph.id_of(node) {
            Some(id) => self.conforms(id, shape),
            None => {
                // Node absent from the graph: evaluate against the empty
                // neighborhood semantics — paths evaluate to ∅ (or {node}
                // for nullable paths, which cannot be represented without an
                // id; we fall back to a local graph clone with the node
                // interned).
                let mut g = self.graph.clone();
                let id = g.intern(node);
                let mut ctx = Context::new(self.schema, &g);
                ctx.conforms(id, shape)
            }
        }
    }
}

/// A literal comparison operator used by the property-pair shapes
/// (`lessThan`, `lessThanEq`, and the Remark 2.3 `moreThan` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether the (possibly undefined) ordering satisfies the operator;
    /// incomparable values never do.
    pub fn holds(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Lt, Some(Less))
                | (CmpOp::Le, Some(Less) | Some(Equal))
                | (CmpOp::Gt, Some(Greater))
                | (CmpOp::Ge, Some(Greater) | Some(Equal))
        )
    }
}

/// One violation: a target node that does not conform to its shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The shape definition's name.
    pub shape: Term,
    /// The non-conforming focus node.
    pub focus: Term,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} does not conform to shape {}",
            self.focus, self.shape
        )
    }
}

/// The result of validating a graph against a schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    pub violations: Vec<Violation>,
    /// Number of (shape, target node) conformance checks performed.
    pub checked: usize,
}

impl ValidationReport {
    /// True iff the graph conforms to the schema (no violations).
    pub fn conforms(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report as a standard `sh:ValidationReport` RDF graph
    /// (what a conforming SHACL processor returns), ready for Turtle or
    /// N-Triples output.
    pub fn to_graph(&self) -> Graph {
        use shapefrag_rdf::vocab::{rdf, sh};
        use shapefrag_rdf::{BlankNode, Literal, Triple};
        let mut g = Graph::new();
        let report = Term::Blank(BlankNode::new("report"));
        g.insert(Triple::new(
            report.clone(),
            rdf::type_(),
            Term::Iri(sh::validation_report()),
        ));
        g.insert(Triple::new(
            report.clone(),
            sh::conforms(),
            Term::Literal(Literal::boolean(self.conforms())),
        ));
        for (i, v) in self.violations.iter().enumerate() {
            let result = Term::Blank(BlankNode::new(format!("result{i}")));
            g.insert(Triple::new(report.clone(), sh::result(), result.clone()));
            g.insert(Triple::new(
                result.clone(),
                rdf::type_(),
                Term::Iri(sh::validation_result()),
            ));
            g.insert(Triple::new(
                result.clone(),
                sh::focus_node(),
                v.focus.clone(),
            ));
            g.insert(Triple::new(
                result.clone(),
                sh::source_shape(),
                v.shape.clone(),
            ));
            g.insert(Triple::new(
                result,
                sh::result_severity(),
                Term::Iri(sh::violation()),
            ));
        }
        g
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conforms() {
            write!(f, "conforms ({} checks)", self.checked)
        } else {
            writeln!(
                f,
                "{} violations ({} checks):",
                self.violations.len(),
                self.checked
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Validates `graph` against `schema`: for every definition `(s, φ, τ)` and
/// every node `a` with `H, G, a ⊨ τ`, checks `H, G, a ⊨ φ`. One node at a
/// time: the reference the set-at-a-time engine is checked against.
pub fn validate<G: GraphAccess>(schema: &Schema, graph: &G) -> ValidationReport {
    validate_governed(schema, graph, ExecCtx::unbounded())
        .expect("an unbounded context cannot fault")
}

/// Resource-governed [`validate`]: same report on success, or the first
/// [`EngineError`] (deadline, budget, cancellation, depth) instead of a
/// partial — and therefore misleading — report.
pub fn validate_governed<G: GraphAccess>(
    schema: &Schema,
    graph: &G,
    exec: ExecCtx,
) -> Result<ValidationReport, EngineError> {
    let mut ctx = Context::new(schema, graph).with_exec(exec);
    let mut report = ValidationReport::default();
    for def in schema.iter() {
        ctx.exec.check_now()?;
        let targets = ctx.target_nodes(&def.target);
        if let Some(e) = ctx.take_fault() {
            return Err(e);
        }
        for node in targets {
            report.checked += 1;
            let ok = ctx.conforms(node, &def.shape);
            if let Some(e) = ctx.take_fault() {
                return Err(e);
            }
            if !ok {
                report.violations.push(Violation {
                    shape: def.name.clone(),
                    focus: graph.term(node).clone(),
                });
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_test::{NodeKind, NodeTest};
    use crate::schema::ShapeDef;
    use shapefrag_rdf::vocab::rdf;
    use shapefrag_rdf::{Iri, Literal, Triple};

    fn iri(n: &str) -> Iri {
        Iri::new(format!("http://e/{n}"))
    }

    fn term(n: &str) -> Term {
        Term::iri(format!("http://e/{n}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(term(s), iri(p), term(o))
    }

    fn lit(s: &str, p: &str, o: Literal) -> Triple {
        Triple::new(term(s), iri(p), Term::Literal(o))
    }

    fn p(n: &str) -> PathExpr {
        PathExpr::Prop(iri(n))
    }

    fn check(g: &Graph, node: &str, shape: &Shape) -> bool {
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, g);
        ctx.conforms_term(&term(node), shape)
    }

    #[test]
    fn workshop_shape_example() {
        // Example 1.1/2.2: ≥1 author.≥1 type/sub*.hasValue(Student)
        let g = Graph::from_triples([
            t("paper1", "author", "alice"),
            t("alice", "type", "PhDStudent"),
            t("PhDStudent", "sub", "Student"),
            t("paper2", "author", "bob"),
            t("bob", "type", "Professor"),
        ]);
        let shape = Shape::geq(
            1,
            p("author"),
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("Student")),
            ),
        );
        assert!(check(&g, "paper1", &shape));
        assert!(!check(&g, "paper2", &shape));
    }

    #[test]
    fn happy_at_work_example() {
        // Example 2.2: ¬disj(friend, colleague).
        let g = Graph::from_triples([
            t("v", "friend", "x"),
            t("v", "colleague", "x"),
            t("w", "friend", "y"),
            t("w", "colleague", "z"),
        ]);
        let shape = Shape::Disj(PathOrId::Path(p("friend")), iri("colleague")).not();
        assert!(check(&g, "v", &shape));
        assert!(!check(&g, "w", &shape));
    }

    #[test]
    fn self_loop_shapes() {
        // ¬disj(id, p): p-self-loop. eq(id, p): only p-edge is a self-loop.
        let g = Graph::from_triples([t("v", "p", "v"), t("w", "p", "w"), t("w", "p", "x")]);
        let has_loop = Shape::Disj(PathOrId::Id, iri("p")).not();
        let only_loop = Shape::Eq(PathOrId::Id, iri("p"));
        assert!(check(&g, "v", &has_loop));
        assert!(check(&g, "w", &has_loop));
        assert!(check(&g, "v", &only_loop));
        assert!(!check(&g, "w", &only_loop));
        assert!(!check(&g, "x", &has_loop));
    }

    #[test]
    fn eq_and_disj_on_paths() {
        let g = Graph::from_triples([
            t("a", "e", "x"),
            t("a", "p", "x"),
            t("b", "e", "x"),
            t("b", "p", "y"),
        ]);
        let eq = Shape::Eq(PathOrId::Path(p("e")), iri("p"));
        let disj = Shape::Disj(PathOrId::Path(p("e")), iri("p"));
        assert!(check(&g, "a", &eq));
        assert!(!check(&g, "b", &eq));
        assert!(!check(&g, "a", &disj));
        assert!(check(&g, "b", &disj));
    }

    #[test]
    fn counting_quantifiers() {
        let g = Graph::from_triples([t("a", "p", "x"), t("a", "p", "y"), t("a", "p", "z")]);
        assert!(check(&g, "a", &Shape::geq(3, p("p"), Shape::True)));
        assert!(!check(&g, "a", &Shape::geq(4, p("p"), Shape::True)));
        assert!(check(&g, "a", &Shape::leq(3, p("p"), Shape::True)));
        assert!(!check(&g, "a", &Shape::leq(2, p("p"), Shape::True)));
        // ≥0 is vacuous.
        assert!(check(&g, "nonode", &Shape::geq(0, p("p"), Shape::True)));
    }

    #[test]
    fn forall_vacuous_and_strict() {
        let g = Graph::from_triples([t("a", "p", "x"), t("x", "type", "C"), t("b", "p", "y")]);
        let all_c = Shape::for_all(
            p("p"),
            Shape::geq(1, p("type"), Shape::has_value(term("C"))),
        );
        assert!(check(&g, "a", &all_c));
        assert!(!check(&g, "b", &all_c));
        assert!(check(&g, "zzz-no-edges", &all_c)); // vacuously true
    }

    #[test]
    fn closedness() {
        let g = Graph::from_triples([t("a", "p", "x"), t("a", "q", "y")]);
        let closed_pq = Shape::Closed(BTreeSet::from([iri("p"), iri("q")]));
        let closed_p = Shape::Closed(BTreeSet::from([iri("p")]));
        assert!(check(&g, "a", &closed_pq));
        assert!(!check(&g, "a", &closed_p));
        // Nodes with no outgoing edges are trivially closed.
        assert!(check(&g, "x", &Shape::Closed(BTreeSet::new())));
    }

    #[test]
    fn less_than_shapes() {
        let g = Graph::from_triples([
            lit("a", "start", Literal::integer(1)),
            lit("a", "end", Literal::integer(5)),
            lit("b", "start", Literal::integer(7)),
            lit("b", "end", Literal::integer(5)),
            lit("c", "start", Literal::integer(5)),
            lit("c", "end", Literal::integer(5)),
        ]);
        let lt = Shape::LessThan(p("start"), iri("end"));
        let lte = Shape::LessThanEq(p("start"), iri("end"));
        assert!(check(&g, "a", &lt));
        assert!(!check(&g, "b", &lt));
        assert!(!check(&g, "c", &lt));
        assert!(check(&g, "c", &lte));
        // Non-literal values make lessThan fail.
        let g2 = Graph::from_triples([t("d", "start", "x"), lit("d", "end", Literal::integer(5))]);
        assert!(!check(&g2, "d", &lt));
        // Vacuous when either side is empty.
        assert!(check(&g, "nonode", &lt));
    }

    #[test]
    fn unique_lang() {
        let g = Graph::from_triples([
            lit("a", "label", Literal::lang_string("hi", "en")),
            lit("a", "label", Literal::lang_string("hallo", "de")),
            lit("b", "label", Literal::lang_string("hi", "en")),
            lit("b", "label", Literal::lang_string("hello", "en")),
            lit("c", "label", Literal::string("plain")),
            lit("c", "label", Literal::string("plain2")),
        ]);
        let ul = Shape::UniqueLang(p("label"));
        assert!(check(&g, "a", &ul));
        assert!(!check(&g, "b", &ul));
        // Untagged literals never clash.
        assert!(check(&g, "c", &ul));
    }

    #[test]
    fn node_tests_in_shapes() {
        let g = Graph::from_triples([lit("a", "age", Literal::integer(30)), t("a", "friend", "b")]);
        let all_int = Shape::for_all(
            p("age"),
            Shape::Test(NodeTest::Datatype(shapefrag_rdf::vocab::xsd::integer())),
        );
        assert!(check(&g, "a", &all_int));
        let all_iri = Shape::for_all(p("friend"), Shape::Test(NodeTest::Kind(NodeKind::Iri)));
        assert!(check(&g, "a", &all_iri));
    }

    #[test]
    fn has_shape_resolution_and_default() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::False,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "x")]);
        let mut ctx = Context::new(&schema, &g);
        let a = g.id_of(&term("a")).unwrap();
        let x = g.id_of(&term("x")).unwrap();
        assert!(ctx.conforms(a, &Shape::HasShape(term("S"))));
        assert!(!ctx.conforms(x, &Shape::HasShape(term("S"))));
        // Undefined shape name defaults to ⊤.
        assert!(ctx.conforms(x, &Shape::HasShape(term("Undefined"))));
    }

    #[test]
    fn nnf_conformance_agrees_with_shape_conformance() {
        let g = Graph::from_triples([
            t("a", "p", "x"),
            t("a", "q", "x"),
            t("x", "type", "C"),
            lit("a", "l", Literal::lang_string("v", "en")),
        ]);
        let shapes = [
            Shape::geq(1, p("p"), Shape::True).not(),
            Shape::for_all(
                p("p"),
                Shape::geq(1, p("type"), Shape::has_value(term("C"))),
            ),
            Shape::Eq(PathOrId::Path(p("p")), iri("q")),
            Shape::Disj(PathOrId::Path(p("p")), iri("q")).not(),
            Shape::UniqueLang(p("l")).not(),
            Shape::leq(0, p("zz"), Shape::True),
            Shape::Closed(BTreeSet::from([iri("p"), iri("q"), iri("l")])),
        ];
        let schema = Schema::empty();
        let mut ctx = Context::new(&schema, &g);
        for node in g.node_ids() {
            for shape in &shapes {
                let nnf = Nnf::from_shape(shape);
                assert_eq!(
                    ctx.conforms(node, shape),
                    ctx.conforms_nnf(node, &nnf),
                    "disagreement on {shape} at {}",
                    g.term(node)
                );
                let neg = Nnf::from_negated_shape(shape);
                assert_eq!(
                    !ctx.conforms(node, shape),
                    ctx.conforms_nnf(node, &neg),
                    "negation disagreement on {shape} at {}",
                    g.term(node)
                );
            }
        }
    }

    #[test]
    fn validation_example_1_3() {
        // Schema: papers must have a student author (WorkshopShape with
        // class target Paper).
        let schema = Schema::new([ShapeDef::new(
            term("WorkshopShape"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(
                1,
                PathExpr::Prop(rdf::type_()),
                Shape::has_value(term("Paper")),
            ),
        )])
        .unwrap();
        let mut ok = Graph::from_triples([
            t("paper1", "author", "alice"),
            t("alice", "type", "Student"),
        ]);
        ok.insert(Triple::new(term("paper1"), rdf::type_(), term("Paper")));
        assert!(validate(&schema, &ok).conforms());

        let mut bad = ok.clone();
        bad.insert(Triple::new(term("paper2"), rdf::type_(), term("Paper")));
        bad.insert(t("paper2", "author", "bob"));
        let report = validate(&schema, &bad);
        assert!(!report.conforms());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].focus, term("paper2"));
    }

    #[test]
    fn fast_targets_match_slow_scan() {
        let mut g = Graph::from_triples([
            t("a", "p", "b"),
            t("c", "p", "d"),
            t("x", "type", "C1"),
            t("y", "type", "C2"),
            t("C2", "sub", "C1"),
        ]);
        g.insert(Triple::new(term("z"), rdf::type_(), term("C1")));
        let schema = Schema::empty();
        let targets: Vec<Shape> = vec![
            Shape::has_value(term("a")),
            Shape::geq(1, p("p"), Shape::True),
            Shape::geq(1, p("p").inverse(), Shape::True),
            Shape::geq(
                1,
                p("type").then(p("sub").star()),
                Shape::has_value(term("C1")),
            ),
            Shape::geq(1, p("type"), Shape::has_value(term("C1"))),
        ];
        for target in targets {
            let mut ctx = Context::new(&schema, &g);
            let fast = ctx.target_nodes(&target);
            // Slow scan.
            let slow: BTreeSet<TermId> = g
                .node_ids()
                .into_iter()
                .filter(|n| ctx.conforms(*n, &target))
                .collect();
            assert_eq!(fast, slow, "target {target}");
        }
    }

    #[test]
    fn report_serializes_as_shacl_validation_report() {
        use shapefrag_rdf::vocab::sh;
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("needed"), Shape::True),
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let report = validate(&schema, &g);
        let rg = report.to_graph();
        // One report node, sh:conforms false, one result with focus ex:a.
        assert_eq!(
            rg.triples_matching(None, Some(&sh::result()), None).len(),
            1
        );
        let focus = rg.triples_matching(None, Some(&sh::focus_node()), None);
        assert_eq!(focus.len(), 1);
        assert_eq!(focus[0].object, term("a"));
        let conforms = rg.triples_matching(None, Some(&sh::conforms()), None);
        assert_eq!(conforms[0].object.as_literal().unwrap().lexical(), "false");
        // A conforming report says so.
        let ok = validate(&schema, &Graph::new());
        let okg = ok.to_graph();
        assert_eq!(
            okg.triples_matching(None, Some(&sh::conforms()), None)[0]
                .object
                .as_literal()
                .unwrap()
                .lexical(),
            "true"
        );
    }

    #[test]
    fn conforms_all_agrees_with_conforms() {
        let g = Graph::from_triples([
            t("a", "p", "x"),
            t("a", "p", "y"),
            t("b", "p", "x"),
            t("x", "type", "C"),
            t("y", "type", "D"),
            t("a", "q", "x"),
            lit("a", "l", Literal::lang_string("v", "en")),
        ]);
        let schema = Schema::new([ShapeDef::new(
            term("Typed"),
            Shape::geq(1, p("type"), Shape::True),
            Shape::False,
        )])
        .unwrap();
        let shapes = [
            Shape::geq(1, p("p"), Shape::HasShape(term("Typed"))),
            Shape::for_all(p("p"), Shape::HasShape(term("Typed"))),
            Shape::leq(
                1,
                p("p"),
                Shape::geq(1, p("type"), Shape::has_value(term("C"))),
            ),
            Shape::geq(2, p("p"), Shape::True).and(Shape::UniqueLang(p("l"))),
            Shape::geq(1, p("q"), Shape::True).or(Shape::geq(1, p("zz"), Shape::True)),
            Shape::Eq(PathOrId::Path(p("p")), iri("q")).not(),
            Shape::Closed(BTreeSet::from([iri("p"), iri("q"), iri("l")])),
        ];
        let nodes: Vec<TermId> = g.node_ids().into_iter().collect();
        for shape in &shapes {
            let mut batch_ctx = Context::with_memo(&schema, &g, Arc::new(ConformanceMemo::new()));
            let batch = batch_ctx.conforms_all(&nodes, shape);
            let mut plain_ctx = Context::new(&schema, &g);
            for (i, &node) in nodes.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    plain_ctx.conforms(node, shape),
                    "disagreement on {shape} at {}",
                    g.term(node)
                );
            }
            // NNF twin agrees as well.
            let nnf = Nnf::from_shape(shape);
            let nnf_batch = batch_ctx.conforms_all_nnf(&nodes, &nnf);
            assert_eq!(batch, nnf_batch, "NNF batch disagreement on {shape}");
        }
    }

    #[test]
    fn memo_decides_shared_subshapes_once() {
        // Two definitions both reference Typed; with a shared memo the
        // second pass answers from the table.
        let schema = Schema::new([
            ShapeDef::new(
                term("A"),
                Shape::for_all(p("p"), Shape::HasShape(term("Typed"))),
                Shape::geq(1, p("p"), Shape::True),
            ),
            ShapeDef::new(
                term("B"),
                Shape::geq(1, p("p"), Shape::HasShape(term("Typed"))),
                Shape::geq(1, p("p"), Shape::True),
            ),
            ShapeDef::new(
                term("Typed"),
                Shape::geq(1, p("type"), Shape::True),
                Shape::False,
            ),
        ])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "x"), t("a", "p", "y"), t("x", "type", "C")]);
        let memo = Arc::new(ConformanceMemo::new());
        let mut ctx = Context::with_memo(&schema, &g, Arc::clone(&memo));
        let a = [g.id_of(&term("a")).unwrap()];
        assert_eq!(ctx.conforms_all(&a, &Shape::HasShape(term("A"))), [false]);
        assert_eq!(ctx.conforms_all(&a, &Shape::HasShape(term("B"))), [true]);
        // x and y were each decided once for Typed.
        let sid = schema.name_id(&term("Typed")).unwrap();
        assert_eq!(memo.lookup(sid, g.id_of(&term("x")).unwrap()), Some(true));
        assert_eq!(memo.lookup(sid, g.id_of(&term("y")).unwrap()), Some(false));
    }

    #[test]
    fn containment_index_closure_and_foreign_schema_refusal() {
        // A ≥1 q (loose), B ≥2 q (strict, ⊑ A), C duplicates A. Dense ids
        // follow name order: A=0, B=1, C=2.
        let mk = |n: u32| Shape::geq(n, p("q"), Shape::True);
        let target = Shape::geq(1, p("t"), Shape::True);
        let schema = Schema::new([
            ShapeDef::new(term("A"), mk(1), target.clone()),
            ShapeDef::new(term("B"), mk(2), target.clone()),
            ShapeDef::new(term("C"), mk(1), target.clone()),
        ])
        .unwrap();
        let g = Graph::from_triples([
            t("a", "t", "m"),
            t("a", "q", "x"),
            t("b", "t", "m"),
            t("b", "q", "x"),
            t("b", "q", "y"),
            t("c", "t", "m"),
        ]);
        let index = Arc::new(ContainmentIndex::from_edges(
            3,
            &[(1, 0), (0, 2), (2, 0), (1, 2)],
            schema_fingerprint(&schema),
        ));
        // Directed closure: bits of B flow up to A and C; bits of A flow
        // both ways through the equivalence.
        assert_eq!(index.related_closure(1), vec![0, 1, 2]);
        assert_eq!(index.related_closure(0), vec![0, 1, 2]);
        let memo = Arc::new(ConformanceMemo::new());
        memo.rebind(&schema, &g);
        assert!(memo.attach_containment(Arc::clone(&index)));
        // A memo bound to a different schema refuses the index.
        let other = Schema::new([ShapeDef::new(term("Z"), mk(1), target)]).unwrap();
        let memo2 = Arc::new(ConformanceMemo::new());
        memo2.rebind(&other, &g);
        assert!(!memo2.attach_containment(index));
        assert!(memo2.containment().is_none());
    }

    #[test]
    fn memo_sharing_across_backends_of_the_same_graph_is_allowed() {
        // Freezing is id-stable, so a memo warmed on the mutable graph may
        // be reused over its CSR snapshot (same fingerprint in debug).
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let f = g.freeze();
        let memo = Arc::new(ConformanceMemo::new());
        let a = [g.id_of(&term("a")).unwrap()];
        let s = Shape::HasShape(term("S"));
        let on_mut = Context::with_memo(&schema, &g, Arc::clone(&memo)).conforms_all(&a, &s);
        let on_frozen = Context::with_memo(&schema, &f, Arc::clone(&memo)).conforms_all(&a, &s);
        assert_eq!(on_mut, [true]);
        assert_eq!(on_mut, on_frozen);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn memo_reuse_across_graphs_detaches_in_release() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g1 = Graph::from_triples([t("a", "p", "b")]);
        let g2 = Graph::from_triples([t("c", "q", "d"), t("c", "q", "e")]);
        let memo = Arc::new(ConformanceMemo::new());
        let s = Shape::HasShape(term("S"));
        let a = [g1.id_of(&term("a")).unwrap()];
        let bits = Context::with_memo(&schema, &g1, Arc::clone(&memo)).conforms_all(&a, &s);
        assert_eq!(bits, [true]);
        let before = memo.len();
        // Mismatched attachment: the run must be correct (unmemoized) and
        // must not write g2 facts into g1's memo.
        let c = [g2.id_of(&term("c")).unwrap()];
        let bits = Context::with_memo(&schema, &g2, Arc::clone(&memo)).conforms_all(&c, &s);
        assert_eq!(bits, [false]);
        assert_eq!(memo.len(), before, "detached run must not touch the memo");
    }

    #[test]
    fn memo_invalidate_rebind_and_clear() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b"), t("c", "p", "d")]);
        let memo = Arc::new(ConformanceMemo::new());
        let sid = schema.name_id(&term("S")).unwrap();
        let a = g.id_of(&term("a")).unwrap();
        let c = g.id_of(&term("c")).unwrap();
        memo.rebind(&schema, &g);
        memo.insert(sid, a, true);
        memo.insert(sid, c, false);
        memo.invalidate(sid, [a]);
        assert_eq!(memo.lookup(sid, a), None, "invalidated entry must drop");
        assert_eq!(memo.lookup(sid, c), Some(false), "other entries survive");
        // After rebinding to the same pair, attaching succeeds.
        let _ctx = Context::with_memo(&schema, &g, Arc::clone(&memo));
        memo.clear();
        assert!(memo.is_empty());
        // A cleared memo re-binds to any pair.
        let g2 = Graph::from_triples([t("x", "p", "y")]);
        let _ctx2 = Context::with_memo(&schema, &g2, Arc::clone(&memo));
    }

    /// A chain `n0 -p-> n1 -p-> … -p-> n{len}`, with `len + 2` terms.
    fn chain(len: usize) -> Graph {
        Graph::from_triples((0..len).map(|i| t(&format!("n{i}"), "p", &format!("n{}", i + 1))))
    }

    /// Two definitions, so the memo has shape ids 0 and 1.
    fn two_defs() -> Schema {
        Schema::new([
            ShapeDef::new(term("S"), Shape::geq(1, p("p"), Shape::True), Shape::True),
            ShapeDef::new(term("T"), Shape::leq(0, p("p"), Shape::True), Shape::False),
        ])
        .unwrap()
    }

    #[test]
    fn dense_memo_packs_two_bits_per_node_across_a_word_boundary() {
        let (schema, g) = (two_defs(), chain(70));
        assert!(g.term_count() > 64, "three words per shape");
        let memo = ConformanceMemo::new();
        memo.rebind(&schema, &g);
        // Entries 31 | 32 and 63 | 64 straddle word boundaries.
        let ids = [30, 31, 32, 33, 63, 64].map(TermId);
        for (k, &id) in ids.iter().enumerate() {
            memo.insert(0, id, k % 2 == 0);
        }
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(memo.lookup(0, id), Some(k % 2 == 0), "entry {id:?}");
        }
        for id in [29, 34, 62, 65].map(TermId) {
            assert_eq!(memo.lookup(0, id), None, "neighbour {id:?} stays undecided");
        }
        assert_eq!(
            memo.lookup(1, TermId(31)),
            None,
            "other shapes are separate"
        );
        // Overwriting an entry leaves its neighbours in both words alone.
        memo.insert(0, TermId(31), true);
        assert_eq!(memo.lookup(0, TermId(31)), Some(true));
        assert_eq!(memo.lookup(0, TermId(30)), Some(true));
        assert_eq!(memo.lookup(0, TermId(32)), Some(true));
        assert_eq!(memo.len(), ids.len());
    }

    #[test]
    fn dense_memo_invalidate_invalidate_shape_clear_and_len() {
        let (schema, g) = (two_defs(), chain(70));
        let memo = Arc::new(ConformanceMemo::new());
        memo.rebind(&schema, &g);
        for n in 0..40 {
            memo.insert(0, TermId(n), n % 3 == 0);
            memo.insert(1, TermId(n), true);
        }
        assert_eq!(memo.len(), 80);
        memo.invalidate(0, [0, 31, 32].map(TermId));
        assert_eq!(memo.len(), 77);
        assert_eq!(memo.lookup(0, TermId(31)), None);
        assert_eq!(memo.lookup(0, TermId(30)), Some(true));
        assert_eq!(memo.lookup(0, TermId(33)), Some(true));
        assert_eq!(memo.lookup(1, TermId(31)), Some(true));
        memo.invalidate_shape(1);
        assert_eq!(memo.len(), 37);
        assert!((0..40).all(|n| memo.lookup(1, TermId(n)).is_none()));
        // An insert past the bound shape ids grows the shape range only.
        memo.insert(5, TermId(3), true);
        assert_eq!(memo.lookup(5, TermId(3)), Some(true));
        assert_eq!(memo.tables.read().nodes, g.term_count());
        assert_eq!(memo.len(), 38);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.lookup(0, TermId(30)), None);
        // A cleared memo binds afresh and memoizes again.
        let n0 = g.id_of(&term("n0")).unwrap();
        let mut ctx = Context::with_memo(&schema, &g, Arc::clone(&memo));
        assert!(ctx.conforms_named(n0, &term("S")));
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.lookup(0, n0), Some(true));
    }

    #[test]
    fn dense_memo_grows_at_rebind_after_delta_interns_terms() {
        use shapefrag_rdf::DeltaGraph;
        // S: focus nodes (subjects of q) have a p-successor conforming to T.
        let schema = Schema::new([
            ShapeDef::new(
                term("S"),
                Shape::geq(1, p("p"), Shape::HasShape(term("T"))),
                Shape::geq(1, p("q"), Shape::True),
            ),
            ShapeDef::new(term("T"), Shape::geq(1, p("r"), Shape::True), Shape::False),
        ])
        .unwrap();
        let base = Graph::from_triples([
            t("a", "q", "x"),
            t("a", "p", "b"),
            t("b", "r", "c"),
            t("d", "q", "x"),
            t("d", "p", "e"),
        ]);
        let mut delta = DeltaGraph::new(Arc::new(base.freeze()));
        let base_terms = delta.term_count();
        let memo = Arc::new(ConformanceMemo::new());
        // S's focus nodes and their bits, decided through `memo`.
        let decide_s = |delta: &DeltaGraph| {
            let mut ctx = Context::with_memo(&schema, delta, Arc::clone(&memo));
            let focus: Vec<TermId> = ctx
                .target_nodes(&schema.get(&term("S")).unwrap().target)
                .into_iter()
                .collect();
            let bits = ctx.conforms_all(&focus, &Shape::HasShape(term("S")));
            focus.into_iter().zip(bits).collect::<Vec<_>>()
        };
        let before = decide_s(&delta);
        assert_eq!(
            before.iter().filter(|(_, ok)| !ok).count(),
            1,
            "d violates S"
        );
        // The edit flips d (its successor e gains r) and adds a focus z;
        // `fresh`, `z` and `w` are interned after the memo was bound.
        for triple in [t("e", "r", "fresh"), t("z", "q", "x"), t("z", "p", "w")] {
            delta.insert(&triple);
        }
        let (sid, tid) = (
            schema.name_id(&term("S")).unwrap(),
            schema.name_id(&term("T")).unwrap(),
        );
        let id = |n: &str| delta.id_of(&term(n)).unwrap();
        memo.invalidate(tid, [id("e")]);
        memo.invalidate(sid, [id("d")]);
        memo.rebind(&schema, &delta);
        let after = decide_s(&delta);
        let violators: Vec<TermId> = after
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(v, _)| *v)
            .collect();
        assert_eq!(violators, [id("z")], "now only z violates S");
        let expected = validate(&schema, &delta);
        assert_eq!(expected.violations.len(), 1);
        assert_eq!(expected.violations[0].focus, term("z"));
        let z = id("z");
        assert!(z.0 as usize >= base_terms, "z was interned after binding");
        assert_eq!(
            memo.lookup(sid, z),
            Some(false),
            "the grown table memoizes z"
        );
        assert_eq!(memo.lookup(sid, id("a")), Some(true), "old facts survive");
    }

    #[test]
    fn dense_memo_concurrent_inserts_into_one_word_match_sequential() {
        let (schema, g) = (two_defs(), chain(70));
        let value = |n: u32| n % 3 != 1;
        let sequential = ConformanceMemo::new();
        sequential.rebind(&schema, &g);
        for n in 0..32 {
            sequential.insert(0, TermId(n), value(n));
        }
        let concurrent = ConformanceMemo::new();
        concurrent.rebind(&schema, &g);
        // Thread k owns nodes k, k + 4, …: all four threads keep flipping
        // entries of the same word, and each ends on its nodes' values.
        std::thread::scope(|scope| {
            for k in 0..4u32 {
                let memo = &concurrent;
                scope.spawn(move || {
                    for _ in 0..200 {
                        for n in (k..32).step_by(4) {
                            memo.insert(0, TermId(n), !value(n));
                            memo.insert(0, TermId(n), value(n));
                        }
                    }
                });
            }
        });
        let words = |memo: &ConformanceMemo| -> Vec<u64> {
            memo.tables.read().shapes[0]
                .get()
                .expect("shape 0 has a table")
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect()
        };
        assert_eq!(words(&concurrent), words(&sequential));
        assert_eq!(concurrent.len(), 32);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different (schema, graph) pair")]
    fn memo_reuse_across_graphs_panics_in_debug() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g1 = Graph::from_triples([t("a", "p", "b")]);
        let g2 = Graph::from_triples([t("c", "p", "d"), t("c", "p", "e")]);
        let memo = Arc::new(ConformanceMemo::new());
        let _first = Context::with_memo(&schema, &g1, Arc::clone(&memo));
        // Same schema, different graph: the ids in the memo would be
        // meaningless here — the binding check must refuse.
        let _second = Context::with_memo(&schema, &g2, Arc::clone(&memo));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "different (schema, graph) pair")]
    fn memo_reuse_across_schemas_panics_in_debug() {
        let s1 = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let s2 = Schema::new([ShapeDef::new(
            term("Other"),
            Shape::geq(1, p("p"), Shape::True),
            Shape::True,
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let memo = Arc::new(ConformanceMemo::new());
        let _first = Context::with_memo(&s1, &g, Arc::clone(&memo));
        let _second = Context::with_memo(&s2, &g, Arc::clone(&memo));
    }

    #[test]
    fn governed_validation_matches_ungoverned_when_unbounded() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::geq(
                1,
                p("author"),
                Shape::geq(1, p("type"), Shape::has_value(term("Student"))),
            ),
            Shape::geq(1, p("author"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([
            t("p1", "author", "alice"),
            t("alice", "type", "Student"),
            t("p2", "author", "bob"),
        ]);
        let plain = validate(&schema, &g);
        let gov = validate_governed(&schema, &g, ExecCtx::unbounded()).unwrap();
        assert_eq!(plain, gov);
    }

    #[test]
    fn exhausted_step_budget_is_an_error_not_a_report() {
        use shapefrag_govern::{Budget, BudgetKind};
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::for_all(p("p").star(), Shape::geq(1, p("p"), Shape::True)),
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        // A cycle so p* has plenty of product-graph work to charge for.
        let g = Graph::from_triples([t("a", "p", "b"), t("b", "p", "c"), t("c", "p", "a")]);
        let err = validate_governed(
            &schema,
            &g,
            ExecCtx::with_budget(Budget::unlimited().steps(2)),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            EngineError::BudgetExceeded {
                kind: BudgetKind::Steps,
                ..
            }
        ));
    }

    #[test]
    fn cancelled_token_aborts_validation() {
        use shapefrag_govern::{Budget, CancelToken};
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b")]);
        let token = CancelToken::new();
        token.cancel();
        let exec = ExecCtx::with_budget(Budget::unlimited()).with_cancel(&token);
        let err = validate_governed(&schema, &g, exec).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled));
    }

    #[test]
    fn depth_limit_surfaces_on_deep_shape_trees() {
        use shapefrag_govern::Budget;
        // A right-nested ForAll chain deeper than the depth limit; the data
        // chain keeps candidates non-empty so recursion actually descends.
        let mut shape = Shape::geq(1, p("p"), Shape::True);
        for _ in 0..64 {
            shape = Shape::for_all(p("p"), shape);
        }
        let mut triples = Vec::new();
        for i in 0..70 {
            triples.push(t(&format!("n{i}"), "p", &format!("n{}", i + 1)));
        }
        let g = Graph::from_triples(triples);
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            shape,
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let err = validate_governed(
            &schema,
            &g,
            ExecCtx::with_budget(Budget::unlimited().max_depth(16)),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::DepthLimit { limit: 16 }));
    }

    #[test]
    fn validation_counts_checks() {
        let schema = Schema::new([ShapeDef::new(
            term("S"),
            Shape::True,
            Shape::geq(1, p("p"), Shape::True),
        )])
        .unwrap();
        let g = Graph::from_triples([t("a", "p", "b"), t("c", "p", "d")]);
        let report = validate(&schema, &g);
        assert!(report.conforms());
        assert_eq!(report.checked, 2);
    }
}
