//! The static happens-before (SHB) graph with origins — Table 4 of the
//! paper, plus the first optimization of §4.1: intra-origin happens-before
//! is represented by monotonically increasing node ids instead of explicit
//! edges, so an intra-origin HB check is one integer comparison, and only
//! *inter-origin* edges (entry ⓬, join ⓭) are materialized.

use crate::locks::{LockElem, LockSetId, LockTable};
use o2_analysis::{LocId, LocTable, MemKey};
use o2_ir::ids::{GStmt, ProgramId};
use o2_ir::origins::OriginKind;
use o2_ir::program::{Program, Stmt};
use o2_ir::ProgramCtx;
use o2_pta::{CallTarget, Mi, ObjId, OriginId, PtaResult};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Configuration for SHB construction.
#[derive(Clone, Debug)]
pub struct ShbConfig {
    /// Maximum number of nodes per origin trace; traces are truncated
    /// beyond this budget (and flagged).
    pub node_budget: usize,
    /// Maximum call depth while walking an origin's code paths.
    pub max_walk_depth: usize,
    /// Maximum `(method instance, lockset)` visits per origin; truncates
    /// the trace beyond it (guards against the method-instance explosion
    /// of deep object-sensitive pointer analyses).
    pub max_visited_methods: usize,
    /// If `true`, all accesses of an event origin carry the implicit
    /// per-dispatcher lock (§4.2), so handlers on the same dispatcher never
    /// race with each other.
    pub event_dispatcher_lock: bool,
    /// Treat the root (main) origin as running on this dispatcher. Used by
    /// the Android harness, where the synthetic `main` plays the UI
    /// thread: lifecycle callbacks must be serialized with the event
    /// handlers of the same dispatcher.
    pub main_dispatcher: Option<u16>,
    /// Wall-clock budget for the whole construction; traces are truncated
    /// when it expires.
    pub timeout: Option<Duration>,
}

impl Default for ShbConfig {
    fn default() -> Self {
        ShbConfig {
            node_budget: 1_000_000,
            max_walk_depth: 2_000,
            max_visited_methods: 100_000,
            event_dispatcher_lock: true,
            main_dispatcher: None,
            timeout: None,
        }
    }
}

/// A memory-access node in an origin's static trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessNode {
    /// The accessed memory location.
    pub key: MemKey,
    /// The access statement (for reporting).
    pub stmt: GStmt,
    /// `true` for writes.
    pub is_write: bool,
    /// Canonical lockset held at the access.
    pub lockset: LockSetId,
    /// Position in the origin's trace (intra-origin HB = position order).
    pub pos: u32,
    /// Lock-region sequence number (third optimization of §4.1): accesses
    /// with equal `(region, key, is_write)` are merged into one
    /// representative by the detector.
    pub region: u32,
}

/// An inter-origin `entry` edge: the parent's node at `pos` happens-before
/// everything in the child (Table 4 rule ⓬).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryEdge {
    /// Parent origin.
    pub parent: OriginId,
    /// Node position of the entry call in the parent's trace.
    pub pos: u32,
    /// Child origin.
    pub child: OriginId,
    /// The entry statement.
    pub stmt: GStmt,
}

/// An inter-origin `join` edge: everything in the child happens-before the
/// parent's node at `pos` (Table 4 rule ⓭).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinEdge {
    /// Joined (child) origin.
    pub child: OriginId,
    /// Parent origin performing the join.
    pub parent: OriginId,
    /// Node position of the join in the parent's trace.
    pub pos: u32,
    /// The join statement.
    pub stmt: GStmt,
}

/// A condition-variable wait or notify event recorded while walking one
/// origin. Events are collected during the walk and cross-matched into
/// [`CondEdge`]s at graph finish: every notify may be the one a wait on
/// an overlapping condition object returns from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondEvent {
    /// The origin whose trace contains the event.
    pub origin: OriginId,
    /// Trace position (for waits: the wait-*return* node, which is what
    /// the notify happens-before).
    pub pos: u32,
    /// The `wait`/`notify` statement.
    pub stmt: GStmt,
    /// May-points-to set of the condition variable, sorted and deduped.
    /// Empty (unknown condition) means the event matches nothing — no
    /// happens-before is claimed, which is the sound direction.
    pub conds: Vec<ObjId>,
    /// `true` for notify-all; waits always carry `false`.
    pub all: bool,
}

/// An inter-origin condvar edge: the notifier's node at `from_pos`
/// happens-before the waiter's wait-return node at `to_pos`. Derived
/// from [`CondEvent`]s whose condition sets overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CondEdge {
    /// Notifying origin.
    pub from: OriginId,
    /// Position of the notify node in the notifier's trace.
    pub from_pos: u32,
    /// Waiting origin.
    pub to: OriginId,
    /// Position of the wait-return node in the waiter's trace.
    pub to_pos: u32,
    /// The notify statement.
    pub stmt: GStmt,
}

/// A lock acquisition in an origin's trace (used by the deadlock and
/// over-synchronization analyses built on top of the SHB graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AcquireNode {
    /// Trace position of the acquisition.
    pub pos: u32,
    /// The acquiring statement (`MonitorEnter` or a synchronized method's
    /// first statement).
    pub stmt: GStmt,
    /// Lock elements acquired (the may-points-to set of the lock variable).
    pub elems: Vec<u32>,
    /// Canonical lockset held *before* this acquisition.
    pub held_before: LockSetId,
    /// Trace position of the matching release (`u32::MAX` while open).
    pub released_pos: u32,
}

/// The static trace of one origin.
#[derive(Clone, Debug, Default)]
pub struct OriginTrace {
    /// Access nodes in position order.
    pub accesses: Vec<AccessNode>,
    /// Lock acquisitions in position order.
    pub acquires: Vec<AcquireNode>,
    /// Total number of nodes (accesses + entry + join nodes).
    pub len: u32,
    /// `true` if the node budget truncated this trace.
    pub truncated: bool,
}

/// Construction statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShbStats {
    /// Total nodes across all traces.
    pub num_nodes: u64,
    /// Total access nodes.
    pub num_accesses: u64,
    /// Number of entry edges.
    pub num_entry_edges: usize,
    /// Number of join edges.
    pub num_join_edges: usize,
    /// Number of condvar (notify → wait-return) edges.
    pub num_cond_edges: usize,
    /// Number of canonical locksets.
    pub num_locksets: usize,
}

/// Compressed-sparse-row adjacency over the entry edges, bucketed by
/// parent origin. The frozen graph is traversed millions of times per
/// detect run but never mutated, so the per-origin `Vec<Vec<usize>>`
/// buckets are flattened into three parallel arrays scanned by an
/// `offsets[o]..offsets[o+1]` slice: one contiguous cache line per origin
/// instead of a pointer chase per bucket, and no per-edge indirection
/// through `entry_edges` on the hot path (the fields the DFS needs are
/// inlined into the row).
#[derive(Debug, Default)]
pub struct EntryCsr {
    /// `offsets[o]..offsets[o + 1]` is origin `o`'s row; length
    /// `num_origins + 1`.
    pub offsets: Vec<u32>,
    /// Entry position in the parent's trace, parallel to the row.
    pub pos: Vec<u32>,
    /// Raw child origin id, parallel to the row.
    pub child: Vec<u32>,
    /// Index into [`ShbGraph::entry_edges`] (for reporting walks that need
    /// the full edge), parallel to the row.
    pub edge_idx: Vec<u32>,
}

impl EntryCsr {
    /// Builds the CSR from the edge list via a stable counting sort, so
    /// each row keeps edge-emission order.
    fn build(num_origins: usize, edges: &[EntryEdge]) -> EntryCsr {
        let mut offsets = vec![0u32; num_origins + 1];
        for e in edges {
            offsets[e.parent.0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..num_origins].to_vec();
        let n = edges.len();
        let (mut pos, mut child, mut edge_idx) = (vec![0u32; n], vec![0u32; n], vec![0u32; n]);
        for (i, e) in edges.iter().enumerate() {
            let slot = cursor[e.parent.0 as usize] as usize;
            cursor[e.parent.0 as usize] += 1;
            pos[slot] = e.pos;
            child[slot] = e.child.0;
            edge_idx[slot] = i as u32;
        }
        EntryCsr {
            offsets,
            pos,
            child,
            edge_idx,
        }
    }

    /// The row of origin `o` as an index range into the parallel arrays.
    #[inline]
    pub fn row(&self, o: OriginId) -> std::ops::Range<usize> {
        self.offsets[o.0 as usize] as usize..self.offsets[o.0 as usize + 1] as usize
    }

    fn approx_bytes(&self) -> usize {
        (self.offsets.capacity() + self.pos.capacity() + self.child.capacity())
            .saturating_add(self.edge_idx.capacity())
            * 4
    }
}

/// CSR adjacency over the join edges, bucketed by child origin (a join
/// edge is traversed child → parent). Same layout rationale as
/// [`EntryCsr`].
#[derive(Debug, Default)]
pub struct JoinCsr {
    /// `offsets[o]..offsets[o + 1]` is origin `o`'s row.
    pub offsets: Vec<u32>,
    /// Join position in the parent's trace, parallel to the row.
    pub pos: Vec<u32>,
    /// Raw parent origin id, parallel to the row.
    pub parent: Vec<u32>,
}

impl JoinCsr {
    fn build(num_origins: usize, edges: &[JoinEdge]) -> JoinCsr {
        let mut offsets = vec![0u32; num_origins + 1];
        for j in edges {
            offsets[j.child.0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..num_origins].to_vec();
        let n = edges.len();
        let (mut pos, mut parent) = (vec![0u32; n], vec![0u32; n]);
        for j in edges {
            let slot = cursor[j.child.0 as usize] as usize;
            cursor[j.child.0 as usize] += 1;
            pos[slot] = j.pos;
            parent[slot] = j.parent.0;
        }
        JoinCsr {
            offsets,
            pos,
            parent,
        }
    }

    /// The row of origin `o` as an index range into the parallel arrays.
    #[inline]
    pub fn row(&self, o: OriginId) -> std::ops::Range<usize> {
        self.offsets[o.0 as usize] as usize..self.offsets[o.0 as usize + 1] as usize
    }

    fn approx_bytes(&self) -> usize {
        (self.offsets.capacity() + self.pos.capacity() + self.parent.capacity()) * 4
    }
}

/// CSR adjacency over the condvar edges, bucketed by notifying origin (a
/// cond edge is traversed notifier → waiter). Same layout rationale as
/// [`EntryCsr`].
#[derive(Debug, Default)]
pub struct CondCsr {
    /// `offsets[o]..offsets[o + 1]` is origin `o`'s row.
    pub offsets: Vec<u32>,
    /// Notify position in the notifier's trace, parallel to the row.
    pub pos: Vec<u32>,
    /// Raw waiter origin id, parallel to the row.
    pub to: Vec<u32>,
    /// Wait-return position in the waiter's trace, parallel to the row.
    pub to_pos: Vec<u32>,
}

impl CondCsr {
    fn build(num_origins: usize, edges: &[CondEdge]) -> CondCsr {
        let mut offsets = vec![0u32; num_origins + 1];
        for e in edges {
            offsets[e.from.0 as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..num_origins].to_vec();
        let n = edges.len();
        let (mut pos, mut to, mut to_pos) = (vec![0u32; n], vec![0u32; n], vec![0u32; n]);
        for e in edges {
            let slot = cursor[e.from.0 as usize] as usize;
            cursor[e.from.0 as usize] += 1;
            pos[slot] = e.from_pos;
            to[slot] = e.to.0;
            to_pos[slot] = e.to_pos;
        }
        CondCsr {
            offsets,
            pos,
            to,
            to_pos,
        }
    }

    /// The row of origin `o` as an index range into the parallel arrays.
    #[inline]
    pub fn row(&self, o: OriginId) -> std::ops::Range<usize> {
        self.offsets[o.0 as usize] as usize..self.offsets[o.0 as usize + 1] as usize
    }

    fn approx_bytes(&self) -> usize {
        (self.offsets.capacity() + self.pos.capacity() + self.to.capacity())
            .saturating_add(self.to_pos.capacity())
            * 4
    }
}

/// The SHB graph: per-origin traces plus inter-origin edges.
#[derive(Debug)]
pub struct ShbGraph {
    /// The program this graph's dense ids (origins, `LocId`s, lockset
    /// ids) belong to — the namespace of the [`ProgramCtx`] it was built
    /// under. Detection asserts agreement before consuming the graph.
    pub program_id: ProgramId,
    /// Traces indexed by raw origin id.
    pub traces: Vec<OriginTrace>,
    /// Canonical lockset table (mutable for its disjointness cache).
    pub locks: LockTable,
    /// All entry edges.
    pub entry_edges: Vec<EntryEdge>,
    /// All join edges.
    pub join_edges: Vec<JoinEdge>,
    /// All condvar edges (derived from wait/notify events at finish).
    pub cond_edges: Vec<CondEdge>,
    /// CSR adjacency of entry edges by parent origin.
    pub entry_csr: EntryCsr,
    /// CSR adjacency of join edges by child origin.
    pub join_csr: JoinCsr,
    /// CSR adjacency of condvar edges by notifying origin.
    pub cond_csr: CondCsr,
    /// Dense access index: [`LocId`] → list of `(origin, index into
    /// `traces\[origin\].accesses`)`. Ids come from the run's shared
    /// [`LocTable`] (the one `build_shb` interned into), so a slot here
    /// lines up with the same location's OSA sharing entry.
    pub accesses_by_loc: Vec<Vec<(OriginId, u32)>>,
    /// Construction statistics.
    pub stats: ShbStats,
    /// Wall-clock construction time.
    pub duration: Duration,
}

impl ShbGraph {
    /// Intra- and inter-origin happens-before query between two trace
    /// positions: does `(a_origin, a_pos)` happen before `(b_origin, b_pos)`?
    ///
    /// Intra-origin is an integer comparison; inter-origin is a DFS over
    /// entry/join edges with per-origin minimal-position pruning.
    pub fn happens_before(&self, a: (OriginId, u32), b: (OriginId, u32)) -> bool {
        if a.0 == b.0 {
            return a.1 < b.1;
        }
        // Origin ids are dense and small; a flat vector beats a hash map
        // for the per-origin minimal-position pruning.
        let mut best: Vec<u32> = vec![u32::MAX; self.traces.len()];
        let mut stack: Vec<(OriginId, u32)> = vec![(a.0, a.1)];
        while let Some((o, p)) = stack.pop() {
            if best[o.0 as usize] <= p {
                continue;
            }
            best[o.0 as usize] = p;
            if o == b.0 && p <= b.1 {
                return true;
            }
            for k in self.entry_csr.row(o) {
                if self.entry_csr.pos[k] >= p {
                    stack.push((OriginId(self.entry_csr.child[k]), 0));
                }
            }
            // A join edge is usable from any position in the child (the
            // child's last node is at or after every position).
            for k in self.join_csr.row(o) {
                stack.push((OriginId(self.join_csr.parent[k]), self.join_csr.pos[k]));
            }
            // A cond edge at or after `p` orders this node before the
            // waiter's wait-return node (Table 4 style: notify ⟶ wait).
            for k in self.cond_csr.row(o) {
                if self.cond_csr.pos[k] >= p {
                    stack.push((OriginId(self.cond_csr.to[k]), self.cond_csr.to_pos[k]));
                }
            }
        }
        false
    }

    /// The straw-man happens-before used by the naive baseline: the same
    /// relation, computed by walking the trace node-by-node and scanning
    /// the edge lists at every node (what explicit intra-origin HB edges
    /// cost before the §4.1 integer-id optimization).
    pub fn happens_before_naive(&self, a: (OriginId, u32), b: (OriginId, u32)) -> bool {
        if a.0 == b.0 {
            // Walk positions one at a time, as a DFS over explicit
            // intra-origin edges would.
            let mut p = a.1;
            let len = self.traces[a.0 .0 as usize].len;
            while p < len {
                if p == b.1 && a.1 != b.1 {
                    return true;
                }
                p += 1;
            }
            return false;
        }
        let mut visited: HashSet<(u32, u32)> = HashSet::new();
        let mut stack: Vec<(OriginId, u32)> = vec![(a.0, a.1)];
        while let Some((o, start)) = stack.pop() {
            if !visited.insert((o.0, start)) {
                continue;
            }
            if o == b.0 && start <= b.1 {
                return true;
            }
            // Step through every node position, scanning all edges at each
            // step (the redundant traversal the paper optimizes away).
            let len = self.traces[o.0 as usize].len;
            let mut p = start;
            while p < len {
                for e in &self.entry_edges {
                    if e.parent == o && e.pos == p {
                        stack.push((e.child, 0));
                    }
                }
                for c in &self.cond_edges {
                    if c.from == o && c.from_pos == p {
                        stack.push((c.to, c.to_pos));
                    }
                }
                p += 1;
            }
            for j in &self.join_edges {
                if j.child == o {
                    stack.push((j.parent, j.pos));
                }
            }
        }
        false
    }

    /// Renders the origin-level SHB graph in Graphviz dot format: one node
    /// per origin (labeled with kind and trace size), entry edges solid,
    /// join edges dashed.
    pub fn to_dot(&self, pta: &PtaResult) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph shb {\n  node [shape=ellipse, fontsize=10];\n");
        for (origin, data) in pta.arena.origins() {
            let t = &self.traces[origin.0 as usize];
            let _ = writeln!(
                out,
                "  o{} [label=\"O{} {} ({} accesses)\"];",
                origin.0,
                origin.0,
                data.kind,
                t.accesses.len()
            );
        }
        for e in &self.entry_edges {
            let _ = writeln!(
                out,
                "  o{} -> o{} [label=\"@{}\"];",
                e.parent.0, e.child.0, e.pos
            );
        }
        for j in &self.join_edges {
            let _ = writeln!(
                out,
                "  o{} -> o{} [style=dashed, label=\"join@{}\"];",
                j.child.0, j.parent.0, j.pos
            );
        }
        for c in &self.cond_edges {
            let _ = writeln!(
                out,
                "  o{} -> o{} [style=dotted, label=\"notify@{}\"];",
                c.from.0, c.to.0, c.from_pos
            );
        }
        out.push_str("}\n");
        out
    }

    /// Entry edges leaving `origin`.
    pub fn entries_of(&self, origin: OriginId) -> impl Iterator<Item = &EntryEdge> {
        self.entry_csr
            .row(origin)
            .map(move |k| &self.entry_edges[self.entry_csr.edge_idx[k] as usize])
    }

    /// Trace positions of every access to one interned location, empty if
    /// the walk never touched it.
    pub fn accesses_of(&self, loc: LocId) -> &[(OriginId, u32)] {
        self.accesses_by_loc
            .get(loc.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The full inter-origin reachability closure of one trace position:
    /// `result[o]` is the minimal position in origin `o` reachable from
    /// `from` over entry/join edges (`u32::MAX` if unreachable).
    ///
    /// This is [`ShbGraph::happens_before`]'s DFS run to fixpoint instead
    /// of stopping at the query target: for `b.0 != from.0`,
    /// `happens_before(from, b)` ⟺ `result[b.0] <= b.1`. Detect workers
    /// memoize these vectors per source position, turning the per-pair HB
    /// query of a candidate into one indexed comparison.
    pub fn reach_closure(&self, from: (OriginId, u32)) -> Vec<u32> {
        let mut best: Vec<u32> = vec![u32::MAX; self.traces.len()];
        let mut stack: Vec<(OriginId, u32)> = vec![from];
        while let Some((o, p)) = stack.pop() {
            if best[o.0 as usize] <= p {
                continue;
            }
            best[o.0 as usize] = p;
            for k in self.entry_csr.row(o) {
                if self.entry_csr.pos[k] >= p {
                    stack.push((OriginId(self.entry_csr.child[k]), 0));
                }
            }
            for k in self.join_csr.row(o) {
                stack.push((OriginId(self.join_csr.parent[k]), self.join_csr.pos[k]));
            }
            for k in self.cond_csr.row(o) {
                if self.cond_csr.pos[k] >= p {
                    stack.push((OriginId(self.cond_csr.to[k]), self.cond_csr.to_pos[k]));
                }
            }
        }
        best
    }

    /// Approximate heap bytes of the frozen graph, broken down by
    /// structure: `(traces, csr, locks, accesses_by_loc)`.
    pub fn approx_bytes(&self) -> (usize, usize, usize, usize) {
        let traces: usize = self
            .traces
            .iter()
            .map(|t| {
                t.accesses.capacity() * std::mem::size_of::<AccessNode>()
                    + t.acquires.capacity() * std::mem::size_of::<AcquireNode>()
                    + t.acquires
                        .iter()
                        .map(|a| a.elems.capacity() * 4)
                        .sum::<usize>()
            })
            .sum::<usize>()
            + self.traces.capacity() * std::mem::size_of::<OriginTrace>();
        let csr = self.entry_csr.approx_bytes()
            + self.join_csr.approx_bytes()
            + self.cond_csr.approx_bytes()
            + self.entry_edges.capacity() * std::mem::size_of::<EntryEdge>()
            + self.join_edges.capacity() * std::mem::size_of::<JoinEdge>()
            + self.cond_edges.capacity() * std::mem::size_of::<CondEdge>();
        let locks = self.locks.approx_bytes();
        let by_loc = self
            .accesses_by_loc
            .iter()
            .map(|v| v.capacity() * std::mem::size_of::<(OriginId, u32)>())
            .sum::<usize>()
            + self.accesses_by_loc.capacity() * std::mem::size_of::<Vec<(OriginId, u32)>>();
        (traces, csr, locks, by_loc)
    }
}

/// Builds the SHB graph from a pointer-analysis result, interning every
/// accessed location into `locs` — normally the table the preceding OSA
/// run minted, so that one id space spans both stages. (The walk can
/// still intern locations OSA never saw, e.g. after a truncated scan.)
pub fn build_shb(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    config: &ShbConfig,
    locs: &mut LocTable,
) -> ShbGraph {
    debug_assert_eq!(
        pta.program_id,
        ctx.id(),
        "build_shb: PtaResult from a different ProgramCtx"
    );
    debug_assert_eq!(
        locs.program(),
        ctx.id(),
        "build_shb: LocTable from a different ProgramCtx"
    );
    let start = Instant::now();
    let mut builder = Builder::new(ctx.program(), pta, config, locs, start);
    for (origin, _) in pta.arena.origins() {
        builder.walk_origin(origin);
    }
    builder.finish(start)
}

/// Sorted-slice intersection test (condition points-to sets are sorted
/// and deduped when recorded).
fn sorted_overlap(a: &[ObjId], b: &[ObjId]) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

struct Builder<'a> {
    program: &'a Program,
    pta: &'a PtaResult,
    config: &'a ShbConfig,
    locks: LockTable,
    locs: &'a mut LocTable,
    traces: Vec<OriginTrace>,
    entry_edges: Vec<EntryEdge>,
    join_edges: Vec<JoinEdge>,
    wait_events: Vec<CondEvent>,
    notify_events: Vec<CondEvent>,
    accesses_by_loc: Vec<Vec<(OriginId, u32)>>,
    fresh_lock_counter: u32,
    deadline: Option<Instant>,
    visit_ticks: u64,
}

struct WalkState {
    origin: OriginId,
    pos: u32,
    region: u32,
    lock_stack: Vec<Vec<u32>>,
    open_acquires: Vec<usize>,
    current_set: LockSetId,
    dispatcher_elem: Option<u32>,
    /// Memoized method visits. The third component is the *inter-origin
    /// epoch*: the number of entry/join edges emitted so far in this
    /// origin's trace. A method already walked is re-walked after a new
    /// inter-origin edge, because only those edges change the cross-origin
    /// happens-before status of its accesses — recording only the first
    /// call would falsely order post-spawn accesses before the spawn.
    visited: HashSet<(Mi, LockSetId, u32)>,
    inter_epoch: u32,
    truncated: bool,
}

impl<'a> Builder<'a> {
    fn new(
        program: &'a Program,
        pta: &'a PtaResult,
        config: &'a ShbConfig,
        locs: &'a mut LocTable,
        start: Instant,
    ) -> Builder<'a> {
        let accesses_by_loc = vec![Vec::new(); locs.len()];
        Builder {
            program,
            pta,
            config,
            locks: LockTable::new(),
            locs,
            traces: vec![OriginTrace::default(); pta.num_origins()],
            entry_edges: Vec::new(),
            join_edges: Vec::new(),
            wait_events: Vec::new(),
            notify_events: Vec::new(),
            accesses_by_loc,
            fresh_lock_counter: 0,
            deadline: config.timeout.map(|t| start + t),
            visit_ticks: 0,
        }
    }

    fn finish(self, start: Instant) -> ShbGraph {
        let num_origins = self.traces.len();
        let entry_csr = EntryCsr::build(num_origins, &self.entry_edges);
        let join_csr = JoinCsr::build(num_origins, &self.join_edges);
        // Cross-match notify × wait into condvar edges: a notify may be
        // the one a wait in *another* origin returns from whenever their
        // condition points-to sets overlap. Same-origin pairs add nothing
        // (intra-origin HB is already position order). The event lists
        // are in walk order, so the edge list — and the CSR built from
        // it — is deterministic.
        let mut cond_edges = Vec::new();
        for n in &self.notify_events {
            for w in &self.wait_events {
                if n.origin != w.origin && sorted_overlap(&n.conds, &w.conds) {
                    cond_edges.push(CondEdge {
                        from: n.origin,
                        from_pos: n.pos,
                        to: w.origin,
                        to_pos: w.pos,
                        stmt: n.stmt,
                    });
                }
            }
        }
        let cond_csr = CondCsr::build(num_origins, &cond_edges);
        let stats = ShbStats {
            num_nodes: self.traces.iter().map(|t| t.len as u64).sum(),
            num_accesses: self.traces.iter().map(|t| t.accesses.len() as u64).sum(),
            num_entry_edges: self.entry_edges.len(),
            num_join_edges: self.join_edges.len(),
            num_cond_edges: cond_edges.len(),
            num_locksets: self.locks.num_sets(),
        };
        ShbGraph {
            program_id: self.locs.program(),
            traces: self.traces,
            locks: self.locks,
            entry_edges: self.entry_edges,
            join_edges: self.join_edges,
            cond_edges,
            entry_csr,
            join_csr,
            cond_csr,
            accesses_by_loc: self.accesses_by_loc,
            stats,
            duration: start.elapsed(),
        }
    }

    fn walk_origin(&mut self, origin: OriginId) {
        let kind = self.pta.arena.origin_data(origin).kind;
        let dispatcher_elem = match kind {
            OriginKind::Event { dispatcher } if self.config.event_dispatcher_lock => {
                Some(self.locks.elem(LockElem::Dispatcher(dispatcher)))
            }
            OriginKind::Main => self
                .config
                .main_dispatcher
                .map(|d| self.locks.elem(LockElem::Dispatcher(d))),
            // A single-worker executor serializes its tasks exactly like
            // an event dispatcher serializes handlers; multiple workers
            // run tasks preemptively and get no implicit lock.
            OriginKind::AsyncTask { executor, workers }
                if workers <= 1 && self.config.event_dispatcher_lock =>
            {
                Some(self.locks.elem(LockElem::Executor(executor)))
            }
            _ => None,
        };
        let mut st = WalkState {
            origin,
            pos: 0,
            region: 0,
            lock_stack: Vec::new(),
            open_acquires: Vec::new(),
            current_set: LockSetId::EMPTY,
            dispatcher_elem,
            visited: HashSet::new(),
            inter_epoch: 0,
            truncated: false,
        };
        st.current_set = self.recompute_lockset(&st);
        let entries: Vec<Mi> = self.pta.origin_entries(origin).to_vec();
        for mi in entries {
            self.walk_method(&mut st, mi, 0);
        }
        let t = &mut self.traces[origin.0 as usize];
        t.len = st.pos;
        t.truncated = st.truncated;
    }

    fn recompute_lockset(&mut self, st: &WalkState) -> LockSetId {
        let mut elems: Vec<u32> = st.lock_stack.iter().flatten().copied().collect();
        if let Some(d) = st.dispatcher_elem {
            elems.push(d);
        }
        self.locks.set(elems)
    }

    fn lock_elems_for_var(&mut self, mi: Mi, var: o2_ir::ids::VarId, stmt: GStmt) -> Vec<u32> {
        let pts = self.pta.pts_var(mi, var);
        if pts.is_empty() {
            // Unknown lock: a fresh element, distinct from everything —
            // sound (protects nothing in common).
            self.fresh_lock_counter += 1;
            let id = self
                .locks
                .elem(LockElem::Obj(ObjId(u32::MAX - self.fresh_lock_counter)));
            let _ = stmt;
            vec![id]
        } else {
            pts.iter()
                .map(|&o| self.locks.elem(LockElem::Obj(ObjId(o))))
                .collect()
        }
    }

    /// Like [`Builder::lock_elems_for_var`] but for a reader-writer lock:
    /// every points-to object maps to its mode-specific element, and an
    /// unknown lock draws a fresh object that still keeps its mode — a
    /// fresh read-side guard must never protect a write.
    fn rw_lock_elems_for_var(
        &mut self,
        mi: Mi,
        var: o2_ir::ids::VarId,
        mode: o2_ir::program::RwMode,
    ) -> Vec<u32> {
        let wrap = |o: ObjId| match mode {
            o2_ir::program::RwMode::Read => LockElem::RwRead(o),
            o2_ir::program::RwMode::Write => LockElem::RwWrite(o),
        };
        let pts = self.pta.pts_var(mi, var);
        if pts.is_empty() {
            self.fresh_lock_counter += 1;
            let id = self
                .locks
                .elem(wrap(ObjId(u32::MAX - self.fresh_lock_counter)));
            vec![id]
        } else {
            pts.iter()
                .map(|&o| self.locks.elem(wrap(ObjId(o))))
                .collect()
        }
    }

    /// May-points-to set of a condition variable, sorted and deduped for
    /// the edge cross-match. An empty set stays empty: an unknown
    /// condition claims no happens-before.
    fn cond_objects(&self, mi: Mi, var: o2_ir::ids::VarId) -> Vec<ObjId> {
        let mut conds: Vec<ObjId> = self
            .pta
            .pts_var(mi, var)
            .iter()
            .map(|&o| ObjId(o))
            .collect();
        conds.sort_unstable();
        conds.dedup();
        conds
    }

    fn record_acquire(&mut self, st: &mut WalkState, stmt: GStmt, elems: Vec<u32>) {
        let idx = self.traces[st.origin.0 as usize].acquires.len();
        self.traces[st.origin.0 as usize]
            .acquires
            .push(AcquireNode {
                pos: st.pos,
                stmt,
                elems,
                held_before: st.current_set,
                released_pos: u32::MAX,
            });
        st.open_acquires.push(idx);
        st.pos += 1;
    }

    fn record_release(&mut self, st: &mut WalkState) {
        if let Some(idx) = st.open_acquires.pop() {
            self.traces[st.origin.0 as usize].acquires[idx].released_pos = st.pos;
            st.pos += 1;
        }
    }

    fn record_access(&mut self, st: &mut WalkState, key: MemKey, stmt: GStmt, is_write: bool) {
        if st.pos as usize >= self.config.node_budget {
            st.truncated = true;
            return;
        }
        let node = AccessNode {
            key,
            stmt,
            is_write,
            lockset: st.current_set,
            pos: st.pos,
            region: st.region,
        };
        st.pos += 1;
        let idx = self.traces[st.origin.0 as usize].accesses.len() as u32;
        self.traces[st.origin.0 as usize].accesses.push(node);
        let loc = self.locs.intern(key);
        if loc.index() >= self.accesses_by_loc.len() {
            self.accesses_by_loc.resize_with(loc.index() + 1, Vec::new);
        }
        self.accesses_by_loc[loc.index()].push((st.origin, idx));
    }

    fn walk_method(&mut self, st: &mut WalkState, mi: Mi, depth: usize) {
        if st.truncated {
            return;
        }
        if st.visited.len() >= self.config.max_visited_methods {
            st.truncated = true;
            return;
        }
        if depth > self.config.max_walk_depth {
            st.truncated = true;
            return;
        }
        self.visit_ticks += 1;
        if self.visit_ticks.is_multiple_of(256) {
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    st.truncated = true;
                    return;
                }
            }
        }
        if !st.visited.insert((mi, st.current_set, st.inter_epoch)) {
            return;
        }
        let (method_id, _) = self.pta.mi_data(mi);
        let method = self.program.method(method_id);
        let synced = method.is_synchronized;
        if synced {
            let elems = if method.is_static {
                vec![self.locks.elem(LockElem::Class(method.class))]
            } else {
                self.lock_elems_for_var(mi, o2_ir::ids::VarId(0), GStmt::new(method_id, 0))
            };
            // The acquisition site of a synchronized method is the method
            // entry itself; key it one past the body so it cannot collide
            // with the first statement's GStmt (Program::stmt_label renders
            // out-of-range indexes as the method entry).
            self.record_acquire(st, GStmt::new(method_id, method.body.len()), elems.clone());
            st.lock_stack.push(elems);
            st.current_set = self.recompute_lockset(st);
            st.region += 1;
        }
        for (idx, instr) in method.body.iter().enumerate() {
            if st.truncated {
                break;
            }
            let g = GStmt::new(method_id, idx);
            if let Some((base, field, is_write)) = instr.stmt.field_access() {
                let atomic = instr.stmt.is_atomic_access();
                for &obj in self.pta.pts_var(mi, base) {
                    let key = MemKey::Field(ObjId(obj), field);
                    if atomic {
                        // Atomic accesses hold the cell's implicit lock.
                        let elem = self.locks.elem(LockElem::AtomicCell(ObjId(obj), field));
                        let base_elems: Vec<u32> = self.locks.set_elems(st.current_set).to_vec();
                        let mut elems = base_elems;
                        elems.push(elem);
                        let save = st.current_set;
                        st.current_set = self.locks.set(elems);
                        st.region += 1;
                        self.record_access(st, key, g, is_write);
                        st.current_set = save;
                        st.region += 1;
                    } else {
                        self.record_access(st, key, g, is_write);
                    }
                }
                continue;
            }
            if let Some((class, field, is_write)) = instr.stmt.static_access() {
                self.record_access(st, MemKey::Static(class, field), g, is_write);
                continue;
            }
            match &instr.stmt {
                Stmt::MonitorEnter { var } => {
                    let elems = self.lock_elems_for_var(mi, *var, g);
                    self.record_acquire(st, g, elems.clone());
                    st.lock_stack.push(elems);
                    st.current_set = self.recompute_lockset(st);
                    st.region += 1;
                }
                Stmt::MonitorExit { .. } => {
                    st.lock_stack.pop();
                    self.record_release(st);
                    st.current_set = self.recompute_lockset(st);
                    st.region += 1;
                }
                Stmt::RwEnter { var, mode } => {
                    let elems = self.rw_lock_elems_for_var(mi, *var, *mode);
                    self.record_acquire(st, g, elems.clone());
                    st.lock_stack.push(elems);
                    st.current_set = self.recompute_lockset(st);
                    st.region += 1;
                }
                Stmt::RwExit { .. } => {
                    st.lock_stack.pop();
                    self.record_release(st);
                    st.current_set = self.recompute_lockset(st);
                    st.region += 1;
                }
                Stmt::Wait { cond, .. } => {
                    // The wait blocks, releases its lock, and reacquires
                    // before returning: the node recorded here is the
                    // wait-*return*, the target of notify edges. It splits
                    // the enclosing critical section — accesses before and
                    // after it land in different lock regions — and starts
                    // a new inter-origin epoch (incoming cond edges change
                    // the HB status of everything after it).
                    let conds = self.cond_objects(mi, *cond);
                    self.wait_events.push(CondEvent {
                        origin: st.origin,
                        pos: st.pos,
                        stmt: g,
                        conds,
                        all: false,
                    });
                    st.pos += 1;
                    st.region += 1;
                    st.inter_epoch += 1;
                }
                Stmt::Notify { cond, all } => {
                    let conds = self.cond_objects(mi, *cond);
                    self.notify_events.push(CondEvent {
                        origin: st.origin,
                        pos: st.pos,
                        stmt: g,
                        conds,
                        all: *all,
                    });
                    st.pos += 1;
                    st.region += 1;
                    st.inter_epoch += 1;
                }
                Stmt::Await => {
                    // A suspension point hands the worker back to the
                    // executor: accesses on either side must not be merged
                    // into one loop representative, but no happens-before
                    // edge is created here (task ordering comes from the
                    // executor element and entry edges).
                    st.region += 1;
                }
                Stmt::Call { .. } | Stmt::New { .. } | Stmt::Spawn { .. } => {
                    let targets: Vec<CallTarget> = self.pta.callees(mi, idx).to_vec();
                    for t in targets {
                        match t {
                            CallTarget::Normal(callee) => {
                                self.walk_method(st, callee, depth + 1);
                            }
                            CallTarget::Entry { origin: child, .. }
                            | CallTarget::SpawnEntry { origin: child, .. } => {
                                // Entry node: parent's position happens-
                                // before everything in the child.
                                self.entry_edges.push(EntryEdge {
                                    parent: st.origin,
                                    pos: st.pos,
                                    child,
                                    stmt: g,
                                });
                                st.pos += 1;
                                st.region += 1;
                                st.inter_epoch += 1;
                            }
                        }
                    }
                }
                Stmt::Join { .. } => {
                    let joined: Vec<OriginId> = self.pta.joined_origins(mi, idx).to_vec();
                    for child in joined {
                        self.join_edges.push(JoinEdge {
                            child,
                            parent: st.origin,
                            pos: st.pos,
                            stmt: g,
                        });
                        st.pos += 1;
                        st.region += 1;
                        st.inter_epoch += 1;
                    }
                }
                _ => {}
            }
        }
        if synced {
            st.lock_stack.pop();
            self.record_release(st);
            st.current_set = self.recompute_lockset(st);
            st.region += 1;
        }
        // Allow re-walking this method when encountered under a different
        // lockset later; keep it visited for the same lockset.
    }
}
