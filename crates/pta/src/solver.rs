//! The Andersen-style, on-the-fly call-graph pointer-analysis solver.
//!
//! One solver implements every policy of [`crate::policy::Policy`]; the
//! origin machinery (origin allocations, entry calls, spawns, joins) runs
//! under every policy so that race detection can attribute memory accesses
//! to threads and events regardless of the context abstraction — exactly
//! the experimental setup of the paper's Tables 5, 8 and 9.
//!
//! The transfer rules implemented here are those of Table 2:
//!
//! | rule | statement            | handled in                      |
//! |------|----------------------|---------------------------------|
//! | ❶    | `x = new C(..)`      | `Solver::process_new`         |
//! | ❷    | `x = y`              | copy edge                       |
//! | ❸/❹  | field store/load     | complex constraints             |
//! | ❺/❻  | array store/load     | complex constraints on `*`      |
//! | ❼    | non-entry call       | `Solver::dispatch_normal`     |
//! | ⓫    | origin allocation    | `Solver::create_origins_for_new` |
//! | ⓬    | origin entry call    | `Solver::dispatch_entry`      |

use crate::context::{
    AllocSite, Arena, Ctx, CtxElem, ObjData, ObjId, OriginId, OriginKey, OriginSite,
};
use crate::policy::Policy;
use o2_ir::ctx::ProgramCtx;
use o2_ir::error::{Budget, O2Error};
use o2_ir::ids::{ClassId, FieldId, GStmt, MethodId, ProgramId, VarId, ARRAY_FIELD};
use o2_ir::origins::OriginKind;
use o2_ir::program::{Callee, Program, Selector, Stmt, CTOR_NAME, HANDLE_CLASS_NAME};
use o2_ir::util::{Interner, SparseSet};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

/// An interned method instance: a `(method, context)` pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mi(pub u32);

/// A node in the pointer assignment graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKey {
    /// A local variable of a method instance.
    Var(Mi, VarId),
    /// A field of an abstract object (`*` for array elements).
    ObjField(ObjId, FieldId),
    /// A static field.
    Static(ClassId, FieldId),
    /// The return value of a method instance.
    Ret(Mi),
}

type NodeId = u32;

/// A resolved call-graph edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallTarget {
    /// An ordinary (same-origin) call, including constructor calls.
    Normal(Mi),
    /// An origin entry call (`start()` or a Table 1 entry method).
    Entry {
        /// The entered origin.
        origin: OriginId,
        /// The entry method instance.
        mi: Mi,
    },
    /// A direct `spawn` (pthread/kthread/irq style).
    SpawnEntry {
        /// The spawned origin.
        origin: OriginId,
        /// The entry method instance.
        mi: Mi,
    },
}

impl CallTarget {
    /// The callee method instance.
    pub fn mi(&self) -> Mi {
        match *self {
            CallTarget::Normal(mi)
            | CallTarget::Entry { mi, .. }
            | CallTarget::SpawnEntry { mi, .. } => mi,
        }
    }

    /// The origin created/entered by this edge, if it is not a normal call.
    pub fn origin(&self) -> Option<OriginId> {
        match *self {
            CallTarget::Normal(_) => None,
            CallTarget::Entry { origin, .. } | CallTarget::SpawnEntry { origin, .. } => {
                Some(origin)
            }
        }
    }
}

/// Configuration for one pointer-analysis run.
#[derive(Clone, Debug)]
pub struct PtaConfig {
    /// Context-sensitivity policy.
    pub policy: Policy,
    /// Wall-clock budget; the solver stops with
    /// [`PtaResult::timed_out`] set when exceeded (the harness analogue of
    /// the paper's ">4h" entries).
    pub timeout: Option<Duration>,
    /// Maximum number of solver steps (propagation units) as a
    /// deterministic budget; `u64::MAX` by default.
    pub max_steps: u64,
    /// Maximum number of distinct wrapper call sites disambiguated per
    /// origin-creating statement (§3.2 sets k=1 for the wrapper call-site
    /// extension; this caps pathological fan-in, soundly merging beyond it).
    pub wrapper_site_limit: usize,
    /// Maximum origin nesting depth. Origins created deeper than this are
    /// soundly merged by dropping the parent from their identity key, which
    /// guarantees termination for recursively self-spawning code.
    pub max_origin_depth: u32,
    /// §4.3: model unresolved (external) calls that produce a value by
    /// pointing the destination at an anonymous object of the built-in
    /// external class, one per call site.
    pub anonymous_external_objects: bool,
    /// Difference propagation (the standard Andersen optimization): on each
    /// worklist firing, push only the objects the node acquired since its
    /// last firing, and merge source sets into targets with a single batch
    /// union at edge insertion. When `false` the solver re-propagates the
    /// node's *entire* points-to set at every firing — the textbook
    /// full-set baseline, retained as a reference implementation for
    /// equivalence tests and for measuring how many redundant object
    /// transfers difference propagation removes (see
    /// [`PtaStats::propagated_objects`]). Both modes reach the same
    /// fixpoint.
    pub difference_propagation: bool,
}

impl Default for PtaConfig {
    fn default() -> Self {
        PtaConfig {
            policy: Policy::origin1(),
            timeout: None,
            max_steps: u64::MAX,
            wrapper_site_limit: 8,
            max_origin_depth: 8,
            anonymous_external_objects: true,
            difference_propagation: true,
        }
    }
}

impl PtaConfig {
    /// A configuration with the given policy and defaults otherwise.
    pub fn with_policy(policy: Policy) -> Self {
        PtaConfig {
            policy,
            ..Default::default()
        }
    }
}

/// Aggregate statistics of a pointer-analysis run (Table 6 metrics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PtaStats {
    /// Number of pointer nodes (variables + return values).
    pub num_pointers: usize,
    /// Number of abstract objects.
    pub num_objects: usize,
    /// Number of edges added to the pointer assignment graph.
    pub num_edges: u64,
    /// Number of origins discovered (`#O` of Table 5).
    pub num_origins: usize,
    /// Number of reachable method instances.
    pub num_mis: usize,
    /// Propagation steps executed.
    pub solve_steps: u64,
    /// Object-transfer units pushed across points-to edges by worklist
    /// firings: the sum over firings of `batch size × out-degree`, where
    /// the batch is the node's delta under difference propagation and its
    /// entire points-to set under the full-set baseline. One-time edge
    /// seeding (carrying the source set over a newly inserted edge) is
    /// necessary work in either mode and is excluded, so the counter
    /// isolates exactly the redundant re-propagation that difference
    /// propagation removes.
    pub propagated_objects: u64,
}

#[derive(Debug, Default)]
struct NodeData {
    pts: SparseSet,
    delta: Vec<u32>,
    queued: bool,
    succs: Vec<NodeId>,
    loads: Vec<(FieldId, NodeId)>,
    stores: Vec<(FieldId, NodeId)>,
    vcalls: Vec<u32>,
    joins: Vec<u32>,
}

/// Splits the node table into a shared borrow of `from` and a mutable
/// borrow of `to` (`from != to`), so a batch set union can read one node
/// while appending into the other without cloning either set.
fn two_nodes(nodes: &mut [NodeData], from: NodeId, to: NodeId) -> (&NodeData, &mut NodeData) {
    let (fi, ti) = (from as usize, to as usize);
    debug_assert_ne!(fi, ti);
    if fi < ti {
        let (left, right) = nodes.split_at_mut(ti);
        (&left[fi], &mut right[0])
    } else {
        let (left, right) = nodes.split_at_mut(fi);
        (&right[0], &mut left[ti])
    }
}

#[derive(Debug)]
struct VCall {
    caller: Mi,
    stmt_idx: u32,
    name: String,
    arity: usize,
    arg_nodes: Vec<NodeId>,
    dst_node: Option<NodeId>,
}

#[derive(Debug)]
struct JoinSite {
    caller: Mi,
    stmt_idx: u32,
}

#[derive(Debug, Default)]
struct MiInfo {
    processed: bool,
    incoming: Vec<GStmt>,
    origin_stmts: Vec<u32>,
}

/// The result of a pointer-analysis run: points-to sets, the call graph,
/// the origin table, and statistics.
#[derive(Debug)]
pub struct PtaResult {
    /// The program this result's dense ids (origins, objects, method
    /// instances) belong to. Downstream stages assert agreement so id
    /// spaces from different programs never mix.
    pub program_id: ProgramId,
    /// The policy that produced this result.
    pub policy: Policy,
    /// Interned contexts/objects/origins.
    pub arena: Arena,
    mis: Interner<(MethodId, Ctx)>,
    mi_processed: Vec<bool>,
    nodes: Vec<NodeData>,
    node_keys: Interner<NodeKey>,
    call_edges: BTreeMap<(u32, u32), Vec<CallTarget>>,
    join_edges: BTreeMap<(u32, u32), Vec<OriginId>>,
    origin_of_obj: HashMap<ObjId, Vec<OriginId>>,
    origin_entry_mis: BTreeMap<OriginId, Vec<Mi>>,
    mi_origins: Vec<SparseSet>,
    /// Run statistics.
    pub stats: PtaStats,
    /// `true` if the run hit its time or step budget before fixpoint.
    pub timed_out: bool,
    /// Wall-clock duration of the solve.
    pub duration: Duration,
}

static EMPTY_OBJS: &[u32] = &[];
static EMPTY_TARGETS: &[CallTarget] = &[];
static EMPTY_ORIGINS: &[OriginId] = &[];

impl PtaResult {
    /// Looks up a method instance.
    pub fn mi_of(&self, method: MethodId, ctx: Ctx) -> Option<Mi> {
        self.mis.get(&(method, ctx)).map(Mi)
    }

    /// Returns the `(method, context)` of a method instance.
    pub fn mi_data(&self, mi: Mi) -> (MethodId, Ctx) {
        *self.mis.resolve(mi.0)
    }

    /// Iterates all reachable (processed) method instances.
    pub fn reachable_mis(&self) -> impl Iterator<Item = Mi> + '_ {
        (0..self.mis.len() as u32)
            .map(Mi)
            .filter(|mi| self.mi_processed[mi.0 as usize])
    }

    /// Points-to set of a local variable, as raw [`ObjId`] indices.
    pub fn pts_var(&self, mi: Mi, var: VarId) -> &[u32] {
        self.pts_of_key(NodeKey::Var(mi, var))
    }

    /// Points-to set of an object field.
    pub fn pts_field(&self, obj: ObjId, field: FieldId) -> &[u32] {
        self.pts_of_key(NodeKey::ObjField(obj, field))
    }

    /// Points-to set of a static field.
    pub fn pts_static(&self, class: ClassId, field: FieldId) -> &[u32] {
        self.pts_of_key(NodeKey::Static(class, field))
    }

    fn pts_of_key(&self, key: NodeKey) -> &[u32] {
        match self.node_keys.get(&key) {
            Some(n) => self.nodes[n as usize].pts.as_slice(),
            None => EMPTY_OBJS,
        }
    }

    /// Renders every non-empty points-to entry as a map from a canonical
    /// node descriptor to the sorted canonical descriptors of the objects
    /// it points to.
    ///
    /// Descriptors are grounded entirely in program-level identities
    /// (methods, statement indices, classes, fields) rather than the dense
    /// interning ids, so two runs that compute the same abstraction
    /// produce byte-identical snapshots even when their internal id
    /// assignment differs — e.g. the difference-propagation solver and the
    /// full-set baseline visit nodes in different orders and may intern
    /// objects, contexts, and method instances in different sequences.
    /// Used by the solver equivalence tests and handy for diffing runs.
    pub fn canonical_snapshot(&self) -> BTreeMap<String, Vec<String>> {
        let mut out = BTreeMap::new();
        for (id, key) in self.node_keys.iter() {
            let pts = &self.nodes[id as usize].pts;
            if pts.is_empty() {
                continue;
            }
            let desc = match *key {
                NodeKey::Var(mi, v) => format!("var {} {:?}", self.canon_mi(mi), v),
                NodeKey::Ret(mi) => format!("ret {}", self.canon_mi(mi)),
                NodeKey::ObjField(o, f) => format!("fld {} {:?}", self.canon_obj(o), f),
                NodeKey::Static(c, f) => format!("static {c:?} {f:?}"),
            };
            let mut objs: Vec<String> = pts.iter().map(|o| self.canon_obj(ObjId(o))).collect();
            objs.sort();
            out.insert(desc, objs);
        }
        out
    }

    fn canon_mi(&self, mi: Mi) -> String {
        let (method, ctx) = *self.mis.resolve(mi.0);
        format!("{:?}@{}", method, self.canon_ctx(ctx))
    }

    fn canon_ctx(&self, ctx: Ctx) -> String {
        let elems: Vec<String> = self
            .arena
            .ctx_elems(ctx)
            .iter()
            .map(|e| match *e {
                CtxElem::Site(g) => format!("S{g:?}"),
                CtxElem::Obj(o) => self.canon_obj(o),
                CtxElem::Origin(orig) => self.canon_origin(orig),
            })
            .collect();
        format!("[{}]", elems.join(","))
    }

    fn canon_obj(&self, obj: ObjId) -> String {
        let d = self.arena.obj_data(obj);
        format!(
            "O{{{:?},h{},{:?}}}",
            d.site,
            self.canon_ctx(d.hctx),
            d.class
        )
    }

    fn canon_origin(&self, origin: OriginId) -> String {
        let d = self.arena.origin_data(origin);
        let parent = match d.key.parent {
            Some(p) => self.canon_origin(p),
            None => "-".to_string(),
        };
        format!(
            "G{{{:?},p{},w{:?},v{},{:?},{:?}}}",
            d.key.site, parent, d.key.wrapper, d.key.variant, d.kind, d.entry
        )
    }

    /// Call-graph targets of statement `stmt_idx` in `mi`.
    pub fn callees(&self, mi: Mi, stmt_idx: usize) -> &[CallTarget] {
        self.call_edges
            .get(&(mi.0, stmt_idx as u32))
            .map(|v| v.as_slice())
            .unwrap_or(EMPTY_TARGETS)
    }

    /// Origins joined by the `join` statement at `stmt_idx` in `mi`.
    pub fn joined_origins(&self, mi: Mi, stmt_idx: usize) -> &[OriginId] {
        self.join_edges
            .get(&(mi.0, stmt_idx as u32))
            .map(|v| v.as_slice())
            .unwrap_or(EMPTY_ORIGINS)
    }

    /// The origins whose code may execute method instance `mi`
    /// (computed by a BFS over normal call edges from each origin entry).
    pub fn mi_origins(&self, mi: Mi) -> &SparseSet {
        &self.mi_origins[mi.0 as usize]
    }

    /// Origins created from the thread/handle object `obj`, if any.
    pub fn origins_of_obj(&self, obj: ObjId) -> &[OriginId] {
        self.origin_of_obj
            .get(&obj)
            .map(|v| v.as_slice())
            .unwrap_or(EMPTY_ORIGINS)
    }

    /// Entry method instances of an origin.
    pub fn origin_entries(&self, origin: OriginId) -> &[Mi] {
        self.origin_entry_mis
            .get(&origin)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total number of interned method instances (reachable or not).
    pub fn num_mis(&self) -> usize {
        self.mis.len()
    }

    /// Number of origins discovered.
    pub fn num_origins(&self) -> usize {
        self.arena.num_origins()
    }

    /// `true` when the origin's identity key merges several runtime
    /// instances (wrapper fan-in beyond the limit, or entered from a
    /// loop); such origins may race with themselves.
    pub fn origin_is_multi(&self, origin: OriginId) -> bool {
        self.arena.origin_data(origin).multi_site
    }

    /// Renders the origin-annotated call graph in Graphviz dot format:
    /// method instances as nodes (labeled `Class.method`), normal call
    /// edges solid, origin entry/spawn edges bold and labeled with the
    /// origin id.
    pub fn callgraph_to_dot(&self, program: &Program) -> String {
        use std::fmt::Write;
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n");
        for mi in self.reachable_mis() {
            let (m, _) = self.mi_data(mi);
            let method = program.method(m);
            let _ = writeln!(
                out,
                "  m{} [label=\"{}.{}\"];",
                mi.0,
                program.class(method.class).name,
                method.name
            );
        }
        for (&(caller, _stmt), targets) in &self.call_edges {
            for t in targets {
                match t {
                    CallTarget::Normal(callee) => {
                        let _ = writeln!(out, "  m{caller} -> m{};", callee.0);
                    }
                    CallTarget::Entry { origin, mi } | CallTarget::SpawnEntry { origin, mi } => {
                        let _ = writeln!(
                            out,
                            "  m{caller} -> m{} [style=bold, color=red, label=\"O{}\"];",
                            mi.0, origin.0
                        );
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Iterates all object-field points-to entries `(object, field, pts)`.
    /// Used by the thread-escape baseline to close over the heap graph.
    pub fn obj_field_entries(&self) -> impl Iterator<Item = (ObjId, FieldId, &[u32])> {
        self.node_keys
            .iter()
            .filter_map(move |(id, key)| match key {
                NodeKey::ObjField(obj, field) => {
                    Some((*obj, *field, self.nodes[id as usize].pts.as_slice()))
                }
                _ => None,
            })
    }

    /// Iterates all static-field points-to entries `(class, field, pts)`.
    pub fn static_field_entries(&self) -> impl Iterator<Item = (ClassId, FieldId, &[u32])> {
        self.node_keys
            .iter()
            .filter_map(move |(id, key)| match key {
                NodeKey::Static(class, field) => {
                    Some((*class, *field, self.nodes[id as usize].pts.as_slice()))
                }
                _ => None,
            })
    }
}

/// Runs the pointer analysis on `ctx`'s program with `config`. The
/// result's dense ids are namespaced by `ctx.id()`.
pub fn analyze(ctx: &ProgramCtx<'_>, config: &PtaConfig) -> PtaResult {
    let start = Instant::now();
    let mut solver = Solver::new(ctx.program(), config.clone());
    solver.solve();
    solver.into_result(ctx.id(), start.elapsed())
}

/// Like [`analyze`], but polls a request-scoped [`Budget`] inside the
/// solver's main loop (at its existing 256-iteration deadline cadence)
/// and *aborts* with a typed error when it trips.
///
/// This is distinct from [`PtaConfig::timeout`] / [`PtaConfig::max_steps`]:
/// those are per-stage *truncation* budgets (the result comes back with
/// [`PtaResult::timed_out`] set and the pipeline degrades gracefully),
/// while an exceeded `Budget` means the whole request is over — the
/// partial solver state is discarded.
///
/// # Errors
///
/// [`O2Error::Timeout`] when the budget's deadline has passed,
/// [`O2Error::Budget`] when its step ceiling is exhausted.
pub fn analyze_budgeted(
    ctx: &ProgramCtx<'_>,
    config: &PtaConfig,
    budget: &Budget,
) -> Result<PtaResult, O2Error> {
    budget.check("pta entry")?;
    let start = Instant::now();
    let mut solver = Solver::new(ctx.program(), config.clone());
    if !budget.is_unlimited() {
        solver.budget = Some(budget);
    }
    solver.solve();
    if solver.budget_hit {
        // The solver broke out of its main loop because the request
        // budget tripped; surface the typed error instead of a
        // truncated result.
        budget.check("pta solve loop")?;
        // `exceeded()` saw the deadline pass but the re-check above came
        // back clean (sub-millisecond race): treat it as a timeout all
        // the same so the abort is honest.
        return Err(O2Error::Timeout(
            "deadline exceeded at pta solve loop".into(),
        ));
    }
    Ok(solver.into_result(ctx.id(), start.elapsed()))
}

struct Solver<'p> {
    program: &'p Program,
    cfg: PtaConfig,
    arena: Arena,
    mis: Interner<(MethodId, Ctx)>,
    mi_info: Vec<MiInfo>,
    nodes: Vec<NodeData>,
    node_keys: Interner<NodeKey>,
    worklist: VecDeque<NodeId>,
    vcalls: Vec<VCall>,
    joins: Vec<JoinSite>,
    call_edges: BTreeMap<(u32, u32), Vec<CallTarget>>,
    join_edges: BTreeMap<(u32, u32), Vec<OriginId>>,
    origin_of_obj: HashMap<ObjId, Vec<OriginId>>,
    origin_entry_mis: BTreeMap<OriginId, Vec<Mi>>,
    num_edges: u64,
    steps: u64,
    propagated: u64,
    iters: u64,
    timed_out: bool,
    deadline: Option<Instant>,
    // Request-scoped abort budget (`analyze_budgeted`); polled at the
    // same cadence as `deadline` but turns into a typed error instead
    // of a truncated result.
    budget: Option<&'p Budget>,
    budget_hit: bool,
    root_origin: OriginId,
    // Method-instance processing queue (avoids deep recursion on long call
    // chains).
    mi_queue: VecDeque<Mi>,
}

impl<'p> Solver<'p> {
    fn new(program: &'p Program, cfg: PtaConfig) -> Self {
        let deadline = cfg.timeout.map(|t| Instant::now() + t);
        Solver {
            program,
            cfg,
            arena: Arena::new(),
            mis: Interner::new(),
            mi_info: Vec::new(),
            nodes: Vec::new(),
            node_keys: Interner::new(),
            worklist: VecDeque::new(),
            vcalls: Vec::new(),
            joins: Vec::new(),
            call_edges: BTreeMap::new(),
            join_edges: BTreeMap::new(),
            origin_of_obj: HashMap::new(),
            origin_entry_mis: BTreeMap::new(),
            num_edges: 0,
            steps: 0,
            propagated: 0,
            iters: 0,
            timed_out: false,
            deadline,
            budget: None,
            budget_hit: false,
            root_origin: OriginId::ROOT,
            mi_queue: VecDeque::new(),
        }
    }

    fn mi(&mut self, method: MethodId, ctx: Ctx) -> Mi {
        let id = self.mis.intern((method, ctx));
        while self.mi_info.len() <= id as usize {
            self.mi_info.push(MiInfo::default());
        }
        Mi(id)
    }

    fn node(&mut self, key: NodeKey) -> NodeId {
        let id = self.node_keys.intern(key);
        while self.nodes.len() <= id as usize {
            self.nodes.push(NodeData::default());
        }
        id
    }

    fn var_node(&mut self, mi: Mi, var: VarId) -> NodeId {
        self.node(NodeKey::Var(mi, var))
    }

    fn mi_ctx(&self, mi: Mi) -> Ctx {
        self.mis.resolve(mi.0).1
    }

    fn mi_method(&self, mi: Mi) -> MethodId {
        self.mis.resolve(mi.0).0
    }

    fn budget_exhausted(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        if self.steps >= self.cfg.max_steps {
            self.timed_out = true;
            return true;
        }
        // The iteration counter advances by exactly one per main-loop
        // round, so (unlike `steps`, which strides by delta sizes) it is
        // guaranteed to hit every multiple.
        self.iters += 1;
        if self.iters.is_multiple_of(256) {
            if let Some(d) = self.deadline {
                if Instant::now() > d {
                    self.timed_out = true;
                    return true;
                }
            }
            if let Some(b) = self.budget {
                b.step(256);
                if b.exceeded() {
                    self.budget_hit = true;
                    return true;
                }
            }
        }
        false
    }

    // ---- pts / edge primitives -----------------------------------------

    fn add_pts(&mut self, node: NodeId, obj: ObjId) {
        let n = &mut self.nodes[node as usize];
        if n.pts.insert(obj.0) {
            n.delta.push(obj.0);
            if !n.queued {
                n.queued = true;
                self.worklist.push_back(node);
            }
        }
    }

    fn enqueue_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node as usize];
        if !n.queued {
            n.queued = true;
            self.worklist.push_back(node);
        }
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        {
            let n = &mut self.nodes[from as usize];
            match n.succs.binary_search(&to) {
                Ok(_) => return,
                Err(pos) => n.succs.insert(pos, to),
            }
        }
        self.num_edges += 1;
        if self.cfg.difference_propagation {
            // Targeted transfer: one linear merge of `from.pts` into
            // `to.pts`; only the objects `to` had not seen land in its
            // delta, and nothing else downstream is disturbed. This
            // seeding is necessary work in either mode (the baseline does
            // it inside the source's next firing), so it is not counted
            // toward `propagated` — that counter measures firing traffic.
            let (from_n, to_n) = two_nodes(&mut self.nodes, from, to);
            let changed = to_n.pts.union_into(&from_n.pts, &mut to_n.delta);
            if changed {
                self.enqueue_node(to);
            }
        } else {
            // Classic full-set baseline: re-enqueue the source; its next
            // firing re-pushes its entire points-to set to *every*
            // successor (the new edge's target among them), and every
            // downstream node whose set changes does the same.
            if !self.nodes[from as usize].pts.is_empty() {
                self.enqueue_node(from);
            }
        }
    }

    // ---- main loop ------------------------------------------------------

    fn solve(&mut self) {
        // The root origin represents main (Figure 1's implicit first
        // origin).
        let main = self.program.main;
        let root_key = OriginKey {
            site: OriginSite::Root,
            parent: None,
            wrapper: None,
            variant: 0,
        };
        let (root, _) = self
            .arena
            .origin(root_key, OriginKind::Main, main, Ctx::EMPTY);
        self.root_origin = root;
        let initial_ctx = if self.cfg.policy.is_origin() {
            let k = self.cfg.policy.origin_k();
            self.arena.push_trunc(Ctx::EMPTY, CtxElem::Origin(root), k)
        } else {
            Ctx::EMPTY
        };
        self.arena.set_origin_entry_ctx(root, initial_ctx);
        let main_mi = self.mi(main, initial_ctx);
        self.origin_entry_mis.entry(root).or_default().push(main_mi);
        self.enqueue_mi(main_mi);

        loop {
            if self.budget_exhausted() {
                break;
            }
            if let Some(mi) = self.mi_queue.pop_front() {
                self.process_mi(mi);
                continue;
            }
            let Some(node) = self.worklist.pop_front() else {
                break;
            };
            self.nodes[node as usize].queued = false;
            // Difference propagation pushes only the objects acquired since
            // the node last fired; the full-set baseline re-examines the
            // node's entire points-to set every time it fires (including
            // firings triggered by a new outgoing edge, where nothing in
            // the set is new).
            let delta = std::mem::take(&mut self.nodes[node as usize].delta);
            let delta = if self.cfg.difference_propagation {
                delta
            } else {
                self.nodes[node as usize].pts.iter().collect()
            };
            if delta.is_empty() {
                continue;
            }
            self.steps += delta.len() as u64;
            // Copy edges.
            let succs = self.nodes[node as usize].succs.clone();
            self.propagated += delta.len() as u64 * succs.len() as u64;
            for s in succs {
                for &o in &delta {
                    self.add_pts(s, ObjId(o));
                }
            }
            // Field loads: x = base.f — for each new base object o, edge
            // o.f → dst (rule ❹/❻).
            let loads = self.nodes[node as usize].loads.clone();
            for (f, dst) in loads {
                for &o in &delta {
                    let fnode = self.node(NodeKey::ObjField(ObjId(o), f));
                    self.add_edge(fnode, dst);
                }
            }
            // Field stores: base.f = src — edge src → o.f (rule ❸/❺).
            let stores = self.nodes[node as usize].stores.clone();
            for (f, src) in stores {
                for &o in &delta {
                    let fnode = self.node(NodeKey::ObjField(ObjId(o), f));
                    self.add_edge(src, fnode);
                }
            }
            // Virtual call dispatch (rules ❼/⓬).
            let vcalls = self.nodes[node as usize].vcalls.clone();
            for vc in vcalls {
                for &o in &delta {
                    self.dispatch(vc, ObjId(o));
                }
            }
            // Join resolution (rule ⓭).
            let joins = self.nodes[node as usize].joins.clone();
            for j in joins {
                for &o in &delta {
                    self.resolve_join(j, ObjId(o));
                }
            }
        }
    }

    fn enqueue_mi(&mut self, mi: Mi) {
        if !self.mi_info[mi.0 as usize].processed {
            self.mi_info[mi.0 as usize].processed = true;
            self.mi_queue.push_back(mi);
        }
    }

    // ---- statement processing -------------------------------------------

    fn process_mi(&mut self, mi: Mi) {
        let method_id = self.mi_method(mi);
        let num_stmts = self.program.method(method_id).body.len();
        for idx in 0..num_stmts {
            self.process_stmt(mi, idx);
        }
    }

    fn process_stmt(&mut self, mi: Mi, idx: usize) {
        let method_id = self.mi_method(mi);
        let stmt = self.program.method(method_id).body[idx].stmt.clone();
        let g = GStmt::new(method_id, idx);
        match stmt {
            Stmt::New { dst, class, args } => {
                self.process_new(mi, g, dst, class, &args);
            }
            Stmt::NewArray { dst } => {
                let ctx = self.mi_ctx(mi);
                let hctx = self.cfg.policy.heap_ctx(&mut self.arena, ctx);
                let array_class = self
                    .program
                    .class_by_name(o2_ir::program::ARRAY_CLASS_NAME)
                    .expect("builtin array class");
                let obj = self.arena.obj(ObjData {
                    site: AllocSite::Stmt {
                        stmt: g,
                        variant: 0,
                    },
                    hctx,
                    class: array_class,
                });
                let dst = self.var_node(mi, dst);
                self.add_pts(dst, obj);
            }
            Stmt::Assign { dst, src } => {
                let s = self.var_node(mi, src);
                let d = self.var_node(mi, dst);
                self.add_edge(s, d);
            }
            Stmt::StoreField { base, field, src } | Stmt::AtomicStore { base, field, src } => {
                let b = self.var_node(mi, base);
                let s = self.var_node(mi, src);
                self.register_store(b, field, s);
            }
            Stmt::LoadField { dst, base, field } | Stmt::AtomicLoad { dst, base, field } => {
                let b = self.var_node(mi, base);
                let d = self.var_node(mi, dst);
                self.register_load(b, field, d);
            }
            Stmt::StoreArray { base, src } => {
                let b = self.var_node(mi, base);
                let s = self.var_node(mi, src);
                self.register_store(b, ARRAY_FIELD, s);
            }
            Stmt::LoadArray { dst, base } => {
                let b = self.var_node(mi, base);
                let d = self.var_node(mi, dst);
                self.register_load(b, ARRAY_FIELD, d);
            }
            Stmt::StoreStatic { class, field, src } => {
                let s = self.var_node(mi, src);
                let st = self.node(NodeKey::Static(class, field));
                self.add_edge(s, st);
            }
            Stmt::LoadStatic { dst, class, field } => {
                let d = self.var_node(mi, dst);
                let st = self.node(NodeKey::Static(class, field));
                self.add_edge(st, d);
            }
            Stmt::Call { dst, callee, args } => match callee {
                Callee::Virtual { recv, name } => {
                    let recv_node = self.var_node(mi, recv);
                    let arg_nodes: Vec<NodeId> =
                        args.iter().map(|a| self.var_node(mi, *a)).collect();
                    let dst_node = dst.map(|d| self.var_node(mi, d));
                    let vc = self.vcalls.len() as u32;
                    self.vcalls.push(VCall {
                        caller: mi,
                        stmt_idx: idx as u32,
                        name,
                        arity: args.len(),
                        arg_nodes,
                        dst_node,
                    });
                    self.nodes[recv_node as usize].vcalls.push(vc);
                    let objs: Vec<u32> = self.nodes[recv_node as usize].pts.iter().collect();
                    for o in objs {
                        self.dispatch(vc, ObjId(o));
                    }
                }
                Callee::Static { method } => {
                    let ctx = self.mi_ctx(mi);
                    let callee_ctx = self.cfg.policy.call_ctx(&mut self.arena, ctx, g, None);
                    let callee_mi = self.mi(method, callee_ctx);
                    self.wire_call(
                        mi,
                        idx,
                        callee_mi,
                        None,
                        &args,
                        dst,
                        CallTarget::Normal(callee_mi),
                    );
                }
            },
            Stmt::Spawn {
                dst,
                entry,
                args,
                kind,
                replicas,
            } => {
                self.process_spawn(mi, g, dst, entry, &args, kind, replicas);
            }
            // Synchronization statements add no points-to constraints:
            // lock/cond variables get their points-to sets from ordinary
            // assignments, and await has no operands.
            Stmt::MonitorEnter { .. }
            | Stmt::MonitorExit { .. }
            | Stmt::RwEnter { .. }
            | Stmt::RwExit { .. }
            | Stmt::Wait { .. }
            | Stmt::Notify { .. }
            | Stmt::Await => {}
            Stmt::Join { recv } => {
                let recv_node = self.var_node(mi, recv);
                let j = self.joins.len() as u32;
                self.joins.push(JoinSite {
                    caller: mi,
                    stmt_idx: idx as u32,
                });
                self.nodes[recv_node as usize].joins.push(j);
                let objs: Vec<u32> = self.nodes[recv_node as usize].pts.iter().collect();
                for o in objs {
                    self.resolve_join(j, ObjId(o));
                }
            }
            Stmt::Return { src } => {
                if let Some(src) = src {
                    let s = self.var_node(mi, src);
                    let r = self.node(NodeKey::Ret(mi));
                    self.add_edge(s, r);
                }
            }
        }
    }

    fn register_load(&mut self, base: NodeId, field: FieldId, dst: NodeId) {
        self.nodes[base as usize].loads.push((field, dst));
        let objs: Vec<u32> = self.nodes[base as usize].pts.iter().collect();
        for o in objs {
            let fnode = self.node(NodeKey::ObjField(ObjId(o), field));
            self.add_edge(fnode, dst);
        }
    }

    fn register_store(&mut self, base: NodeId, field: FieldId, src: NodeId) {
        self.nodes[base as usize].stores.push((field, src));
        let objs: Vec<u32> = self.nodes[base as usize].pts.iter().collect();
        for o in objs {
            let fnode = self.node(NodeKey::ObjField(ObjId(o), field));
            self.add_edge(src, fnode);
        }
    }

    // ---- allocation -----------------------------------------------------

    fn process_new(&mut self, mi: Mi, g: GStmt, dst: VarId, class: ClassId, args: &[VarId]) {
        if self.program.is_origin_class(class) {
            // Rule ⓫: origin allocation. Record the statement so new
            // incoming wrapper call sites re-trigger it.
            let info = &mut self.mi_info[mi.0 as usize];
            if !info.origin_stmts.contains(&g.index) {
                info.origin_stmts.push(g.index);
            }
            let wrappers = self.wrapper_sites(mi);
            for w in wrappers {
                self.create_origins_for_new(mi, g, dst, class, args, w);
            }
        } else {
            let ctx = self.mi_ctx(mi);
            let hctx = self.cfg.policy.heap_ctx(&mut self.arena, ctx);
            let obj = self.arena.obj(ObjData {
                site: AllocSite::Stmt {
                    stmt: g,
                    variant: 0,
                },
                hctx,
                class,
            });
            let dst_node = self.var_node(mi, dst);
            self.add_pts(dst_node, obj);
            self.wire_ctor(mi, g, class, obj, args, None);
        }
    }

    /// The anonymous object modeling the unknown return value of an
    /// external call at `site` (§4.3).
    fn external_obj(&mut self, site: GStmt) -> ObjId {
        let class = self
            .program
            .class_by_name(o2_ir::program::EXTERNAL_CLASS_NAME)
            .expect("builtin external class");
        self.arena.obj(ObjData {
            site: AllocSite::External { stmt: site },
            hctx: Ctx::EMPTY,
            class,
        })
    }

    /// Bounds origin nesting: beyond `max_origin_depth`, the parent is
    /// dropped from the origin key so recursive spawning reaches a fixpoint.
    fn bounded_parent(&self, parent: Option<OriginId>) -> Option<OriginId> {
        match parent {
            Some(p) if self.arena.origin_depth(p) >= self.cfg.max_origin_depth => None,
            other => other,
        }
    }

    /// The wrapper call sites currently known for `mi` (§3.2): one origin
    /// is created per call site of the method containing the origin
    /// allocation, up to [`PtaConfig::wrapper_site_limit`].
    fn wrapper_sites(&self, mi: Mi) -> Vec<Option<GStmt>> {
        let incoming = &self.mi_info[mi.0 as usize].incoming;
        if incoming.is_empty() || incoming.len() > self.cfg.wrapper_site_limit {
            vec![None]
        } else {
            incoming.iter().copied().map(Some).collect()
        }
    }

    /// `true` when `mi`'s wrapper fan-in exceeded the disambiguation limit:
    /// origins created here merge several call sites and are flagged as
    /// multi-instance so the detector keeps their self-races.
    fn wrapper_merged(&self, mi: Mi) -> bool {
        self.mi_info[mi.0 as usize].incoming.len() > self.cfg.wrapper_site_limit
    }

    fn create_origins_for_new(
        &mut self,
        mi: Mi,
        g: GStmt,
        dst: VarId,
        class: ClassId,
        args: &[VarId],
        wrapper: Option<GStmt>,
    ) {
        let (entry_sel, kind) = self
            .program
            .origin_entry_of_class(class)
            .expect("origin class must have an entry");
        let Some(entry_method) = self.program.dispatch(class, &entry_sel) else {
            return;
        };
        let ctx = self.mi_ctx(mi);
        let parent = self.bounded_parent(self.arena.last_origin(ctx));
        let in_loop = self.program.instr(g).in_loop;
        let variants: u8 = if in_loop { 2 } else { 1 };
        for variant in 0..variants {
            let key = OriginKey {
                site: OriginSite::Alloc(g),
                parent,
                wrapper,
                variant,
            };
            let (origin, fresh) = self.arena.origin(key, kind, entry_method, Ctx::EMPTY);
            let child_ctx = if self.cfg.policy.is_origin() {
                let k = self.cfg.policy.origin_k();
                self.arena.push_trunc(ctx, CtxElem::Origin(origin), k)
            } else {
                // Under conventional policies the constructor is analyzed
                // in the policy-selected context (no origin switch) — this
                // is exactly the Figure 3 imprecision OPA eliminates.
                Ctx::EMPTY // placeholder; real ctor ctx chosen below
            };
            if fresh && self.cfg.policy.is_origin() {
                self.arena.set_origin_entry_ctx(origin, child_ctx);
            }
            // The origin object itself is heap-qualified by the child
            // origin under OPA (Table 2 rule ⓫: ⟨o, O_j⟩).
            let hctx = if self.cfg.policy.is_origin() {
                child_ctx
            } else {
                self.cfg.policy.heap_ctx(&mut self.arena, ctx)
            };
            let obj = self.arena.obj(ObjData {
                site: AllocSite::Stmt { stmt: g, variant },
                hctx,
                class,
            });
            if self.wrapper_merged(mi) {
                self.arena.mark_origin_multi(origin);
            }
            let origins = self.origin_of_obj.entry(obj).or_default();
            if !origins.contains(&origin) {
                origins.push(origin);
            }
            let dst_node = self.var_node(mi, dst);
            self.add_pts(dst_node, obj);
            // Constructor: analyzed in the child origin under OPA.
            let forced_ctx = if self.cfg.policy.is_origin() {
                Some(child_ctx)
            } else {
                None
            };
            self.wire_ctor(mi, g, class, obj, args, forced_ctx);
        }
    }

    fn wire_ctor(
        &mut self,
        mi: Mi,
        g: GStmt,
        class: ClassId,
        obj: ObjId,
        args: &[VarId],
        forced_ctx: Option<Ctx>,
    ) {
        let sel = Selector::new(CTOR_NAME, args.len());
        let Some(ctor) = self.program.dispatch(class, &sel) else {
            return;
        };
        let ctx = self.mi_ctx(mi);
        let callee_ctx = match forced_ctx {
            Some(c) => c,
            None => self.cfg.policy.call_ctx(&mut self.arena, ctx, g, Some(obj)),
        };
        let ctor_mi = self.mi(ctor, callee_ctx);
        // Bind `this`.
        let this = self.var_node(ctor_mi, VarId(0));
        self.add_pts(this, obj);
        self.wire_call(
            mi,
            g.index as usize,
            ctor_mi,
            None,
            args,
            None,
            CallTarget::Normal(ctor_mi),
        );
    }

    // ---- calls ------------------------------------------------------------

    /// Copies arguments/returns, records the call edge, tracks incoming
    /// wrapper sites, and queues the callee. `this_obj` is bound by callers
    /// that dispatch on a receiver.
    #[allow(clippy::too_many_arguments)]
    fn wire_call(
        &mut self,
        caller: Mi,
        stmt_idx: usize,
        callee: Mi,
        this_obj: Option<ObjId>,
        args: &[VarId],
        dst: Option<VarId>,
        target: CallTarget,
    ) {
        let callee_method = self.mi_method(callee);
        let m = self.program.method(callee_method);
        let first_param = usize::from(!m.is_static);
        if let Some(o) = this_obj {
            let this = self.var_node(callee, VarId(0));
            self.add_pts(this, o);
        }
        for (i, &a) in args.iter().enumerate() {
            if i >= m.num_params {
                break;
            }
            let actual = self.var_node(caller, a);
            let formal = self.var_node(callee, VarId((first_param + i) as u32));
            self.add_edge(actual, formal);
        }
        if let Some(d) = dst {
            let ret = self.node(NodeKey::Ret(callee));
            let dnode = self.var_node(caller, d);
            self.add_edge(ret, dnode);
        }
        // Record the call edge.
        let key = (caller.0, stmt_idx as u32);
        let edges = self.call_edges.entry(key).or_default();
        if !edges.contains(&target) {
            edges.push(target);
        }
        // Track incoming call sites of the callee; a new site re-triggers
        // origin-creating statements (wrapper disambiguation, §3.2).
        let site = GStmt::new(self.mi_method(caller), stmt_idx);
        self.note_incoming_site(callee, site);
    }

    /// Records an incoming call site on `callee`, queueing it on first
    /// sight and re-triggering its origin-creating statements when a new
    /// wrapper site appears after processing (§3.2) — shared by normal
    /// calls, entry dispatches, and spawns.
    fn note_incoming_site(&mut self, callee: Mi, site: GStmt) {
        let info = &mut self.mi_info[callee.0 as usize];
        let is_new_site = !info.incoming.contains(&site);
        if is_new_site {
            info.incoming.push(site);
        }
        let was_processed = info.processed;
        if !was_processed {
            self.enqueue_mi(callee);
        } else if is_new_site
            && self.mi_info[callee.0 as usize].incoming.len() <= self.cfg.wrapper_site_limit
        {
            let origin_stmts = self.mi_info[callee.0 as usize].origin_stmts.clone();
            for idx in origin_stmts {
                self.retrigger_origin_stmt(callee, idx as usize, site);
            }
        }
    }

    fn retrigger_origin_stmt(&mut self, mi: Mi, idx: usize, wrapper: GStmt) {
        let method_id = self.mi_method(mi);
        let stmt = self.program.method(method_id).body[idx].stmt.clone();
        let g = GStmt::new(method_id, idx);
        match stmt {
            Stmt::New { dst, class, args } => {
                self.create_origins_for_new(mi, g, dst, class, &args, Some(wrapper));
            }
            Stmt::Spawn {
                dst,
                entry,
                args,
                kind,
                replicas,
            } => {
                self.create_origins_for_spawn(
                    mi,
                    g,
                    dst,
                    entry,
                    &args,
                    kind,
                    replicas,
                    Some(wrapper),
                );
            }
            _ => {}
        }
    }

    fn dispatch(&mut self, vc_idx: u32, obj: ObjId) {
        let (caller, stmt_idx, name, arity) = {
            let vc = &self.vcalls[vc_idx as usize];
            (vc.caller, vc.stmt_idx, vc.name.clone(), vc.arity)
        };
        let class = self.arena.obj_data(obj).class;
        let entry_cfg = &self.program.entry_config;
        // Entry dispatch: `start()` on an origin class, or a direct call to
        // an entry-point method (rule ⓬).
        let origin_entry = self.program.origin_entry_of_class(class);
        if let Some((entry_sel, _kind)) = origin_entry {
            let is_start = entry_cfg.start_spawns_entry
                && name == "start"
                && arity == 0
                && entry_sel.arity == 0
                // A class that defines its own start() keeps it: only the
                // implicit Thread.start() convention spawns.
                && self
                    .program
                    .dispatch(class, &Selector::new("start", 0))
                    .is_none();
            let is_direct_entry =
                entry_cfg.is_entry(&name) && entry_sel.name == name && entry_sel.arity == arity;
            if is_start || is_direct_entry {
                self.dispatch_entry(vc_idx, obj, class, &entry_sel);
                return;
            }
        }
        self.dispatch_normal(vc_idx, obj, class, &name, arity, caller, stmt_idx);
    }

    fn dispatch_entry(&mut self, vc_idx: u32, obj: ObjId, class: ClassId, entry_sel: &Selector) {
        let (caller, stmt_idx, arg_nodes) = {
            let vc = &self.vcalls[vc_idx as usize];
            (vc.caller, vc.stmt_idx, vc.arg_nodes.clone())
        };
        let Some(target) = self.program.dispatch(class, entry_sel) else {
            return;
        };
        let g = GStmt::new(self.mi_method(caller), stmt_idx as usize);
        let origins = self.origin_of_obj.get(&obj).cloned().unwrap_or_default();
        for origin in origins {
            let entry_ctx = if self.cfg.policy.is_origin() {
                self.arena.origin_data(origin).entry_ctx
            } else {
                let ctx = self.mi_ctx(caller);
                self.cfg.policy.call_ctx(&mut self.arena, ctx, g, Some(obj))
            };
            let entry_mi = self.mi(target, entry_ctx);
            let entries = self.origin_entry_mis.entry(origin).or_default();
            if !entries.contains(&entry_mi) {
                entries.push(entry_mi);
            }
            // Bind `this` and parameters (the origin's attributes: actuals
            // use the caller's context, formals the origin's — rule ⓬).
            let m = self.program.method(target);
            if !m.is_static {
                let this = self.var_node(entry_mi, VarId(0));
                self.add_pts(this, obj);
            }
            let first_param = usize::from(!m.is_static);
            for (i, &actual) in arg_nodes.iter().enumerate() {
                if i >= m.num_params {
                    break;
                }
                let formal = self.var_node(entry_mi, VarId((first_param + i) as u32));
                self.add_edge(actual, formal);
            }
            let key = (caller.0, stmt_idx);
            let tgt = CallTarget::Entry {
                origin,
                mi: entry_mi,
            };
            let edges = self.call_edges.entry(key).or_default();
            if !edges.contains(&tgt) {
                edges.push(tgt);
            }
            let site = GStmt::new(self.mi_method(caller), stmt_idx as usize);
            self.note_incoming_site(entry_mi, site);
            // An entry call inside a loop on an object allocated *outside*
            // the loop starts arbitrarily many concurrent activations of
            // one abstract origin — flag it multi-instance. (Objects
            // allocated inside the loop are already variant-doubled, which
            // models the multiplicity through origin pairs.)
            if self.program.instr(g).in_loop {
                let alloc_in_loop = match self.arena.obj_data(obj).site {
                    AllocSite::Stmt { stmt, .. } => self.program.instr(stmt).in_loop,
                    _ => false,
                };
                if !alloc_in_loop {
                    self.arena.mark_origin_multi(origin);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch_normal(
        &mut self,
        vc_idx: u32,
        obj: ObjId,
        class: ClassId,
        name: &str,
        arity: usize,
        caller: Mi,
        stmt_idx: u32,
    ) {
        let sel = Selector::new(name, arity);
        let g = GStmt::new(self.mi_method(caller), stmt_idx as usize);
        let Some(target) = self.program.dispatch(class, &sel) else {
            // §4.3: unresolved target — an external function. If the call
            // produces a value, point it at an anonymous object.
            if self.cfg.anonymous_external_objects {
                let dst_node = self.vcalls[vc_idx as usize].dst_node;
                if let Some(d) = dst_node {
                    let obj = self.external_obj(g);
                    self.add_pts(d, obj);
                }
            }
            return;
        };
        let ctx = self.mi_ctx(caller);
        let callee_ctx = self.cfg.policy.call_ctx(&mut self.arena, ctx, g, Some(obj));
        let callee_mi = self.mi(target, callee_ctx);
        let (args, dst_node) = {
            let vc = &self.vcalls[vc_idx as usize];
            (vc.arg_nodes.clone(), vc.dst_node)
        };
        let m = self.program.method(target);
        // Bind `this` — only for instance targets: a virtual call that
        // resolves to a static method has no receiver slot, and VarId(0)
        // is its first explicit parameter.
        if !m.is_static {
            let this = self.var_node(callee_mi, VarId(0));
            self.add_pts(this, obj);
        }
        let first_param = usize::from(!m.is_static);
        for (i, &actual) in args.iter().enumerate() {
            if i >= m.num_params {
                break;
            }
            let formal = self.var_node(callee_mi, VarId((first_param + i) as u32));
            self.add_edge(actual, formal);
        }
        if let Some(d) = dst_node {
            let ret = self.node(NodeKey::Ret(callee_mi));
            self.add_edge(ret, d);
        }
        let key = (caller.0, stmt_idx);
        let tgt = CallTarget::Normal(callee_mi);
        let edges = self.call_edges.entry(key).or_default();
        if !edges.contains(&tgt) {
            edges.push(tgt);
        }
        self.note_incoming_site(callee_mi, g);
    }

    // ---- spawn / join -----------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn process_spawn(
        &mut self,
        mi: Mi,
        g: GStmt,
        dst: Option<VarId>,
        entry: MethodId,
        args: &[VarId],
        kind: OriginKind,
        replicas: u8,
    ) {
        let info = &mut self.mi_info[mi.0 as usize];
        if !info.origin_stmts.contains(&g.index) {
            info.origin_stmts.push(g.index);
        }
        let wrappers = self.wrapper_sites(mi);
        for w in wrappers {
            self.create_origins_for_spawn(mi, g, dst, entry, args, kind, replicas, w);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn create_origins_for_spawn(
        &mut self,
        mi: Mi,
        g: GStmt,
        dst: Option<VarId>,
        entry: MethodId,
        args: &[VarId],
        kind: OriginKind,
        replicas: u8,
        wrapper: Option<GStmt>,
    ) {
        let ctx = self.mi_ctx(mi);
        let parent = self.bounded_parent(self.arena.last_origin(ctx));
        let in_loop = self.program.instr(g).in_loop;
        let variants = replicas.saturating_mul(if in_loop { 2 } else { 1 });
        // The joinable handle object (one per spawn site).
        let handle_obj = dst.map(|d| {
            let hctx = self.cfg.policy.heap_ctx(&mut self.arena, ctx);
            let handle_class = self
                .program
                .class_by_name(HANDLE_CLASS_NAME)
                .expect("builtin handle class");
            let obj = self.arena.obj(ObjData {
                site: AllocSite::SpawnHandle { stmt: g },
                hctx,
                class: handle_class,
            });
            let dnode = self.var_node(mi, d);
            self.add_pts(dnode, obj);
            obj
        });
        for variant in 0..variants {
            let key = OriginKey {
                site: OriginSite::Spawn(g),
                parent,
                wrapper,
                variant,
            };
            let (origin, fresh) = self.arena.origin(key, kind, entry, Ctx::EMPTY);
            let entry_ctx = if self.cfg.policy.is_origin() {
                let k = self.cfg.policy.origin_k();
                self.arena.push_trunc(ctx, CtxElem::Origin(origin), k)
            } else {
                self.cfg.policy.call_ctx(&mut self.arena, ctx, g, None)
            };
            if fresh {
                self.arena.set_origin_entry_ctx(origin, entry_ctx);
            }
            if self.wrapper_merged(mi) {
                self.arena.mark_origin_multi(origin);
            }
            let entry_mi = self.mi(entry, entry_ctx);
            let entries = self.origin_entry_mis.entry(origin).or_default();
            if !entries.contains(&entry_mi) {
                entries.push(entry_mi);
            }
            if let Some(h) = handle_obj {
                let origins = self.origin_of_obj.entry(h).or_default();
                if !origins.contains(&origin) {
                    origins.push(origin);
                }
            }
            // Parameters.
            let m = self.program.method(entry);
            for (i, &a) in args.iter().enumerate() {
                if i >= m.num_params {
                    break;
                }
                let actual = self.var_node(mi, a);
                let formal = self.var_node(entry_mi, VarId(i as u32));
                self.add_edge(actual, formal);
            }
            let key = (mi.0, g.index);
            let tgt = CallTarget::SpawnEntry {
                origin,
                mi: entry_mi,
            };
            let edges = self.call_edges.entry(key).or_default();
            if !edges.contains(&tgt) {
                edges.push(tgt);
            }
            self.note_incoming_site(entry_mi, g);
        }
    }

    fn resolve_join(&mut self, j_idx: u32, obj: ObjId) {
        let Some(origins) = self.origin_of_obj.get(&obj).cloned() else {
            return;
        };
        let (caller, stmt_idx) = {
            let j = &self.joins[j_idx as usize];
            (j.caller, j.stmt_idx)
        };
        let entry = self.join_edges.entry((caller.0, stmt_idx)).or_default();
        for o in origins {
            if !entry.contains(&o) {
                entry.push(o);
            }
        }
    }

    // ---- finish -----------------------------------------------------------

    fn into_result(self, program_id: ProgramId, duration: Duration) -> PtaResult {
        let num_pointers = self
            .node_keys
            .iter()
            .filter(|(_, k)| matches!(k, NodeKey::Var(..) | NodeKey::Ret(..)))
            .count();
        let stats = PtaStats {
            num_pointers,
            num_objects: self.arena.num_objects(),
            num_edges: self.num_edges,
            num_origins: self.arena.num_origins(),
            num_mis: self.mi_info.iter().filter(|i| i.processed).count(),
            solve_steps: self.steps,
            propagated_objects: self.propagated,
        };
        let mi_processed: Vec<bool> = self.mi_info.iter().map(|i| i.processed).collect();
        // Origin reachability: BFS from each origin's entry MIs over
        // *normal* call edges. Constructor bodies at origin allocations are
        // attributed to the allocating origin (they run in the parent
        // thread at runtime, even though OPA analyzes them in the child
        // context for precision).
        let num_mis = self.mis.len();
        let mut mi_origins: Vec<SparseSet> = vec![SparseSet::new(); num_mis];
        let origin_ids: Vec<OriginId> = self.origin_entry_mis.keys().copied().collect();
        for origin in origin_ids {
            let entries = self
                .origin_entry_mis
                .get(&origin)
                .cloned()
                .unwrap_or_default();
            let mut stack: Vec<Mi> = entries;
            while let Some(mi) = stack.pop() {
                if !mi_origins[mi.0 as usize].insert(origin.0) {
                    continue;
                }
                let method = self.mis.resolve(mi.0).0;
                for idx in 0..self.program.method(method).body.len() {
                    if let Some(edges) = self.call_edges.get(&(mi.0, idx as u32)) {
                        for e in edges {
                            if let CallTarget::Normal(callee) = e {
                                stack.push(*callee);
                            }
                        }
                    }
                }
            }
        }
        PtaResult {
            program_id,
            policy: self.cfg.policy,
            arena: self.arena,
            mis: self.mis,
            mi_processed,
            nodes: self.nodes,
            node_keys: self.node_keys,
            call_edges: self.call_edges,
            join_edges: self.join_edges,
            origin_of_obj: self.origin_of_obj,
            origin_entry_mis: self.origin_entry_mis,
            mi_origins,
            stats,
            timed_out: self.timed_out,
            duration,
        }
    }
}
