//! The program representation: classes, methods, and statements.
//!
//! The statement set corresponds one-to-one to the analysis rules of the
//! paper: Table 2 (pointer analysis) and Table 4 (static happens-before
//! graph). Control flow inside a method is abstracted to a statement list
//! (a *static trace*); branches are represented by simply including both
//! sides, which is the over-approximation O2 itself uses, and loops only
//! matter for origin duplication, recorded by [`Instr::in_loop`].

use crate::ids::{ClassId, FieldId, GStmt, MethodId, VarId, ARRAY_FIELD};
use crate::origins::{EntryPointConfig, OriginKind};
use std::collections::HashMap;
use std::fmt;

/// The built-in class name used for array objects.
pub const ARRAY_CLASS_NAME: &str = "builtin.Array";
/// The built-in class name for handles returned by `spawn`.
pub const HANDLE_CLASS_NAME: &str = "builtin.Handle";
/// The built-in class of anonymous objects returned by unresolved
/// (external) calls — §4.3: "when a pointer is passed from an external
/// function call for which the IR file does not exist, we will create an
/// anonymous object for that pointer".
pub const EXTERNAL_CLASS_NAME: &str = "builtin.External";
/// The method name of constructors.
pub const CTOR_NAME: &str = "<init>";

/// A method selector used for dynamic dispatch: name plus argument count
/// (excluding the receiver).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Selector {
    /// Method name.
    pub name: String,
    /// Number of explicit arguments.
    pub arity: usize,
}

impl Selector {
    /// Creates a selector.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Selector {
            name: name.into(),
            arity,
        }
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

/// A class: a name, an optional superclass, marker interfaces, and a
/// dispatch table from selectors to concrete methods.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Class {
    /// Fully qualified class name (unique within a program).
    pub name: String,
    /// Direct superclass, if any.
    pub superclass: Option<ClassId>,
    /// Marker interfaces (e.g. `Runnable`); purely informational.
    pub interfaces: Vec<String>,
    /// Methods declared directly in this class.
    pub methods: Vec<(Selector, MethodId)>,
}

impl Class {
    /// Looks up a method declared directly in this class.
    pub fn local_method(&self, sel: &Selector) -> Option<MethodId> {
        self.methods.iter().find(|(s, _)| s == sel).map(|(_, m)| *m)
    }
}

/// How a call site names its target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Callee {
    /// Virtual dispatch on the runtime type of `recv`.
    Virtual {
        /// Receiver variable.
        recv: VarId,
        /// Method name; arity is the argument count at the call site.
        name: String,
    },
    /// A direct call to a known (static) method.
    Static {
        /// The target method.
        method: MethodId,
    },
}

/// The acquisition mode of a reader-writer lock (`Stmt::RwEnter`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RwMode {
    /// Shared (read) acquisition: excludes writers but not other readers.
    Read,
    /// Exclusive (write) acquisition: excludes everyone.
    Write,
}

/// One IR statement. Numbering in the doc comments refers to the rules of
/// Table 2 / Table 4 in the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// ❶/⓫ `x = new C(a1, …, an)` — allocation plus constructor call. If
    /// `C` (or an ancestor) defines an origin entry point this is an
    /// *origin allocation*: the constructor is analyzed in a fresh origin
    /// (rule ⓫, Figure 3).
    New {
        /// Destination variable.
        dst: VarId,
        /// Allocated class.
        class: ClassId,
        /// Constructor arguments.
        args: Vec<VarId>,
    },
    /// `x = new T[..]` — array allocation (object of the built-in array
    /// class with the single smashed element field `*`).
    NewArray {
        /// Destination variable.
        dst: VarId,
    },
    /// ❷ `x = y`.
    Assign {
        /// Destination variable.
        dst: VarId,
        /// Source variable.
        src: VarId,
    },
    /// ❸ `x.f = y`.
    StoreField {
        /// Base reference.
        base: VarId,
        /// Stored field.
        field: FieldId,
        /// Source variable.
        src: VarId,
    },
    /// ❹ `x = y.f`.
    LoadField {
        /// Destination variable.
        dst: VarId,
        /// Base reference.
        base: VarId,
        /// Loaded field.
        field: FieldId,
    },
    /// `atomic x.f = y` — an atomic store (`std::atomic` / `AtomicRef`).
    /// The paper lists atomics as future work ("adding new happens-before
    /// rules … to the atomic operations"); this IR models them soundly:
    /// atomic accesses to the same location are mutually ordered by the
    /// hardware, so they never race with each other — but they do race
    /// with *plain* accesses to the same location.
    AtomicStore {
        /// Base reference.
        base: VarId,
        /// Stored field.
        field: FieldId,
        /// Source variable.
        src: VarId,
    },
    /// `x = atomic y.f` — an atomic load.
    AtomicLoad {
        /// Destination variable.
        dst: VarId,
        /// Base reference.
        base: VarId,
        /// Loaded field.
        field: FieldId,
    },
    /// ❺ `x[*] = y`.
    StoreArray {
        /// Array reference.
        base: VarId,
        /// Source variable.
        src: VarId,
    },
    /// ❻ `x = y[*]`.
    LoadArray {
        /// Destination variable.
        dst: VarId,
        /// Array reference.
        base: VarId,
    },
    /// `C.f = y` — static (global) field store.
    StoreStatic {
        /// Declaring class.
        class: ClassId,
        /// Stored field.
        field: FieldId,
        /// Source variable.
        src: VarId,
    },
    /// `x = C.f` — static (global) field load.
    LoadStatic {
        /// Destination variable.
        dst: VarId,
        /// Declaring class.
        class: ClassId,
        /// Loaded field.
        field: FieldId,
    },
    /// ❼/⓬ `x = y.m(a1, …, an)` or `x = C::m(…)`. If the resolved target
    /// is an origin entry point (Table 1) this is an origin entry call.
    Call {
        /// Optional destination for the return value.
        dst: Option<VarId>,
        /// Target specification.
        callee: Callee,
        /// Explicit arguments.
        args: Vec<VarId>,
    },
    /// Direct origin creation in the style of `pthread_create` /
    /// `kthread_create` / `request_irq`: spawns `entry` as a new origin of
    /// `kind`, passing `args`, and optionally binds a joinable handle.
    Spawn {
        /// Optional handle (a `builtin.Handle` object joinable via [`Stmt::Join`]).
        dst: Option<VarId>,
        /// Entry method run by the new origin (a static method).
        entry: MethodId,
        /// Arguments passed to the entry.
        args: Vec<VarId>,
        /// Kind of the created origin.
        kind: OriginKind,
        /// Number of concurrent instances to model (≥ 1). The Linux kernel
        /// evaluation models each system call as two concurrent origins.
        replicas: u8,
    },
    /// ❽ `synchronized(x) {` — monitor acquisition on every object `x` may
    /// point to. Must be matched by a later [`Stmt::MonitorExit`] on the
    /// same variable in the same method.
    MonitorEnter {
        /// Lock variable.
        var: VarId,
    },
    /// ❽ `}` — monitor release.
    MonitorExit {
        /// Lock variable.
        var: VarId,
    },
    /// `rwread (x) {` / `rwwrite (x) {` — reader-writer lock acquisition
    /// (`pthread_rwlock_rdlock` / `pthread_rwlock_wrlock`) on every object
    /// `x` may point to, in the given mode. Must be matched by a later
    /// [`Stmt::RwExit`] on the same variable in the same method.
    ///
    /// Unlike monitors, read-mode acquisitions do not exclude each other:
    /// two critical sections both holding only the *read* side of the same
    /// lock still race if either performs a write.
    RwEnter {
        /// Lock variable.
        var: VarId,
        /// Acquisition mode.
        mode: RwMode,
    },
    /// `}` closing a [`Stmt::RwEnter`] — reader-writer lock release
    /// (`pthread_rwlock_unlock`).
    RwExit {
        /// Lock variable.
        var: VarId,
    },
    /// `wait (c, m);` — condition-variable wait (`pthread_cond_wait`):
    /// atomically releases the lock `m`, blocks until notified on `c`, and
    /// reacquires `m` before returning. Splits the enclosing critical
    /// section and receives a happens-before edge from every
    /// [`Stmt::Notify`] on the same condition in another origin.
    Wait {
        /// Condition-variable reference.
        cond: VarId,
        /// The lock released/reacquired around the wait. Must be held.
        lock: VarId,
    },
    /// `notify c;` / `notifyall c;` — condition-variable signal
    /// (`pthread_cond_signal` / `pthread_cond_broadcast`). Orders this
    /// point before the return of matching waits in other origins.
    Notify {
        /// Condition-variable reference.
        cond: VarId,
        /// `true` for broadcast (`notifyall`).
        all: bool,
    },
    /// `await;` — an async-task suspension point. Acts as a handler
    /// boundary: the task yields its executor worker, so the enclosing
    /// run-to-completion region ends here.
    Await,
    /// ⓭ `x.join()` — joins the origin(s) created from the thread or handle
    /// object `recv` points to.
    Join {
        /// Thread or handle reference.
        recv: VarId,
    },
    /// `return x;` — flows `x` into the method's return value.
    Return {
        /// Returned variable, if any.
        src: Option<VarId>,
    },
}

impl Stmt {
    /// Returns the memory access performed by this statement, if any:
    /// `(base variable, field, is_write)`. Array accesses report
    /// [`ARRAY_FIELD`]; static accesses return `None` here (see
    /// [`Stmt::static_access`]).
    pub fn field_access(&self) -> Option<(VarId, FieldId, bool)> {
        match *self {
            Stmt::StoreField { base, field, .. } => Some((base, field, true)),
            Stmt::LoadField { base, field, .. } => Some((base, field, false)),
            Stmt::AtomicStore { base, field, .. } => Some((base, field, true)),
            Stmt::AtomicLoad { base, field, .. } => Some((base, field, false)),
            Stmt::StoreArray { base, .. } => Some((base, ARRAY_FIELD, true)),
            Stmt::LoadArray { base, .. } => Some((base, ARRAY_FIELD, false)),
            _ => None,
        }
    }

    /// Returns `true` if this statement is an atomic access.
    pub fn is_atomic_access(&self) -> bool {
        matches!(self, Stmt::AtomicStore { .. } | Stmt::AtomicLoad { .. })
    }

    /// Returns the static field access performed by this statement, if any:
    /// `(class, field, is_write)`.
    pub fn static_access(&self) -> Option<(ClassId, FieldId, bool)> {
        match *self {
            Stmt::StoreStatic { class, field, .. } => Some((class, field, true)),
            Stmt::LoadStatic { class, field, .. } => Some((class, field, false)),
            _ => None,
        }
    }
}

/// A statement plus its static attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instr {
    /// The statement.
    pub stmt: Stmt,
    /// `true` if the statement is (transitively) inside a loop. Origin
    /// allocations in loops are duplicated (§3.2 "Wrapper Functions and
    /// Loops").
    pub in_loop: bool,
    /// Source line for diagnostics (0 when built programmatically).
    pub line: u32,
}

/// A method: parameters, a local-variable universe, and a statement body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Method {
    /// Method name.
    pub name: String,
    /// Declaring class.
    pub class: ClassId,
    /// Number of explicit parameters.
    pub num_params: usize,
    /// `true` for static methods (no `this`).
    pub is_static: bool,
    /// `true` if the whole body is implicitly synchronized on `this`
    /// (Java `synchronized` methods).
    pub is_synchronized: bool,
    /// `true` if the method is annotated `@suppress(race)`: races whose
    /// accesses fall in its body are triaged into the suppressed list.
    pub suppress_races: bool,
    /// Total number of local variables, including `this` and parameters.
    pub num_vars: usize,
    /// Debug names of the variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// The body in program order.
    pub body: Vec<Instr>,
}

impl Method {
    /// The dispatch selector of this method.
    pub fn selector(&self) -> Selector {
        Selector::new(self.name.clone(), self.num_params)
    }

    /// The variable holding `this`, if the method is an instance method.
    pub fn this_var(&self) -> Option<VarId> {
        if self.is_static {
            None
        } else {
            Some(VarId(0))
        }
    }

    /// The variable holding explicit parameter `i` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_params`.
    pub fn param_var(&self, i: usize) -> VarId {
        assert!(i < self.num_params, "parameter index out of range");
        let base = if self.is_static { 0 } else { 1 };
        VarId((base + i) as u32)
    }
}

/// A whole program: class table, method table, interned field names, and
/// the designated `main` entry.
///
/// Equality (`==`) is full structural equality including diagnostic line
/// numbers; see [`structurally_equal`] for the line-insensitive variant
/// used to compare parsed text against programmatically built programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// All classes; indexed by [`ClassId`].
    pub classes: Vec<Class>,
    /// All methods; indexed by [`MethodId`].
    pub methods: Vec<Method>,
    /// Interned field names; indexed by [`FieldId`]. Index 0 is `*`.
    pub fields: Vec<String>,
    /// The program entry point (a static, zero-argument method).
    pub main: MethodId,
    /// Origin entry-point recognition rules.
    pub entry_config: EntryPointConfig,
    pub(crate) class_by_name: HashMap<String, ClassId>,
    pub(crate) field_by_name: HashMap<String, FieldId>,
}

impl Program {
    /// Looks up a class by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Looks up an interned field by name.
    pub fn field_by_name(&self, name: &str) -> Option<FieldId> {
        self.field_by_name.get(name).copied()
    }

    /// Returns the class record for `id`.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Returns the method record for `id`.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Returns the field name for `id`.
    pub fn field_name(&self, id: FieldId) -> &str {
        &self.fields[id.index()]
    }

    /// Returns the instruction at a global statement position.
    pub fn instr(&self, g: GStmt) -> &Instr {
        &self.methods[g.method.index()].body[g.index as usize]
    }

    /// Resolves virtual dispatch: finds the concrete method for `sel` on a
    /// receiver of class `class`, walking up the superclass chain.
    pub fn dispatch(&self, class: ClassId, sel: &Selector) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.classes[c.index()].local_method(sel) {
                return Some(m);
            }
            cur = self.classes[c.index()].superclass;
        }
        None
    }

    /// [`Program::dispatch`] on a selector given as its parts, so a hot
    /// caller that holds a borrowed method name builds no [`Selector`].
    pub fn dispatch_name(&self, class: ClassId, name: &str, arity: usize) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let class = &self.classes[c.index()];
            let local = class
                .methods
                .iter()
                .find(|(s, _)| s.arity == arity && s.name == name);
            if let Some(&(_, m)) = local {
                return Some(m);
            }
            cur = class.superclass;
        }
        None
    }

    /// Returns the origin entry selector defined by `class` (or an
    /// ancestor), together with the origin kind it starts, if any.
    ///
    /// A class defining e.g. `run/0` is an *origin class*: allocating it is
    /// an origin allocation (rule ⓫) and `start()` / direct entry calls on
    /// it enter the origin.
    pub fn origin_entry_of_class(&self, class: ClassId) -> Option<(&Selector, OriginKind)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            for (sel, _) in &self.classes[c.index()].methods {
                if let Some(kind) = self.entry_config.entry_kind(&sel.name) {
                    return Some((sel, kind));
                }
            }
            cur = self.classes[c.index()].superclass;
        }
        None
    }

    /// Returns `true` if `class` is an origin class.
    pub fn is_origin_class(&self, class: ClassId) -> bool {
        self.origin_entry_of_class(class).is_some()
    }

    /// Returns `true` if `sub` equals or transitively extends `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.index()].superclass;
        }
        false
    }

    /// Total number of statements across all methods (the paper's `p`).
    pub fn num_statements(&self) -> usize {
        self.methods.iter().map(|m| m.body.len()).sum()
    }

    /// Total number of allocation sites (the paper's `h`).
    pub fn num_alloc_sites(&self) -> usize {
        self.methods
            .iter()
            .flat_map(|m| m.body.iter())
            .filter(|i| matches!(i.stmt, Stmt::New { .. } | Stmt::NewArray { .. }))
            .count()
    }

    /// Iterates all global statement positions in deterministic order.
    pub fn all_stmts(&self) -> impl Iterator<Item = GStmt> + '_ {
        self.methods.iter().enumerate().flat_map(|(mi, m)| {
            (0..m.body.len()).map(move |si| GStmt::new(MethodId::from_usize(mi), si))
        })
    }

    /// `true` if `g` lies in a method annotated `@suppress(race)`.
    pub fn is_race_suppressed(&self, g: GStmt) -> bool {
        self.method(g.method).suppress_races
    }

    /// The qualified name of a method: `Class.name/arity`. Unique within
    /// a well-formed program and stable across parses, so it serves as
    /// the cross-run identity of the method in the analysis database.
    pub fn method_qname(&self, id: MethodId) -> String {
        let m = self.method(id);
        format!("{}.{}/{}", self.class(m.class).name, m.name, m.num_params)
    }

    /// A human-readable label for a statement, used in race reports:
    /// `Class.method:line`.
    pub fn stmt_label(&self, g: GStmt) -> String {
        let m = self.method(g.method);
        let cls = &self.class(m.class).name;
        // Indexes one past the body denote the method entry itself (used
        // for the acquisition site of synchronized methods).
        let Some(instr) = m.body.get(g.index as usize) else {
            return format!("{cls}.{}#entry", m.name);
        };
        let line = instr.line;
        if line > 0 {
            format!("{cls}.{}:{line}", m.name)
        } else {
            format!("{cls}.{}#{}", m.name, g.index)
        }
    }
}

/// Structural equality of two programs, ignoring diagnostic line numbers.
///
/// This is the round-trip invariant of the printer/parser pair: printing a
/// program (which emits no line information) and re-parsing it (which
/// assigns fresh source lines) must reproduce everything the analyses can
/// observe — classes, dispatch tables, method attributes, variable
/// universes, and statement bodies.
pub fn structurally_equal(a: &Program, b: &Program) -> bool {
    if a.classes != b.classes
        || a.fields != b.fields
        || a.main != b.main
        || a.entry_config != b.entry_config
        || a.methods.len() != b.methods.len()
    {
        return false;
    }
    a.methods.iter().zip(&b.methods).all(|(ma, mb)| {
        ma.name == mb.name
            && ma.class == mb.class
            && ma.num_params == mb.num_params
            && ma.is_static == mb.is_static
            && ma.is_synchronized == mb.is_synchronized
            && ma.suppress_races == mb.suppress_races
            && ma.num_vars == mb.num_vars
            && ma.var_names == mb.var_names
            && ma.body.len() == mb.body.len()
            && ma
                .body
                .iter()
                .zip(&mb.body)
                .all(|(ia, ib)| ia.stmt == ib.stmt && ia.in_loop == ib.in_loop)
    })
}
