//! Programmatic construction of [`Program`]s.
//!
//! [`ProgramBuilder`] manages the class/field tables; [`MethodBuilder`]
//! (borrowing the program builder) appends statements using string names
//! for variables, classes, fields and methods, so forward references work:
//! direct-call targets are resolved when [`ProgramBuilder::finish`] runs.
//!
//! ```
//! use o2_ir::builder::ProgramBuilder;
//! let mut pb = ProgramBuilder::new();
//! let data = pb.add_class("Data", None);
//! pb.begin_method(data, "<init>", &[]).finish();
//! let worker = pb.add_class("Worker", None);
//! {
//!     let mut m = pb.begin_method(worker, "run", &[]);
//!     m.load(Some("x"), "this", "state");
//!     m.finish();
//! }
//! let main_cls = pb.add_class("Main", None);
//! {
//!     let mut m = pb.begin_static_method(main_cls, "main", &[]);
//!     m.new_obj("w", "Worker", &[]);
//!     m.call(None, "w", "start", &[]);
//!     m.finish();
//! }
//! let program = pb.finish().unwrap();
//! assert_eq!(program.classes.len(), 6); // Data, Worker, Main + 3 builtins
//! ```

use crate::ids::{ClassId, FieldId, MethodId, VarId};
use crate::origins::{EntryPointConfig, OriginKind};
use crate::program::{
    Callee, Class, Instr, Method, Program, RwMode, Selector, Stmt, ARRAY_CLASS_NAME, CTOR_NAME,
    EXTERNAL_CLASS_NAME, HANDLE_CLASS_NAME,
};

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error produced while finishing a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// No static, zero-argument `main` method was defined.
    NoMain,
    /// A direct call or spawn referenced a method that does not exist.
    UnresolvedMethod {
        /// Class name used at the call site.
        class: String,
        /// Method name used at the call site.
        method: String,
        /// Argument count at the call site.
        arity: usize,
    },
    /// A `new` referenced an unknown class.
    UnknownClass(String),
    /// A class was defined twice.
    DuplicateClass(String),
    /// A method selector was defined twice in the same class.
    DuplicateMethod(String, Selector),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NoMain => write!(f, "no static zero-argument main method"),
            BuildError::UnresolvedMethod {
                class,
                method,
                arity,
            } => write!(f, "unresolved method {class}::{method}/{arity}"),
            BuildError::UnknownClass(name) => write!(f, "unknown class {name}"),
            BuildError::DuplicateClass(name) => write!(f, "duplicate class {name}"),
            BuildError::DuplicateMethod(cls, sel) => {
                write!(f, "duplicate method {cls}.{sel}")
            }
        }
    }
}

impl Error for BuildError {}

/// A pending direct-call target, resolved at [`ProgramBuilder::finish`].
#[derive(Clone, Debug)]
struct Patch {
    method: MethodId,
    stmt_index: usize,
    class: String,
    target: String,
    arity: usize,
    is_spawn: bool,
}

/// Builder for a whole [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    classes: Vec<Class>,
    methods: Vec<Method>,
    fields: Vec<String>,
    field_by_name: HashMap<String, FieldId>,
    class_by_name: HashMap<String, ClassId>,
    entry_config: EntryPointConfig,
    patches: Vec<Patch>,
    duplicate_class: Option<String>,
    duplicate_method: Option<(String, Selector)>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder with the built-in array/handle classes and the
    /// reserved `*` array field already registered.
    pub fn new() -> Self {
        let mut b = ProgramBuilder {
            classes: Vec::new(),
            methods: Vec::new(),
            fields: Vec::new(),
            field_by_name: HashMap::new(),
            class_by_name: HashMap::new(),
            entry_config: EntryPointConfig::default(),
            patches: Vec::new(),
            duplicate_class: None,
            duplicate_method: None,
        };
        let star = b.field("*");
        debug_assert_eq!(star, crate::ids::ARRAY_FIELD);
        b.add_class(ARRAY_CLASS_NAME, None);
        b.add_class(HANDLE_CLASS_NAME, None);
        b.add_class(EXTERNAL_CLASS_NAME, None);
        b
    }

    /// Mutable access to the entry-point recognition rules.
    pub fn entry_config_mut(&mut self) -> &mut EntryPointConfig {
        &mut self.entry_config
    }

    /// Adds a class. Duplicate names are reported by [`Self::finish`].
    pub fn add_class(&mut self, name: impl Into<String>, superclass: Option<ClassId>) -> ClassId {
        let name = name.into();
        let id = ClassId::from_usize(self.classes.len());
        if self.class_by_name.insert(name.clone(), id).is_some() && self.duplicate_class.is_none() {
            self.duplicate_class = Some(name.clone());
        }
        self.classes.push(Class {
            name,
            superclass,
            interfaces: Vec::new(),
            methods: Vec::new(),
        });
        id
    }

    /// Adds a class extending a named superclass.
    ///
    /// # Panics
    ///
    /// Panics if the superclass has not been added yet.
    pub fn add_class_extending(&mut self, name: impl Into<String>, superclass: &str) -> ClassId {
        let sup = self
            .class_by_name
            .get(superclass)
            .copied()
            .unwrap_or_else(|| panic!("unknown superclass {superclass}"));
        self.add_class(name, Some(sup))
    }

    /// Records a marker interface on a class (informational only; origin
    /// classes are recognized by their entry-point methods).
    pub fn add_interface(&mut self, class: ClassId, name: impl Into<String>) {
        self.classes[class.index()].interfaces.push(name.into());
    }

    /// Sets (or patches) the superclass of `class`. Used by the parser,
    /// which registers all classes before resolving `extends` clauses.
    pub fn set_superclass(&mut self, class: ClassId, superclass: Option<ClassId>) {
        self.classes[class.index()].superclass = superclass;
    }

    /// Interns a field name.
    pub fn field(&mut self, name: impl AsRef<str>) -> FieldId {
        let name = name.as_ref();
        if let Some(&id) = self.field_by_name.get(name) {
            return id;
        }
        let id = FieldId::from_usize(self.fields.len());
        self.fields.push(name.to_string());
        self.field_by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up a class id by name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// Starts building an instance method. Parameter variables are created
    /// after `this`.
    pub fn begin_method<'p>(
        &'p mut self,
        class: ClassId,
        name: &str,
        params: &[&str],
    ) -> MethodBuilder<'p> {
        MethodBuilder::new(self, class, name, params, false)
    }

    /// Starts building a static method (no `this`).
    pub fn begin_static_method<'p>(
        &'p mut self,
        class: ClassId,
        name: &str,
        params: &[&str],
    ) -> MethodBuilder<'p> {
        MethodBuilder::new(self, class, name, params, true)
    }

    /// Finishes the program: resolves direct-call patches, locates `main`,
    /// and returns the immutable [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for duplicate classes/methods, unresolved
    /// direct-call targets, or a missing `main`.
    pub fn finish(mut self) -> Result<Program, BuildError> {
        if let Some(name) = self.duplicate_class.take() {
            return Err(BuildError::DuplicateClass(name));
        }
        if let Some((cls, sel)) = self.duplicate_method.take() {
            return Err(BuildError::DuplicateMethod(cls, sel));
        }
        // Resolve direct-call / spawn targets now that all methods exist.
        let patches = std::mem::take(&mut self.patches);
        for p in patches {
            let class_id = self
                .class_by_name
                .get(&p.class)
                .copied()
                .ok_or_else(|| BuildError::UnknownClass(p.class.clone()))?;
            let target = self
                .lookup_method(class_id, &Selector::new(p.target.clone(), p.arity))
                .ok_or(BuildError::UnresolvedMethod {
                    class: p.class.clone(),
                    method: p.target.clone(),
                    arity: p.arity,
                })?;
            let instr = &mut self.methods[p.method.index()].body[p.stmt_index];
            match &mut instr.stmt {
                Stmt::Call { callee, .. } if !p.is_spawn => {
                    *callee = Callee::Static { method: target };
                }
                Stmt::Spawn { entry, .. } if p.is_spawn => {
                    *entry = target;
                }
                other => unreachable!("patch target mismatch: {other:?}"),
            }
        }
        // Locate main: a static method named `main` with zero parameters.
        let main = self
            .methods
            .iter()
            .position(|m| m.is_static && m.name == "main" && m.num_params == 0)
            .map(MethodId::from_usize)
            .ok_or(BuildError::NoMain)?;
        Ok(Program {
            classes: self.classes,
            methods: self.methods,
            fields: self.fields,
            main,
            entry_config: self.entry_config,
            class_by_name: self.class_by_name,
            field_by_name: self.field_by_name,
        })
    }

    fn lookup_method(&self, class: ClassId, sel: &Selector) -> Option<MethodId> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(m) = self.classes[c.index()].local_method(sel) {
                return Some(m);
            }
            cur = self.classes[c.index()].superclass;
        }
        None
    }
}

/// Builder for a single method body; obtained from
/// [`ProgramBuilder::begin_method`] / [`ProgramBuilder::begin_static_method`].
///
/// Variables are referred to by name and interned on first use. `this` is
/// pre-registered for instance methods.
#[derive(Debug)]
pub struct MethodBuilder<'p> {
    pb: &'p mut ProgramBuilder,
    class: ClassId,
    name: String,
    num_params: usize,
    is_static: bool,
    is_synchronized: bool,
    suppress_races: bool,
    vars: HashMap<String, VarId>,
    var_names: Vec<String>,
    body: Vec<Instr>,
    loop_depth: u32,
    line: u32,
    patches: Vec<Patch>,
}

impl<'p> MethodBuilder<'p> {
    fn new(
        pb: &'p mut ProgramBuilder,
        class: ClassId,
        name: &str,
        params: &[&str],
        is_static: bool,
    ) -> Self {
        let mut mb = MethodBuilder {
            pb,
            class,
            name: name.to_string(),
            num_params: params.len(),
            is_static,
            is_synchronized: false,
            suppress_races: false,
            vars: HashMap::new(),
            var_names: Vec::new(),
            body: Vec::new(),
            loop_depth: 0,
            line: 0,
            patches: Vec::new(),
        };
        if !is_static {
            mb.var("this");
        }
        for p in params {
            mb.var(p);
        }
        mb
    }

    /// Marks the whole method as synchronized on `this`.
    pub fn synchronized(&mut self) -> &mut Self {
        self.is_synchronized = true;
        self
    }

    /// Marks the method as `@suppress(race)`: races involving its accesses
    /// are reported in the suppressed list instead of the main report.
    pub fn suppress_races(&mut self) -> &mut Self {
        self.suppress_races = true;
        self
    }

    /// Sets the source line recorded on subsequently emitted statements.
    pub fn at_line(&mut self, line: u32) -> &mut Self {
        self.line = line;
        self
    }

    /// Returns `true` if `name` is a registered class — parsers use this
    /// to report unknown classes as errors instead of panicking in
    /// [`Self::new_obj`] / the static access emitters.
    pub fn class_exists(&self, name: &str) -> bool {
        self.pb.class_id(name).is_some()
    }

    /// Interns a variable name, creating it on first use.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.vars.get(name) {
            return v;
        }
        let v = VarId::from_usize(self.var_names.len());
        self.vars.insert(name.to_string(), v);
        self.var_names.push(name.to_string());
        v
    }

    fn emit(&mut self, stmt: Stmt) -> usize {
        let idx = self.body.len();
        self.body.push(Instr {
            stmt,
            in_loop: self.loop_depth > 0,
            line: self.line,
        });
        idx
    }

    /// Emits `dst = new class(args)`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is unknown (classes must be added before use; only
    /// direct-call *targets* may be forward references).
    pub fn new_obj(&mut self, dst: &str, class: &str, args: &[&str]) -> &mut Self {
        let class_id = self
            .pb
            .class_id(class)
            .unwrap_or_else(|| panic!("unknown class {class}"));
        let dst = self.var(dst);
        let args = args.iter().map(|a| self.var(a)).collect();
        self.emit(Stmt::New {
            dst,
            class: class_id,
            args,
        });
        self
    }

    /// Emits `dst = new T[..]`.
    pub fn new_array(&mut self, dst: &str) -> &mut Self {
        let dst = self.var(dst);
        self.emit(Stmt::NewArray { dst });
        self
    }

    /// Emits `dst = src`.
    pub fn assign(&mut self, dst: &str, src: &str) -> &mut Self {
        let dst = self.var(dst);
        let src = self.var(src);
        self.emit(Stmt::Assign { dst, src });
        self
    }

    /// Emits `base.field = src`.
    pub fn store(&mut self, base: &str, field: &str, src: &str) -> &mut Self {
        let field = self.pb.field(field);
        let base = self.var(base);
        let src = self.var(src);
        self.emit(Stmt::StoreField { base, field, src });
        self
    }

    /// Emits `dst = base.field`. With `dst = None` the loaded value is
    /// discarded (a pure read, still a memory access).
    pub fn load(&mut self, dst: Option<&str>, base: &str, field: &str) -> &mut Self {
        let field = self.pb.field(field);
        let base = self.var(base);
        let dst = match dst {
            Some(d) => self.var(d),
            None => self.fresh_sink(),
        };
        self.emit(Stmt::LoadField { dst, base, field });
        self
    }

    /// Emits an atomic store `atomic base.field = src`.
    pub fn store_atomic(&mut self, base: &str, field: &str, src: &str) -> &mut Self {
        let field = self.pb.field(field);
        let base = self.var(base);
        let src = self.var(src);
        self.emit(Stmt::AtomicStore { base, field, src });
        self
    }

    /// Emits an atomic load `dst = atomic base.field`.
    pub fn load_atomic(&mut self, dst: Option<&str>, base: &str, field: &str) -> &mut Self {
        let field = self.pb.field(field);
        let base = self.var(base);
        let dst = match dst {
            Some(d) => self.var(d),
            None => self.fresh_sink(),
        };
        self.emit(Stmt::AtomicLoad { dst, base, field });
        self
    }

    /// Emits `base[*] = src`.
    pub fn store_array(&mut self, base: &str, src: &str) -> &mut Self {
        let base = self.var(base);
        let src = self.var(src);
        self.emit(Stmt::StoreArray { base, src });
        self
    }

    /// Emits `dst = base[*]`.
    pub fn load_array(&mut self, dst: Option<&str>, base: &str) -> &mut Self {
        let base = self.var(base);
        let dst = match dst {
            Some(d) => self.var(d),
            None => self.fresh_sink(),
        };
        self.emit(Stmt::LoadArray { dst, base });
        self
    }

    /// Emits `class.field = src` (static store).
    ///
    /// # Panics
    ///
    /// Panics if `class` is unknown.
    pub fn store_static(&mut self, class: &str, field: &str, src: &str) -> &mut Self {
        let class_id = self
            .pb
            .class_id(class)
            .unwrap_or_else(|| panic!("unknown class {class}"));
        let field = self.pb.field(field);
        let src = self.var(src);
        self.emit(Stmt::StoreStatic {
            class: class_id,
            field,
            src,
        });
        self
    }

    /// Emits `dst = class.field` (static load).
    ///
    /// # Panics
    ///
    /// Panics if `class` is unknown.
    pub fn load_static(&mut self, dst: Option<&str>, class: &str, field: &str) -> &mut Self {
        let class_id = self
            .pb
            .class_id(class)
            .unwrap_or_else(|| panic!("unknown class {class}"));
        let field = self.pb.field(field);
        let dst = match dst {
            Some(d) => self.var(d),
            None => self.fresh_sink(),
        };
        self.emit(Stmt::LoadStatic {
            dst,
            class: class_id,
            field,
        });
        self
    }

    /// Emits a virtual call `dst = recv.name(args)`.
    pub fn call(&mut self, dst: Option<&str>, recv: &str, name: &str, args: &[&str]) -> &mut Self {
        let recv = self.var(recv);
        let dst = dst.map(|d| self.var(d));
        let args = args.iter().map(|a| self.var(a)).collect();
        self.emit(Stmt::Call {
            dst,
            callee: Callee::Virtual {
                recv,
                name: name.to_string(),
            },
            args,
        });
        self
    }

    /// Emits a direct (static) call `dst = class::name(args)`. The target
    /// may be a forward reference; it is resolved at
    /// [`ProgramBuilder::finish`].
    pub fn call_static(
        &mut self,
        dst: Option<&str>,
        class: &str,
        name: &str,
        args: &[&str],
    ) -> &mut Self {
        let dst = dst.map(|d| self.var(d));
        let args: Vec<VarId> = args.iter().map(|a| self.var(a)).collect();
        let arity = args.len();
        let idx = self.emit(Stmt::Call {
            dst,
            callee: Callee::Static {
                method: MethodId(u32::MAX),
            },
            args,
        });
        self.patches.push(Patch {
            method: MethodId(u32::MAX), // fixed up in finish()
            stmt_index: idx,
            class: class.to_string(),
            target: name.to_string(),
            arity,
            is_spawn: false,
        });
        self
    }

    /// Emits a direct origin spawn (`pthread_create` style) of
    /// `class::name(args)` with `kind`, binding an optional joinable handle.
    pub fn spawn(
        &mut self,
        dst: Option<&str>,
        class: &str,
        name: &str,
        args: &[&str],
        kind: OriginKind,
    ) -> &mut Self {
        self.spawn_replicated(dst, class, name, args, kind, 1)
    }

    /// Like [`Self::spawn`] but models `replicas` concurrent instances of
    /// the origin (the Linux evaluation uses two per system call).
    pub fn spawn_replicated(
        &mut self,
        dst: Option<&str>,
        class: &str,
        name: &str,
        args: &[&str],
        kind: OriginKind,
        replicas: u8,
    ) -> &mut Self {
        assert!(replicas >= 1, "replicas must be at least 1");
        let dst = dst.map(|d| self.var(d));
        let args: Vec<VarId> = args.iter().map(|a| self.var(a)).collect();
        let arity = args.len();
        let idx = self.emit(Stmt::Spawn {
            dst,
            entry: MethodId(u32::MAX),
            args,
            kind,
            replicas,
        });
        self.patches.push(Patch {
            method: MethodId(u32::MAX),
            stmt_index: idx,
            class: class.to_string(),
            target: name.to_string(),
            arity,
            is_spawn: true,
        });
        self
    }

    /// Emits a `synchronized (lock) { body }` block.
    pub fn sync(&mut self, lock: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.sync_open(lock);
        body(self);
        self.sync_close(lock);
        self
    }

    /// Emits the `MonitorEnter` half of a sync block. Prefer [`Self::sync`];
    /// this exists for non-nesting callers such as the parser.
    pub fn sync_open(&mut self, lock: &str) -> &mut Self {
        let var = self.var(lock);
        self.emit(Stmt::MonitorEnter { var });
        self
    }

    /// Emits the `MonitorExit` half of a sync block.
    pub fn sync_close(&mut self, lock: &str) -> &mut Self {
        let var = self.var(lock);
        self.emit(Stmt::MonitorExit { var });
        self
    }

    /// Emits a `rwlock(lock).read { body }` region: a reader-writer lock
    /// held in shared (read) mode around `body`.
    pub fn rw_read(&mut self, lock: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.rw_open(lock, RwMode::Read);
        body(self);
        self.rw_close(lock);
        self
    }

    /// Emits a `rwlock(lock).write { body }` region: a reader-writer lock
    /// held in exclusive (write) mode around `body`.
    pub fn rw_write(&mut self, lock: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.rw_open(lock, RwMode::Write);
        body(self);
        self.rw_close(lock);
        self
    }

    /// Emits the `RwEnter` half of a reader-writer region. Prefer
    /// [`Self::rw_read`] / [`Self::rw_write`]; this exists for non-nesting
    /// callers such as the parser.
    pub fn rw_open(&mut self, lock: &str, mode: RwMode) -> &mut Self {
        let var = self.var(lock);
        self.emit(Stmt::RwEnter { var, mode });
        self
    }

    /// Emits the `RwExit` half of a reader-writer region.
    pub fn rw_close(&mut self, lock: &str) -> &mut Self {
        let var = self.var(lock);
        self.emit(Stmt::RwExit { var });
        self
    }

    /// Emits `wait (cond, lock);` — a condition-variable wait that releases
    /// and reacquires `lock`. `lock` must be held at this point.
    pub fn wait(&mut self, cond: &str, lock: &str) -> &mut Self {
        let cond = self.var(cond);
        let lock = self.var(lock);
        self.emit(Stmt::Wait { cond, lock });
        self
    }

    /// Emits `notify cond;` (`all = false`) or `notifyall cond;`
    /// (`all = true`).
    pub fn notify(&mut self, cond: &str, all: bool) -> &mut Self {
        let cond = self.var(cond);
        self.emit(Stmt::Notify { cond, all });
        self
    }

    /// Emits `await;` — an async-task suspension point.
    pub fn await_point(&mut self) -> &mut Self {
        self.emit(Stmt::Await);
        self
    }

    /// Emits a loop body: statements inside are flagged [`Instr::in_loop`],
    /// which doubles origin allocations (§3.2).
    pub fn loop_body(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.loop_open();
        body(self);
        self.loop_close();
        self
    }

    /// Enters a loop scope. Prefer [`Self::loop_body`].
    pub fn loop_open(&mut self) -> &mut Self {
        self.loop_depth += 1;
        self
    }

    /// Leaves a loop scope.
    ///
    /// # Panics
    ///
    /// Panics if not inside a loop scope.
    pub fn loop_close(&mut self) -> &mut Self {
        assert!(self.loop_depth > 0, "loop_close without loop_open");
        self.loop_depth -= 1;
        self
    }

    /// Emits `recv.join()`.
    pub fn join(&mut self, recv: &str) -> &mut Self {
        let recv = self.var(recv);
        self.emit(Stmt::Join { recv });
        self
    }

    /// Emits `return src;`.
    pub fn ret(&mut self, src: Option<&str>) -> &mut Self {
        let src = src.map(|s| self.var(s));
        self.emit(Stmt::Return { src });
        self
    }

    fn fresh_sink(&mut self) -> VarId {
        let name = format!("$sink{}", self.var_names.len());
        self.var(&name)
    }

    /// Commits the method to the program and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the class already defines a method with the same selector.
    pub fn finish(self) -> MethodId {
        let id = MethodId::from_usize(self.pb.methods.len());
        let sel = Selector::new(self.name.clone(), self.num_params);
        let class = &mut self.pb.classes[self.class.index()];
        if class.local_method(&sel).is_some() && self.pb.duplicate_method.is_none() {
            // Recorded and surfaced by `ProgramBuilder::finish` so the
            // textual frontends report an error instead of panicking.
            let cls_name = class.name.clone();
            self.pb.duplicate_method = Some((cls_name, sel.clone()));
        }
        class.methods.push((sel, id));
        self.pb.methods.push(Method {
            name: self.name,
            class: self.class,
            num_params: self.num_params,
            is_static: self.is_static,
            is_synchronized: self.is_synchronized,
            suppress_races: self.suppress_races,
            num_vars: self.var_names.len(),
            var_names: self.var_names,
            body: self.body,
        });
        for mut p in self.patches {
            p.method = id;
            self.pb.patches.push(p);
        }
        id
    }
}

/// Convenience constructor for constructors: `pb.begin_ctor(cls, &["a"])` is
/// `pb.begin_method(cls, "<init>", &["a"])`.
impl ProgramBuilder {
    /// Starts building the constructor of `class`.
    pub fn begin_ctor<'p>(&'p mut self, class: ClassId, params: &[&str]) -> MethodBuilder<'p> {
        self.begin_method(class, CTOR_NAME, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Stmt;

    fn tiny() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        {
            let mut m = pb.begin_static_method(c, "helper", &["a"]);
            m.ret(Some("a"));
            m.finish();
        }
        {
            let mut m = pb.begin_static_method(c, "main", &[]);
            m.new_obj("x", "C", &[]);
            m.call_static(Some("y"), "C", "helper", &["x"]);
            m.finish();
        }
        pb.finish().unwrap()
    }

    #[test]
    fn builds_and_resolves_forward_call() {
        let p = tiny();
        let main = p.method(p.main);
        match &main.body[1].stmt {
            Stmt::Call {
                callee: Callee::Static { method },
                ..
            } => {
                assert_eq!(p.method(*method).name, "helper");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_main_is_error() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        pb.begin_method(c, "run", &[]).finish();
        assert_eq!(pb.finish().unwrap_err(), BuildError::NoMain);
    }

    #[test]
    fn unresolved_target_is_error() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        {
            let mut m = pb.begin_static_method(c, "main", &[]);
            m.call_static(None, "C", "nope", &[]);
            m.finish();
        }
        assert!(matches!(
            pb.finish().unwrap_err(),
            BuildError::UnresolvedMethod { .. }
        ));
    }

    #[test]
    fn duplicate_class_is_error() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        pb.add_class("C", None);
        pb.begin_static_method(c, "main", &[]).finish();
        assert_eq!(
            pb.finish().unwrap_err(),
            BuildError::DuplicateClass("C".to_string())
        );
    }

    #[test]
    fn loop_flag_and_sync_blocks() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        {
            let mut m = pb.begin_static_method(c, "main", &[]);
            m.new_obj("l", "C", &[]);
            m.loop_body(|m| {
                m.new_obj("t", "C", &[]);
            });
            m.sync("l", |m| {
                m.store("l", "f", "l");
            });
            m.finish();
        }
        let p = pb.finish().unwrap();
        let body = &p.method(p.main).body;
        assert!(!body[0].in_loop);
        assert!(body[1].in_loop);
        assert!(matches!(body[2].stmt, Stmt::MonitorEnter { .. }));
        assert!(matches!(body[4].stmt, Stmt::MonitorExit { .. }));
    }

    #[test]
    fn dispatch_walks_superclass_chain() {
        let mut pb = ProgramBuilder::new();
        let base = pb.add_class("Base", None);
        pb.begin_method(base, "run", &[]).finish();
        let _sub = pb.add_class_extending("Sub", "Base");
        let c = pb.add_class("Main", None);
        pb.begin_static_method(c, "main", &[]).finish();
        let p = pb.finish().unwrap();
        let sub = p.class_by_name("Sub").unwrap();
        let run = p.dispatch(sub, &Selector::new("run", 0)).unwrap();
        assert_eq!(p.method(run).class, base);
        assert!(p.is_origin_class(sub));
        assert!(p.is_subclass(sub, base));
        assert!(!p.is_subclass(base, sub));
    }

    #[test]
    fn param_and_this_vars() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None);
        let m = pb.begin_method(c, "f", &["a", "b"]).finish();
        pb.begin_static_method(c, "main", &[]).finish();
        let p = pb.finish().unwrap();
        let m = p.method(m);
        assert_eq!(m.this_var(), Some(VarId(0)));
        assert_eq!(m.param_var(0), VarId(1));
        assert_eq!(m.param_var(1), VarId(2));
        assert_eq!(m.var_names[0], "this");
    }
}
