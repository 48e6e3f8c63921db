//! Per-function structural digests and the digest diff between two
//! program versions.
//!
//! Every method body is hashed into a 128-bit content [`Digest`] over a
//! *name-based* canonical form: classes and fields appear by name, direct
//! call targets by qualified name, so the digest of a function is
//! identical across two parses even though the dense `ClassId`/`FieldId`
//! numbering may differ. `diff-analyze` lists the functions whose body
//! digest changed between two versions, and the whole-program digest
//! keys the rendered-report cache.

use crate::ids::MethodId;
use crate::origins::OriginKind;
use crate::program::{Callee, Method, Program, Stmt};
use o2_db::{Digest, DigestHasher};
use std::collections::BTreeMap;

/// Hashes an origin kind.
fn write_kind(h: &mut DigestHasher, kind: OriginKind) {
    match kind {
        OriginKind::Main => h.write_u8(0),
        OriginKind::Thread => h.write_u8(1),
        OriginKind::Event { dispatcher } => {
            h.write_u8(2);
            h.write_u32(u32::from(dispatcher));
        }
        OriginKind::Syscall => h.write_u8(3),
        OriginKind::KernelThread => h.write_u8(4),
        OriginKind::Interrupt => h.write_u8(5),
        OriginKind::AsyncTask { executor, workers } => {
            h.write_u8(6);
            h.write_u32(u32::from(executor));
            h.write_u8(workers);
        }
    }
}

/// Computes the structural digest of one method body in name-based
/// canonical form. Source lines are included: they feed the report
/// labels, so two methods differing only in line numbers must not share
/// a digest.
pub fn fn_digest(program: &Program, id: MethodId) -> Digest {
    let m: &Method = program.method(id);
    // v2: adds RwEnter/RwExit/Wait/Notify/Await statement tags and the
    // AsyncTask origin kind; bumped so program digests from older
    // semantics can never match.
    let mut h = DigestHasher::with_tag("o2.fn.v2");
    h.write_str(&program.class(m.class).name);
    h.write_str(&m.name);
    h.write_u64(m.num_params as u64);
    h.write_bool(m.is_static);
    h.write_bool(m.is_synchronized);
    h.write_bool(m.suppress_races);
    h.write_u64(m.num_vars as u64);
    for v in &m.var_names {
        h.write_str(v);
    }
    h.write_u64(m.body.len() as u64);
    for instr in &m.body {
        h.write_bool(instr.in_loop);
        h.write_u32(instr.line);
        match &instr.stmt {
            Stmt::New { dst, class, args } => {
                h.write_u8(10);
                h.write_u32(dst.0);
                h.write_str(&program.class(*class).name);
                h.write_u64(args.len() as u64);
                for a in args {
                    h.write_u32(a.0);
                }
            }
            Stmt::NewArray { dst } => {
                h.write_u8(11);
                h.write_u32(dst.0);
            }
            Stmt::Assign { dst, src } => {
                h.write_u8(12);
                h.write_u32(dst.0);
                h.write_u32(src.0);
            }
            Stmt::StoreField { base, field, src } => {
                h.write_u8(13);
                h.write_u32(base.0);
                h.write_str(program.field_name(*field));
                h.write_u32(src.0);
            }
            Stmt::LoadField { dst, base, field } => {
                h.write_u8(14);
                h.write_u32(dst.0);
                h.write_u32(base.0);
                h.write_str(program.field_name(*field));
            }
            Stmt::AtomicStore { base, field, src } => {
                h.write_u8(15);
                h.write_u32(base.0);
                h.write_str(program.field_name(*field));
                h.write_u32(src.0);
            }
            Stmt::AtomicLoad { dst, base, field } => {
                h.write_u8(16);
                h.write_u32(dst.0);
                h.write_u32(base.0);
                h.write_str(program.field_name(*field));
            }
            Stmt::StoreArray { base, src } => {
                h.write_u8(17);
                h.write_u32(base.0);
                h.write_u32(src.0);
            }
            Stmt::LoadArray { dst, base } => {
                h.write_u8(18);
                h.write_u32(dst.0);
                h.write_u32(base.0);
            }
            Stmt::StoreStatic { class, field, src } => {
                h.write_u8(19);
                h.write_str(&program.class(*class).name);
                h.write_str(program.field_name(*field));
                h.write_u32(src.0);
            }
            Stmt::LoadStatic { dst, class, field } => {
                h.write_u8(20);
                h.write_u32(dst.0);
                h.write_str(&program.class(*class).name);
                h.write_str(program.field_name(*field));
            }
            Stmt::Call { dst, callee, args } => {
                h.write_u8(21);
                match dst {
                    None => h.write_u8(0),
                    Some(d) => {
                        h.write_u8(1);
                        h.write_u32(d.0);
                    }
                }
                match callee {
                    Callee::Virtual { recv, name } => {
                        h.write_u8(0);
                        h.write_u32(recv.0);
                        h.write_str(name);
                    }
                    Callee::Static { method } => {
                        h.write_u8(1);
                        h.write_str(&program.method_qname(*method));
                    }
                }
                h.write_u64(args.len() as u64);
                for a in args {
                    h.write_u32(a.0);
                }
            }
            Stmt::Spawn {
                dst,
                entry,
                args,
                kind,
                replicas,
            } => {
                h.write_u8(22);
                match dst {
                    None => h.write_u8(0),
                    Some(d) => {
                        h.write_u8(1);
                        h.write_u32(d.0);
                    }
                }
                h.write_str(&program.method_qname(*entry));
                h.write_u64(args.len() as u64);
                for a in args {
                    h.write_u32(a.0);
                }
                write_kind(&mut h, *kind);
                h.write_u8(*replicas);
            }
            Stmt::MonitorEnter { var } => {
                h.write_u8(23);
                h.write_u32(var.0);
            }
            Stmt::MonitorExit { var } => {
                h.write_u8(24);
                h.write_u32(var.0);
            }
            Stmt::Join { recv } => {
                h.write_u8(25);
                h.write_u32(recv.0);
            }
            Stmt::Return { src } => {
                h.write_u8(26);
                match src {
                    None => h.write_u8(0),
                    Some(s) => {
                        h.write_u8(1);
                        h.write_u32(s.0);
                    }
                }
            }
            Stmt::RwEnter { var, mode } => {
                h.write_u8(27);
                h.write_u32(var.0);
                h.write_u8(match mode {
                    crate::program::RwMode::Read => 0,
                    crate::program::RwMode::Write => 1,
                });
            }
            Stmt::RwExit { var } => {
                h.write_u8(28);
                h.write_u32(var.0);
            }
            Stmt::Wait { cond, lock } => {
                h.write_u8(29);
                h.write_u32(cond.0);
                h.write_u32(lock.0);
            }
            Stmt::Notify { cond, all } => {
                h.write_u8(30);
                h.write_u32(cond.0);
                h.write_bool(*all);
            }
            Stmt::Await => {
                h.write_u8(31);
            }
        }
    }
    h.finish()
}

/// The digest tables of one program version.
#[derive(Clone, Debug)]
pub struct ProgramDigests {
    /// Whole-program digest: every class, method, field, and the entry
    /// configuration, in table order (table order determines dense id
    /// numbering, which downstream iteration orders depend on).
    pub program: Digest,
    /// Body digests by qualified name.
    pub fns: BTreeMap<String, Digest>,
}

/// Computes every digest table of `program`.
pub fn digest_program(program: &Program) -> ProgramDigests {
    let n = program.methods.len();
    let mut by_method = Vec::with_capacity(n);
    let mut qnames = Vec::with_capacity(n);
    for i in 0..n {
        let id = MethodId::from_usize(i);
        by_method.push(fn_digest(program, id));
        qnames.push(program.method_qname(id));
    }

    let mut h = DigestHasher::with_tag("o2.program.v1");
    h.write_u64(program.classes.len() as u64);
    for c in &program.classes {
        h.write_str(&c.name);
        match &c.superclass {
            None => h.write_u8(0),
            Some(s) => {
                h.write_u8(1);
                h.write_str(&program.class(*s).name);
            }
        }
        h.write_u64(c.interfaces.len() as u64);
        for i in &c.interfaces {
            h.write_str(i);
        }
        h.write_u64(c.methods.len() as u64);
        for (sel, m) in &c.methods {
            h.write_str(&sel.name);
            h.write_u64(sel.arity as u64);
            h.write_str(&qnames[m.index()]);
        }
    }
    h.write_u64(program.fields.len() as u64);
    for f in &program.fields {
        h.write_str(f);
    }
    h.write_str(&qnames[program.main.index()]);
    let ec = &program.entry_config;
    h.write_u64(ec.thread_entries.len() as u64);
    for e in &ec.thread_entries {
        h.write_str(e);
    }
    h.write_u64(ec.event_entries.len() as u64);
    for (name, d) in &ec.event_entries {
        h.write_str(name);
        h.write_u32(u32::from(*d));
    }
    h.write_u64(ec.entry_prefixes.len() as u64);
    for (p, kind) in &ec.entry_prefixes {
        h.write_str(p);
        write_kind(&mut h, *kind);
    }
    h.write_bool(ec.start_spawns_entry);
    h.write_u64(n as u64);
    for d in &by_method {
        h.write_digest(*d);
    }

    ProgramDigests {
        program: h.finish(),
        fns: qnames.into_iter().zip(by_method).collect(),
    }
}

/// The difference between two digested program versions.
#[derive(Clone, Debug, Default)]
pub struct DigestDiff {
    /// Methods present in both versions with different body digests.
    pub changed: Vec<String>,
    /// Methods only in the new version.
    pub added: Vec<String>,
    /// Methods only in the old version.
    pub removed: Vec<String>,
}

impl DigestDiff {
    /// `true` if the two versions are digest-identical.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} changed, {} added, {} removed",
            self.changed.len(),
            self.added.len(),
            self.removed.len()
        )
    }
}

/// Diffs two digested versions of a program.
pub fn digest_diff(old: &ProgramDigests, new: &ProgramDigests) -> DigestDiff {
    let mut diff = DigestDiff::default();
    for (name, d) in &new.fns {
        match old.fns.get(name) {
            None => diff.added.push(name.clone()),
            Some(od) if od != d => diff.changed.push(name.clone()),
            Some(_) => {}
        }
    }
    for name in old.fns.keys() {
        if !new.fns.contains_key(name) {
            diff.removed.push(name.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const BASE: &str = r#"
        class S { field f; }
        class W impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { x = this.s; x.f = x; this.helper(x); }
            method helper(x) { y = x.f; }
        }
        class Main {
            static method main() {
                s = new S();
                w = new W(s);
                w.start();
            }
        }
    "#;

    #[test]
    fn digests_stable_across_reparses() {
        let a = digest_program(&parse(BASE).unwrap());
        let b = digest_program(&parse(BASE).unwrap());
        assert_eq!(a.program, b.program);
        assert_eq!(a.fns, b.fns);
    }

    #[test]
    fn body_edit_changes_exactly_that_fn_digest() {
        let edited = BASE.replace("y = x.f;", "y = x.f; z = x.f;");
        let old = digest_program(&parse(BASE).unwrap());
        let new = digest_program(&parse(&edited).unwrap());
        let diff = digest_diff(&old, &new);
        assert_eq!(diff.changed, vec!["W.helper/1".to_string()]);
        assert!(diff.added.is_empty() && diff.removed.is_empty());
        assert_ne!(old.program, new.program);
    }

    #[test]
    fn line_numbers_are_part_of_the_digest() {
        let shifted = format!("\n\n{BASE}");
        let old = digest_program(&parse(BASE).unwrap());
        let new = digest_program(&parse(&shifted).unwrap());
        assert!(!digest_diff(&old, &new).is_empty());
    }

    #[test]
    fn identical_versions_diff_empty() {
        let d = digest_program(&parse(BASE).unwrap());
        let diff = digest_diff(&d, &d);
        assert!(diff.is_empty());
        assert_eq!(diff.summary(), "0 changed, 0 added, 0 removed");
    }

    #[test]
    fn added_and_removed_methods_reported() {
        let extended = BASE.replace(
            "method helper(x) { y = x.f; }",
            "method helper(x) { y = x.f; }\n method extra() { }",
        );
        let old = digest_program(&parse(BASE).unwrap());
        let new = digest_program(&parse(&extended).unwrap());
        let diff = digest_diff(&old, &new);
        assert_eq!(diff.added, vec!["W.extra/0".to_string()]);
        let back = digest_diff(&new, &old);
        assert_eq!(back.removed, vec!["W.extra/0".to_string()]);
    }

    /// Every new synchronization statement kind must feed the function
    /// digest: swapping one for another (or dropping it) changes the
    /// containing function's digest, so warm runs invalidate correctly.
    #[test]
    fn sync_statement_kinds_are_digested() {
        let template = |body: &str| {
            format!(
                r#"
                class S {{ field f; }}
                class Cond {{ }}
                class K {{
                    static method work(s, m, c) {{ {body} }}
                }}
                class Main {{
                    static method main() {{
                        s = new S();
                        m = new Cond();
                        c = new Cond();
                        spawn thread K::work(s, m, c);
                    }}
                }}
            "#
            )
        };
        let variants = [
            "rwread (s) { x = s.f; }",
            "rwwrite (s) { x = s.f; }",
            "sync (s) { x = s.f; }",
            "sync (m) { wait (c, m); } x = s.f;",
            "sync (m) { notify c; } x = s.f;",
            "sync (m) { notifyall c; } x = s.f;",
            "await; x = s.f;",
            "x = s.f;",
        ];
        let digests: Vec<_> = variants
            .iter()
            .map(|body| {
                let p = parse(&template(body)).unwrap();
                crate::validate::assert_valid(&p);
                let d = digest_program(&p);
                d.fns
                    .iter()
                    .find(|(name, _)| name.starts_with("K.work"))
                    .map(|(_, digest)| *digest)
                    .expect("K.work digested")
            })
            .collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(
                    digests[i], digests[j],
                    "`{}` and `{}` must digest differently",
                    variants[i], variants[j]
                );
            }
        }
    }

    /// Executor ids, worker counts, and the task kind itself are part of
    /// the origin signature: changing any of them changes the program
    /// digest.
    #[test]
    fn async_task_spawn_parameters_are_digested() {
        let template = |spawn: &str| {
            format!(
                r#"
                class S {{ field f; }}
                class K {{
                    static method work(s) {{ s.f = s; }}
                }}
                class Main {{
                    static method main() {{
                        s = new S();
                        {spawn}
                    }}
                }}
            "#
            )
        };
        let variants = [
            "spawn task K::work(s);",
            "spawn task(1) K::work(s);",
            "spawn task(0, 4) K::work(s);",
            "spawn thread K::work(s);",
            "spawn event K::work(s);",
        ];
        let digests: Vec<_> = variants
            .iter()
            .map(|spawn| digest_program(&parse(&template(spawn)).unwrap()).program)
            .collect();
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(
                    digests[i], digests[j],
                    "`{}` and `{}` must digest differently",
                    variants[i], variants[j]
                );
            }
        }
    }
}
