//! A C-like frontend: the pthread half of the paper's dual-frontend story.
//!
//! O2 analyzes both Java (via WALA) and C/C++ (via LLVM). This module is
//! the C-shaped surface syntax, lowering onto the same IR that the
//! Java-like [`crate::parser`] targets:
//!
//! - `struct` declarations become classes;
//! - free functions become static methods of a synthetic `CUnit` class;
//! - `global` declarations become static fields of a `Globals` class;
//! - `pthread_create(&t, f, arg)` becomes a thread [`crate::program::Stmt::Spawn`] with a
//!   joinable handle, `pthread_join(t)` a [`crate::program::Stmt::Join`];
//! - `pthread_mutex_lock(m)` / `pthread_mutex_unlock(m)` become monitor
//!   regions;
//! - `pthread_rwlock_rdlock(l)` / `pthread_rwlock_wrlock(l)` /
//!   `pthread_rwlock_unlock(l)` become reader-writer regions
//!   ([`crate::program::Stmt::RwEnter`] / [`crate::program::Stmt::RwExit`]);
//! - `pthread_cond_wait(&c, &m)` becomes [`crate::program::Stmt::Wait`],
//!   `pthread_cond_signal(&c)` / `pthread_cond_broadcast(&c)` become
//!   [`crate::program::Stmt::Notify`];
//! - `dispatch f(arg);` models an event-loop callback registration (an
//!   event origin), and `syscall`/`kthread`/`irq` prefixes on `spawn`-like
//!   forms cover the kernel origin kinds;
//! - `p->f` is a field access, `p[i]` an array access, `malloc(S)` an
//!   allocation.
//!
//! The lexical rules are the text frontend's: `//` and `/* */` comments
//! (an unclosed `/*` is an error at its position), identifiers
//! `[A-Za-z_$][A-Za-z0-9_$]*` and `<init>`-style `<` word `>` names,
//! decimal numbers.
//!
//! ```
//! let program = o2_ir::cfront::parse_c(r#"
//!     struct Slab { any slabs; };
//!     void worker(any sc) {
//!         sc->slabs = sc;
//!     }
//!     void main() {
//!         sc = malloc(Slab);
//!         pthread_create(&t, worker, sc);
//!         pthread_join(t);
//!     }
//! "#).unwrap();
//! assert!(program.class_by_name("Slab").is_some());
//! ```

use crate::builder::{MethodBuilder, ProgramBuilder};
use crate::lex::{Cursor, Tok};
use crate::origins::OriginKind;
use crate::parser::ParseError;
use crate::program::{Program, RwMode};

/// The synthetic class holding all free functions.
pub const C_UNIT_CLASS: &str = "CUnit";
/// The synthetic class holding `global` variables as static fields.
pub const C_GLOBALS_CLASS: &str = "Globals";

/// Parses a C-like translation unit into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line for syntax errors and
/// line 0 for program-level errors (missing `main`, unresolved calls).
pub fn parse_c(src: &str) -> Result<Program, ParseError> {
    let mut p = Cursor::new(src)?;
    let mut pb = ProgramBuilder::new();
    pb.add_class(C_GLOBALS_CLASS, None);
    let cunit = pb.add_class(C_UNIT_CLASS, None);

    // Pre-scan: struct names (for malloc forward references).
    let rest = p.rest();
    for (i, tok) in rest.iter().enumerate() {
        // Only declarations (followed by `{`), not uses.
        if let (Tok::Ident("struct"), Some(&Tok::Ident(name)), Some(Tok::LBrace)) =
            (tok, rest.get(i + 1), rest.get(i + 2))
        {
            pb.add_class(name, None);
        }
    }

    while p.peek().is_some() {
        if p.eat_ident("struct") {
            let name = p.ident()?;
            let _class = pb
                .class_id(name)
                .ok_or_else(|| p.err("struct not pre-registered"))?;
            p.want(Tok::LBrace)?;
            while !matches!(p.peek(), Some(Tok::RBrace)) {
                // `any fieldname;` — untyped field declarations.
                let _ty = p.ident()?;
                let fname = p.ident()?;
                pb.field(fname);
                p.want(Tok::Semi)?;
            }
            p.want(Tok::RBrace)?;
            if matches!(p.peek(), Some(Tok::Semi)) {
                p.next()?;
            }
            continue;
        }
        if p.eat_ident("global") {
            let name = p.ident()?;
            pb.field(name);
            p.want(Tok::Semi)?;
            continue;
        }
        // Function: `void|any name(params) { ... }`
        let ret_ty = p.ident()?;
        if ret_ty != "void" && ret_ty != "any" && ret_ty != "int" {
            return Err(p.err(format!("expected declaration, found `{ret_ty}`")));
        }
        let name = p.ident()?;
        p.want(Tok::LParen)?;
        let mut params = Vec::new();
        while !matches!(p.peek(), Some(Tok::RParen)) {
            // `any x` or bare `x`.
            let first = p.ident()?;
            let pname = if matches!(p.peek(), Some(Tok::Ident(_))) {
                p.ident()?
            } else {
                first
            };
            params.push(pname);
            if matches!(p.peek(), Some(Tok::Comma)) {
                p.next()?;
            }
        }
        p.want(Tok::RParen)?;
        let mut mb = pb.begin_static_method(cunit, name, &params);
        parse_block(&mut p, &mut mb)?;
        mb.finish();
    }
    pb.finish().map_err(ParseError::from)
}

fn parse_block(p: &mut Cursor<'_>, mb: &mut MethodBuilder<'_>) -> Result<(), ParseError> {
    p.open_block()?;
    while !matches!(p.peek(), Some(Tok::RBrace)) {
        parse_stmt(p, mb)?;
    }
    p.close_block()
}

fn parse_args<'a>(p: &mut Cursor<'a>) -> Result<Vec<&'a str>, ParseError> {
    p.want(Tok::LParen)?;
    let mut args = Vec::new();
    while !matches!(p.peek(), Some(Tok::RParen)) {
        if matches!(p.peek(), Some(Tok::Amp)) {
            p.next()?;
        }
        args.push(p.ident()?);
        if matches!(p.peek(), Some(Tok::Comma)) {
            p.next()?;
        }
    }
    p.want(Tok::RParen)?;
    Ok(args)
}

fn parse_stmt(p: &mut Cursor<'_>, mb: &mut MethodBuilder<'_>) -> Result<(), ParseError> {
    mb.at_line(p.line());
    // Control flow is flattened: both branches of `if` and the body of
    // `while`/`for` are included in the static trace; `while`/`for` mark
    // the loop flag for origin doubling.
    if p.eat_ident("if") {
        p.want(Tok::LParen)?;
        let _cond = p.ident()?;
        p.want(Tok::RParen)?;
        parse_block(p, mb)?;
        if p.eat_ident("else") {
            parse_block(p, mb)?;
        }
        return Ok(());
    }
    if p.eat_ident("while") || p.eat_ident("for") {
        p.want(Tok::LParen)?;
        while !matches!(p.peek(), Some(Tok::RParen)) {
            p.next()?;
        }
        p.want(Tok::RParen)?;
        mb.loop_open();
        parse_block(p, mb)?;
        mb.loop_close();
        return Ok(());
    }
    if p.eat_ident("return") {
        let src = if matches!(p.peek(), Some(Tok::Ident(_))) {
            Some(p.ident()?)
        } else {
            None
        };
        p.want(Tok::Semi)?;
        mb.ret(src);
        return Ok(());
    }
    // pthread / event-loop intrinsics.
    if p.eat_ident("pthread_create") {
        p.want(Tok::LParen)?;
        p.want(Tok::Amp)?;
        let handle = p.ident()?;
        p.want(Tok::Comma)?;
        let func = p.ident()?;
        let mut args = Vec::new();
        while matches!(p.peek(), Some(Tok::Comma)) {
            p.next()?;
            args.push(p.ident()?);
        }
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.spawn(Some(handle), C_UNIT_CLASS, func, &args, OriginKind::Thread);
        return Ok(());
    }
    if p.eat_ident("pthread_join") {
        p.want(Tok::LParen)?;
        let h = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.join(h);
        return Ok(());
    }
    if p.eat_ident("pthread_mutex_lock") {
        p.want(Tok::LParen)?;
        if matches!(p.peek(), Some(Tok::Amp)) {
            p.next()?;
        }
        let m = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.sync_open(m);
        return Ok(());
    }
    if p.eat_ident("pthread_mutex_unlock") {
        p.want(Tok::LParen)?;
        if matches!(p.peek(), Some(Tok::Amp)) {
            p.next()?;
        }
        let m = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.sync_close(m);
        return Ok(());
    }
    for (kw, mode) in [
        ("pthread_rwlock_rdlock", RwMode::Read),
        ("pthread_rwlock_wrlock", RwMode::Write),
    ] {
        if p.eat_ident(kw) {
            p.want(Tok::LParen)?;
            if matches!(p.peek(), Some(Tok::Amp)) {
                p.next()?;
            }
            let m = p.ident()?;
            p.want(Tok::RParen)?;
            p.want(Tok::Semi)?;
            mb.rw_open(m, mode);
            return Ok(());
        }
    }
    if p.eat_ident("pthread_rwlock_unlock") {
        p.want(Tok::LParen)?;
        if matches!(p.peek(), Some(Tok::Amp)) {
            p.next()?;
        }
        let m = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.rw_close(m);
        return Ok(());
    }
    if p.eat_ident("pthread_cond_wait") {
        // pthread_cond_wait(c, m) — releases and reacquires m.
        p.want(Tok::LParen)?;
        if matches!(p.peek(), Some(Tok::Amp)) {
            p.next()?;
        }
        let c = p.ident()?;
        p.want(Tok::Comma)?;
        if matches!(p.peek(), Some(Tok::Amp)) {
            p.next()?;
        }
        let m = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.wait(c, m);
        return Ok(());
    }
    for (kw, all) in [
        ("pthread_cond_signal", false),
        ("pthread_cond_broadcast", true),
    ] {
        if p.eat_ident(kw) {
            p.want(Tok::LParen)?;
            if matches!(p.peek(), Some(Tok::Amp)) {
                p.next()?;
            }
            let c = p.ident()?;
            p.want(Tok::RParen)?;
            p.want(Tok::Semi)?;
            mb.notify(c, all);
            return Ok(());
        }
    }
    for (kw, kind) in [
        ("dispatch", OriginKind::Event { dispatcher: 0 }),
        ("spawn_syscall", OriginKind::Syscall),
        ("spawn_kthread", OriginKind::KernelThread),
        ("spawn_irq", OriginKind::Interrupt),
    ] {
        if p.eat_ident(kw) {
            let func = p.ident()?;
            let args = parse_args(p)?;
            let mut replicas = 1u8;
            if matches!(p.peek(), Some(Tok::Star)) {
                p.next()?;
                match p.next()? {
                    Tok::Num(n) if (1..=255).contains(&n) => replicas = n as u8,
                    Tok::Num(_) => return Err(p.err("replica count must be between 1 and 255")),
                    _ => return Err(p.err("expected replica count")),
                }
            }
            p.want(Tok::Semi)?;
            mb.spawn_replicated(None, C_UNIT_CLASS, func, &args, kind, replicas);
            return Ok(());
        }
    }

    if p.eat_ident("global_write") {
        // `global_write(name, v);` — write a global variable.
        p.want(Tok::LParen)?;
        let name = p.ident()?;
        p.want(Tok::Comma)?;
        let v = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.store_static(C_GLOBALS_CLASS, name, v);
        return Ok(());
    }

    // Assignments and calls.
    let first = p.ident()?;
    match p.peek() {
        Some(Tok::Eq) => {
            p.next()?;
            parse_rhs(p, mb, first)?;
            p.want(Tok::Semi)?;
        }
        Some(Tok::Arrow) => {
            p.next()?;
            let field = p.ident()?;
            p.want(Tok::Eq)?;
            let src = p.ident()?;
            p.want(Tok::Semi)?;
            mb.store(first, field, src);
        }
        Some(Tok::LBracket) => {
            p.next()?;
            // Index expressions are ignored (array smashing).
            while !matches!(p.peek(), Some(Tok::RBracket)) {
                p.next()?;
            }
            p.want(Tok::RBracket)?;
            p.want(Tok::Eq)?;
            let src = p.ident()?;
            p.want(Tok::Semi)?;
            mb.store_array(first, src);
        }
        Some(Tok::LParen) => {
            let args = parse_args(p)?;
            p.want(Tok::Semi)?;
            mb.call_static(None, C_UNIT_CLASS, first, &args);
        }
        other => {
            return Err(p.err(format!(
                "unexpected token `{}`",
                other.map(|t| t.to_string()).unwrap_or_default()
            )))
        }
    }
    Ok(())
}

fn parse_rhs(p: &mut Cursor<'_>, mb: &mut MethodBuilder<'_>, dst: &str) -> Result<(), ParseError> {
    if p.eat_ident("malloc") {
        p.want(Tok::LParen)?;
        let struct_name = p.ident()?;
        p.want(Tok::RParen)?;
        if !mb.class_exists(struct_name) {
            return Err(p.err(format!("unknown struct {struct_name}")));
        }
        mb.new_obj(dst, struct_name, &[]);
        return Ok(());
    }
    if p.eat_ident("calloc_array") {
        p.want(Tok::LParen)?;
        while !matches!(p.peek(), Some(Tok::RParen)) {
            p.next()?;
        }
        p.want(Tok::RParen)?;
        mb.new_array(dst);
        return Ok(());
    }
    if p.eat_ident("global_read") {
        // `x = global_read(name);` — read a global variable.
        p.want(Tok::LParen)?;
        let name = p.ident()?;
        p.want(Tok::RParen)?;
        mb.load_static(Some(dst), C_GLOBALS_CLASS, name);
        return Ok(());
    }
    let first = p.ident()?;
    match p.peek() {
        Some(Tok::Arrow) => {
            p.next()?;
            let field = p.ident()?;
            mb.load(Some(dst), first, field);
        }
        Some(Tok::LBracket) => {
            p.next()?;
            while !matches!(p.peek(), Some(Tok::RBracket)) {
                p.next()?;
            }
            p.want(Tok::RBracket)?;
            mb.load_array(Some(dst), first);
        }
        Some(Tok::LParen) => {
            let args = parse_args(p)?;
            mb.call_static(Some(dst), C_UNIT_CLASS, first, &args);
        }
        _ => {
            mb.assign(dst, first);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pthread_program() {
        let src = r#"
            struct Slab { any slabs; };
            void worker(any sc) {
                sc->slabs = sc;
            }
            void main() {
                sc = malloc(Slab);
                pthread_create(&t, worker, sc);
                pthread_join(t);
            }
        "#;
        let p = parse_c(src).unwrap();
        crate::validate::assert_valid(&p);
        assert!(p.class_by_name("Slab").is_some());
        let main = p.method(p.main);
        assert!(main
            .body
            .iter()
            .any(|i| matches!(i.stmt, crate::program::Stmt::Spawn { .. })));
        assert!(main
            .body
            .iter()
            .any(|i| matches!(i.stmt, crate::program::Stmt::Join { .. })));
    }

    #[test]
    fn mutex_lock_regions() {
        let src = r#"
            struct S { any data; };
            global m;
            void f(any s, any m) {
                pthread_mutex_lock(&m);
                s->data = s;
                pthread_mutex_unlock(&m);
            }
            void main() {
                s = malloc(S);
                f(s, s);
            }
        "#;
        let p = parse_c(src).unwrap();
        crate::validate::assert_valid(&p);
        let f = {
            let c = p.class_by_name(C_UNIT_CLASS).unwrap();
            p.dispatch(c, &crate::program::Selector::new("f", 2))
                .unwrap()
        };
        let body = &p.method(f).body;
        assert!(matches!(
            body[0].stmt,
            crate::program::Stmt::MonitorEnter { .. }
        ));
        assert!(matches!(
            body[2].stmt,
            crate::program::Stmt::MonitorExit { .. }
        ));
    }

    #[test]
    fn kernel_origin_kinds() {
        let src = r#"
            struct G { any events; };
            void __x64_sys_read(any b) { b->events = b; }
            void kth(any g) { g->events = g; }
            void irqh(any g) { x = g->events; }
            void main() {
                g = malloc(G);
                spawn_syscall __x64_sys_read(g) * 2;
                spawn_kthread kth(g);
                spawn_irq irqh(g);
            }
        "#;
        let p = parse_c(src).unwrap();
        crate::validate::assert_valid(&p);
        let spawns: Vec<_> = p
            .method(p.main)
            .body
            .iter()
            .filter_map(|i| match &i.stmt {
                crate::program::Stmt::Spawn { kind, replicas, .. } => Some((*kind, *replicas)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spawns,
            vec![
                (OriginKind::Syscall, 2),
                (OriginKind::KernelThread, 1),
                (OriginKind::Interrupt, 1),
            ]
        );
    }

    #[test]
    fn loops_mark_origin_doubling() {
        let src = r#"
            void w(any x) { }
            void main() {
                x = malloc(S);
                while (cond) {
                    pthread_create(&t, w, x);
                }
            }
            struct S { any f; };
        "#;
        let p = parse_c(src).unwrap();
        let spawn_in_loop = p
            .method(p.main)
            .body
            .iter()
            .any(|i| matches!(i.stmt, crate::program::Stmt::Spawn { .. }) && i.in_loop);
        assert!(spawn_in_loop);
    }

    #[test]
    fn comments_and_arrays() {
        let src = r#"
            /* block comment */
            struct B { any buf; };
            void main() {
                b = malloc(B); // line comment
                arr = calloc_array(16);
                arr[0] = b;
                x = arr[1];
            }
        "#;
        let p = parse_c(src).unwrap();
        crate::validate::assert_valid(&p);
        assert!(p
            .method(p.main)
            .body
            .iter()
            .any(|i| matches!(i.stmt, crate::program::Stmt::StoreArray { .. })));
    }

    #[test]
    fn globals_lower_to_statics() {
        let src = r#"
            global stats;
            struct V { any x; };
            void worker(any v) {
                global_write(stats, v);
                y = global_read(stats);
            }
            void main() {
                v = malloc(V);
                pthread_create(&t, worker, v);
            }
        "#;
        let p = parse_c(src).unwrap();
        crate::validate::assert_valid(&p);
        let worker = {
            let c = p.class_by_name(C_UNIT_CLASS).unwrap();
            p.dispatch(c, &crate::program::Selector::new("worker", 1))
                .unwrap()
        };
        let body = &p.method(worker).body;
        assert!(matches!(
            body[0].stmt,
            crate::program::Stmt::StoreStatic { .. }
        ));
        assert!(matches!(
            body[1].stmt,
            crate::program::Stmt::LoadStatic { .. }
        ));
    }

    #[test]
    fn rwlock_and_condvar_intrinsics_lower() {
        let src = r#"
            struct S { any data; };
            void reader(any s, any l) {
                pthread_rwlock_rdlock(&l);
                x = s->data;
                pthread_rwlock_unlock(&l);
            }
            void writer(any s, any l) {
                pthread_rwlock_wrlock(&l);
                s->data = s;
                pthread_rwlock_unlock(&l);
            }
            void waiter(any s, any m, any c) {
                pthread_mutex_lock(&m);
                pthread_cond_wait(&c, &m);
                x = s->data;
                pthread_mutex_unlock(&m);
            }
            void poster(any s, any m, any c) {
                pthread_mutex_lock(&m);
                s->data = s;
                pthread_cond_signal(&c);
                pthread_cond_broadcast(&c);
                pthread_mutex_unlock(&m);
            }
            void main() {
                s = malloc(S);
                l = malloc(S);
                m = malloc(S);
                c = malloc(S);
                pthread_create(&t1, reader, s, l);
                pthread_create(&t2, writer, s, l);
                pthread_create(&t3, waiter, s, m, c);
                pthread_create(&t4, poster, s, m, c);
            }
        "#;
        let p = parse_c(src).unwrap();
        crate::validate::assert_valid(&p);
        let method = |name: &str, arity: usize| {
            let c = p.class_by_name(C_UNIT_CLASS).unwrap();
            p.dispatch(c, &crate::program::Selector::new(name, arity))
                .unwrap()
        };
        let reader = &p.method(method("reader", 2)).body;
        assert!(matches!(
            reader[0].stmt,
            crate::program::Stmt::RwEnter {
                mode: RwMode::Read,
                ..
            }
        ));
        assert!(matches!(
            reader[2].stmt,
            crate::program::Stmt::RwExit { .. }
        ));
        let writer = &p.method(method("writer", 2)).body;
        assert!(matches!(
            writer[0].stmt,
            crate::program::Stmt::RwEnter {
                mode: RwMode::Write,
                ..
            }
        ));
        let waiter = &p.method(method("waiter", 3)).body;
        assert!(matches!(waiter[1].stmt, crate::program::Stmt::Wait { .. }));
        let poster = &p.method(method("poster", 3)).body;
        let notifies: Vec<bool> = poster
            .iter()
            .filter_map(|i| match i.stmt {
                crate::program::Stmt::Notify { all, .. } => Some(all),
                _ => None,
            })
            .collect();
        assert_eq!(notifies, vec![false, true]);
    }

    #[test]
    fn error_has_line() {
        let err = parse_c("struct S {\n any;\n};").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let n = 100_000;
        let src = format!(
            "void main() {{ {} {} }}",
            "if (c) {".repeat(n),
            "}".repeat(n)
        );
        let err = parse_c(&src).unwrap_err();
        assert!(err.message.contains("nested deeper than 512"), "{err}");
        // The `{` of the 512th `if`: after main's.
        let brace = src.match_indices('{').nth(512).unwrap().0;
        assert_eq!((err.line, err.col as usize), (1, brace + 1));
    }
}
