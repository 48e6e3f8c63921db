//! A textual frontend for the IR.
//!
//! The surface language is a small Java-like notation covering exactly the
//! statement forms of the IR. Example:
//!
//! ```
//! let src = r#"
//! class State { field data; }
//! class Task : Runner {
//!     field s;
//!     method <init>(s) { this.s = s; }
//!     method run() {
//!         x = this.s;
//!         sync (x) { x.data = x; }
//!     }
//! }
//! class Runner { method run() { } }
//! class Main {
//!     static method main() {
//!         s = new State();
//!         t = new Task(s);
//!         t.start();
//!         t.join();
//!     }
//! }
//! "#;
//! let program = o2_ir::parser::parse(src).unwrap();
//! assert!(program.class_by_name("Task").is_some());
//! ```
//!
//! Lexical rules (shared with [`crate::cfront`]): `//` comments run to the
//! end of the line and `/* */` comments may span lines (an unclosed `/*`
//! is an error at its position); a `NAME` is `[A-Za-z_$][A-Za-z0-9_$]*`
//! or an `<init>`-style `<` word `>`; a `NUM` is a decimal `u64`.
//!
//! Grammar sketch (`NAME* = identifier`):
//!
//! ```text
//! program  := pragma* classdecl*
//! pragma   := "pragma" ("thread_entry" NAME | "event_entry" NAME NUM
//!             | "entry_prefix" NAME KIND) ";"
//! class    := "class" NAME (":" NAME)? ("impl" NAME ("," NAME)*)? "{" member* "}"
//! member   := "field" NAME ";"
//!           | ("@" "suppress" "(" "race" ")")? ("static")? ("sync")?
//!             "method" NAME "(" args ")" block
//! stmt     := lhs "=" rhs ";" | NAME "." NAME "(" args ")" ";"
//!           | NAME "::" NAME "(" args ")" ";"
//!           | "sync" "(" NAME ")" block | "loop" block
//!           | "rwread" "(" NAME ")" block | "rwwrite" "(" NAME ")" block
//!           | "wait" "(" NAME "," NAME ")" ";"
//!           | ("notify" | "notifyall") NAME ";" | "await" ";"
//!           | "spawn" KIND NAME "::" NAME "(" args ")" ("*" NUM)? ("->" NAME)? ";"
//!           | "join" NAME ";" | "return" NAME? ";"
//! lhs      := NAME | NAME "." NAME | NAME "[" "*" "]" | NAME "::" NAME
//! rhs      := "new" NAME "(" args ")" | "newarray" | call | lhs
//! KIND     := "thread" | "event" ("(" NUM ")")? | "syscall" | "kthread" | "irq"
//!           | "task" ("(" NUM ("," NUM)? ")")?
//! ```

use crate::builder::{BuildError, MethodBuilder, ProgramBuilder};
use crate::lex::{Cursor, Tok};
use crate::origins::OriginKind;
use crate::program::{Program, RwMode};
use std::error::Error;
use std::fmt;

/// An error produced while parsing source text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the error (0 = program-level).
    pub line: u32,
    /// 1-based source column of the error (0 = whole-line).
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.col > 0 {
            write!(
                f,
                "parse error at line {}, col {}: {}",
                self.line, self.col, self.message
            )
        } else {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        }
    }
}

impl Error for ParseError {}

impl From<BuildError> for ParseError {
    fn from(e: BuildError) -> Self {
        ParseError {
            line: 0,
            col: 0,
            message: e.to_string(),
        }
    }
}

/// Parses source text into a [`Program`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending line for syntax errors, and
/// with line 0 for program-level errors surfaced by the builder (missing
/// `main`, unresolved call targets, duplicate classes).
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut p = Cursor::new(src)?;
    let mut pb = ProgramBuilder::new();

    // Pragmas (entry-point annotations) come first.
    while p.eat_ident("pragma") {
        let kind = p.ident()?;
        match kind {
            "thread_entry" => {
                let name = p.ident()?;
                pb.entry_config_mut().add_thread_entry(name);
            }
            "event_entry" => {
                let name = p.ident()?;
                let d = num_u16(&mut p, "event_entry dispatcher")?;
                pb.entry_config_mut().add_event_entry(name, d);
            }
            "entry_prefix" => {
                let prefix = p.ident()?;
                let kind =
                    parse_kind_name(p.ident()?).ok_or_else(|| p.err("unknown origin kind"))?;
                pb.entry_config_mut().add_prefix(prefix, kind);
            }
            other => return Err(p.err(format!("unknown pragma `{other}`"))),
        }
        p.want(Tok::Semi)?;
    }

    // Pre-scan: register every class name so `new` and `extends` can be
    // forward references.
    let mut extends: Vec<(&str, &str)> = Vec::new();
    let rest = p.rest();
    for (i, tok) in rest.iter().enumerate() {
        if *tok == Tok::Ident("class") {
            if let Some(&Tok::Ident(name)) = rest.get(i + 1) {
                pb.add_class(name, None);
                if let (Some(Tok::Colon), Some(&Tok::Ident(sup))) =
                    (rest.get(i + 2), rest.get(i + 3))
                {
                    extends.push((name, sup));
                }
            }
        }
    }
    for (sub, sup) in extends {
        let sub_id = pb
            .class_id(sub)
            .expect("pre-scanned class must be registered");
        let sup_id = pb.class_id(sup).ok_or_else(|| ParseError {
            line: 0,
            col: 0,
            message: format!("unknown superclass {sup}"),
        })?;
        pb.set_superclass(sub_id, Some(sup_id));
    }

    // Full parse.
    while p.peek().is_some() {
        parse_class(&mut p, &mut pb)?;
    }
    pb.finish().map_err(ParseError::from)
}

/// Reads a dispatcher or executor id, which must fit a `u16`.
fn num_u16(p: &mut Cursor<'_>, what: &str) -> Result<u16, ParseError> {
    let n = p.num()?;
    u16::try_from(n).map_err(|_| p.err(format!("{what} must be between 0 and 65535")))
}

fn parse_kind_name(name: &str) -> Option<OriginKind> {
    match name {
        "thread" => Some(OriginKind::Thread),
        "syscall" => Some(OriginKind::Syscall),
        "kthread" => Some(OriginKind::KernelThread),
        "irq" => Some(OriginKind::Interrupt),
        "event" => Some(OriginKind::Event { dispatcher: 0 }),
        "task" => Some(OriginKind::AsyncTask {
            executor: 0,
            workers: 1,
        }),
        _ => None,
    }
}

fn parse_class(p: &mut Cursor<'_>, pb: &mut ProgramBuilder) -> Result<(), ParseError> {
    if !p.eat_ident("class") {
        return Err(p.err("expected `class`"));
    }
    let name = p.ident()?;
    let class = pb
        .class_id(name)
        .ok_or_else(|| p.err("class not pre-registered"))?;
    if matches!(p.peek(), Some(Tok::Colon)) {
        p.next()?;
        p.ident()?; // superclass already wired in the pre-scan
    }
    if p.eat_ident("impl") {
        loop {
            let iface = p.ident()?;
            pb.add_interface(class, iface);
            if matches!(p.peek(), Some(Tok::Comma)) {
                p.next()?;
            } else {
                break;
            }
        }
    }
    p.want(Tok::LBrace)?;
    while !matches!(p.peek(), Some(Tok::RBrace)) {
        if p.eat_ident("field") {
            let fname = p.ident()?;
            pb.field(fname);
            p.want(Tok::Semi)?;
            continue;
        }
        // `@suppress(race)` before a method excludes its accesses from
        // race reports (the triage engine moves them to the suppressed
        // list instead of dropping them silently).
        let suppress = if matches!(p.peek(), Some(Tok::At)) {
            p.next()?;
            let ann = p.ident()?;
            if ann != "suppress" {
                return Err(p.err(format!("unknown annotation `@{ann}`")));
            }
            p.want(Tok::LParen)?;
            let what = p.ident()?;
            if what != "race" {
                return Err(p.err(format!("unknown suppression kind `{what}`")));
            }
            p.want(Tok::RParen)?;
            true
        } else {
            false
        };
        let is_static = p.eat_ident("static");
        let is_sync = p.eat_ident("sync");
        if !p.eat_ident("method") {
            return Err(p.err("expected `field`, `method`, or `}`"));
        }
        let mname = p.ident()?;
        p.want(Tok::LParen)?;
        let mut params = Vec::new();
        while !matches!(p.peek(), Some(Tok::RParen)) {
            params.push(p.ident()?);
            if matches!(p.peek(), Some(Tok::Comma)) {
                p.next()?;
            }
        }
        p.want(Tok::RParen)?;
        let mut mb = if is_static {
            pb.begin_static_method(class, mname, &params)
        } else {
            pb.begin_method(class, mname, &params)
        };
        if is_sync {
            mb.synchronized();
        }
        if suppress {
            mb.suppress_races();
        }
        parse_block(p, &mut mb)?;
        mb.finish();
    }
    p.want(Tok::RBrace)?;
    Ok(())
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
    // Keyword statements.
    if matches!(p.peek(), Some(Tok::Ident(s)) if s == "sync")
        && matches!(p.peek2(), Some(Tok::LParen))
    {
        p.next()?;
        p.want(Tok::LParen)?;
        let lock = p.ident()?;
        p.want(Tok::RParen)?;
        // Manual open/close to keep the recursive descent simple.
        mb.sync_open(lock);
        parse_block(p, mb)?;
        mb.sync_close(lock);
        return Ok(());
    }
    for (kw, mode) in [("rwread", RwMode::Read), ("rwwrite", RwMode::Write)] {
        if matches!(p.peek(), Some(Tok::Ident(s)) if s == kw)
            && matches!(p.peek2(), Some(Tok::LParen))
        {
            p.next()?;
            p.want(Tok::LParen)?;
            let lock = p.ident()?;
            p.want(Tok::RParen)?;
            mb.rw_open(lock, mode);
            parse_block(p, mb)?;
            mb.rw_close(lock);
            return Ok(());
        }
    }
    if matches!(p.peek(), Some(Tok::Ident(s)) if s == "wait")
        && matches!(p.peek2(), Some(Tok::LParen))
    {
        // wait (cond, lock);
        p.next()?;
        p.want(Tok::LParen)?;
        let cond = p.ident()?;
        p.want(Tok::Comma)?;
        let lock = p.ident()?;
        p.want(Tok::RParen)?;
        p.want(Tok::Semi)?;
        mb.wait(cond, lock);
        return Ok(());
    }
    for (kw, all) in [("notify", false), ("notifyall", true)] {
        if matches!(p.peek(), Some(Tok::Ident(s)) if s == kw)
            && matches!(p.peek2(), Some(Tok::Ident(_)))
            && matches!(p.peek3(), Some(Tok::Semi))
        {
            p.next()?;
            let cond = p.ident()?;
            p.want(Tok::Semi)?;
            mb.notify(cond, all);
            return Ok(());
        }
    }
    if matches!(p.peek(), Some(Tok::Ident(s)) if s == "await")
        && matches!(p.peek2(), Some(Tok::Semi))
    {
        p.next()?;
        p.want(Tok::Semi)?;
        mb.await_point();
        return Ok(());
    }
    if matches!(p.peek(), Some(Tok::Ident(s)) if s == "loop")
        && matches!(p.peek2(), Some(Tok::LBrace))
    {
        p.next()?;
        mb.loop_open();
        parse_block(p, mb)?;
        mb.loop_close();
        return Ok(());
    }
    if p.eat_ident("spawn") {
        let kind_name = p.ident()?;
        let mut kind = parse_kind_name(kind_name)
            .ok_or_else(|| p.err(format!("unknown spawn kind `{kind_name}`")))?;
        if matches!(kind, OriginKind::Event { .. }) && matches!(p.peek(), Some(Tok::LParen)) {
            p.next()?;
            let d = num_u16(p, "event dispatcher")?;
            p.want(Tok::RParen)?;
            kind = OriginKind::Event { dispatcher: d };
        }
        if matches!(kind, OriginKind::AsyncTask { .. }) && matches!(p.peek(), Some(Tok::LParen)) {
            // task(EXECUTOR) or task(EXECUTOR, WORKERS)
            p.next()?;
            let executor = num_u16(p, "executor")?;
            let mut workers = 1u8;
            if matches!(p.peek(), Some(Tok::Comma)) {
                p.next()?;
                let w = p.num()?;
                if w == 0 || w > 255 {
                    return Err(p.err("worker count must be between 1 and 255"));
                }
                workers = w as u8;
            }
            p.want(Tok::RParen)?;
            kind = OriginKind::AsyncTask { executor, workers };
        }
        let class = p.ident()?;
        p.want(Tok::ColonColon)?;
        let method = p.ident()?;
        let args = parse_args(p)?;
        let mut replicas = 1u8;
        if matches!(p.peek(), Some(Tok::Star)) {
            p.next()?;
            let n = p.num()?;
            if n == 0 || n > 255 {
                return Err(p.err("replica count must be between 1 and 255"));
            }
            replicas = n as u8;
        }
        let mut handle = None;
        if matches!(p.peek(), Some(Tok::Arrow)) {
            p.next()?;
            handle = Some(p.ident()?);
        }
        p.want(Tok::Semi)?;
        mb.spawn_replicated(handle, class, method, &args, kind, replicas);
        return Ok(());
    }
    if matches!(p.peek(), Some(Tok::Ident(s)) if s == "atomic")
        && matches!(p.peek2(), Some(Tok::Ident(_)))
    {
        // atomic x.f = y;
        p.next()?;
        let base = p.ident()?;
        p.want(Tok::Dot)?;
        let field = p.ident()?;
        p.want(Tok::Eq)?;
        let src = p.ident()?;
        p.want(Tok::Semi)?;
        mb.store_atomic(base, field, src);
        return Ok(());
    }
    if p.eat_ident("join") {
        let recv = p.ident()?;
        p.want(Tok::Semi)?;
        mb.join(recv);
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

    // Statements starting with an identifier.
    let first = p.ident()?;
    match p.peek() {
        Some(Tok::Eq) => {
            p.next()?;
            parse_rhs(p, mb, first)?;
            p.want(Tok::Semi)?;
        }
        Some(Tok::Dot) => {
            p.next()?;
            let second = p.ident()?;
            match p.peek() {
                Some(Tok::Eq) => {
                    // x.f = y;
                    p.next()?;
                    let src = p.ident()?;
                    p.want(Tok::Semi)?;
                    mb.store(first, second, src);
                }
                Some(Tok::LParen) => {
                    // x.m(args);
                    let args = parse_args(p)?;
                    p.want(Tok::Semi)?;
                    mb.call(None, first, second, &args);
                }
                _ => return Err(p.err("expected `=` or `(` after field/method name")),
            }
        }
        Some(Tok::LBracket) => {
            // x[*] = y;
            p.next()?;
            p.want(Tok::Star)?;
            p.want(Tok::RBracket)?;
            p.want(Tok::Eq)?;
            let src = p.ident()?;
            p.want(Tok::Semi)?;
            mb.store_array(first, src);
        }
        Some(Tok::ColonColon) => {
            p.next()?;
            let second = p.ident()?;
            match p.peek() {
                Some(Tok::Eq) => {
                    // C::f = y;
                    p.next()?;
                    let src = p.ident()?;
                    p.want(Tok::Semi)?;
                    if !mb.class_exists(first) {
                        return Err(p.err(format!("unknown class {first}")));
                    }
                    mb.store_static(first, second, src);
                }
                Some(Tok::LParen) => {
                    // C::m(args);
                    let args = parse_args(p)?;
                    p.want(Tok::Semi)?;
                    mb.call_static(None, first, second, &args);
                }
                _ => return Err(p.err("expected `=` or `(` after `::name`")),
            }
        }
        other => {
            return Err(p.err(format!(
                "unexpected token after identifier: `{}`",
                other.map(|t| t.to_string()).unwrap_or_default()
            )))
        }
    }
    Ok(())
}

fn parse_rhs(p: &mut Cursor<'_>, mb: &mut MethodBuilder<'_>, dst: &str) -> Result<(), ParseError> {
    if p.eat_ident("new") {
        let class = p.ident()?;
        if !mb.class_exists(class) {
            return Err(p.err(format!("unknown class {class}")));
        }
        let args = parse_args(p)?;
        mb.new_obj(dst, class, &args);
        return Ok(());
    }
    if p.eat_ident("newarray") {
        mb.new_array(dst);
        return Ok(());
    }
    if matches!(p.peek(), Some(Tok::Ident(kw)) if kw == "atomic")
        && matches!(p.peek2(), Some(Tok::Ident(_)))
    {
        // x = atomic y.f; (a bare variable named `atomic` falls through:
        // the keyword form always continues with an identifier).
        p.next()?;
        let base = p.ident()?;
        p.want(Tok::Dot)?;
        let field = p.ident()?;
        mb.load_atomic(Some(dst), base, field);
        return Ok(());
    }
    let first = p.ident()?;
    match p.peek() {
        Some(Tok::Dot) => {
            // Distinguish `y.f` from `y.m(args)`.
            if matches!(p.peek3(), Some(Tok::LParen)) {
                p.next()?;
                let m = p.ident()?;
                let args = parse_args(p)?;
                mb.call(Some(dst), first, m, &args);
            } else {
                p.next()?;
                let f = p.ident()?;
                mb.load(Some(dst), first, f);
            }
        }
        Some(Tok::LBracket) => {
            p.next()?;
            p.want(Tok::Star)?;
            p.want(Tok::RBracket)?;
            mb.load_array(Some(dst), first);
        }
        Some(Tok::ColonColon) => {
            if matches!(p.peek3(), Some(Tok::LParen)) {
                p.next()?;
                let m = p.ident()?;
                let args = parse_args(p)?;
                mb.call_static(Some(dst), first, m, &args);
            } else {
                p.next()?;
                let f = p.ident()?;
                if !mb.class_exists(first) {
                    return Err(p.err(format!("unknown class {first}")));
                }
                mb.load_static(Some(dst), first, f);
            }
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
    use crate::program::{Callee, Stmt};

    const FIG2_LIKE: &str = r#"
        class S { field data; }
        class T impl Runnable {
            field s; field op;
            method <init>(s, op) { this.s = s; this.op = op; }
            method run() {
                s = this.s;
                op = this.op;
                op.act(s);
            }
        }
        class Op { method act(s) { } }
        class Main {
            static method main() {
                s = new S();
                op1 = new Op();
                t1 = new T(s, op1);
                t1.start();
                t1.join();
            }
        }
    "#;

    #[test]
    fn parses_basic_program() {
        let p = parse(FIG2_LIKE).unwrap();
        assert!(p.class_by_name("T").is_some());
        let t = p.class_by_name("T").unwrap();
        assert!(p.is_origin_class(t));
        let main = p.method(p.main);
        assert_eq!(main.body.len(), 5);
    }

    #[test]
    fn parses_all_statement_forms() {
        let src = r#"
            class K {
                field g;
                static method worker(a) { }
                static method main() {
                    a = new K();
                    b = a;
                    a.g = b;
                    c = a.g;
                    arr = newarray;
                    arr[*] = a;
                    d = arr[*];
                    K::g = a;
                    e = K::g;
                    sync (a) { a.g = b; }
                    loop { f = new K(); }
                    spawn thread K::worker(a) -> h;
                    spawn syscall K::worker(a) * 2;
                    join h;
                    r = K::worker(a);
                    return r;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let main = p.method(p.main);
        let spawns: Vec<_> = main
            .body
            .iter()
            .filter_map(|i| match &i.stmt {
                Stmt::Spawn { kind, replicas, .. } => Some((*kind, *replicas)),
                _ => None,
            })
            .collect();
        assert_eq!(
            spawns,
            vec![(OriginKind::Thread, 1), (OriginKind::Syscall, 2)]
        );
        let in_loop: Vec<bool> = main.body.iter().map(|i| i.in_loop).collect();
        assert_eq!(in_loop.iter().filter(|&&b| b).count(), 1);
        assert!(main.body.iter().any(|i| matches!(
            &i.stmt,
            Stmt::Call {
                callee: Callee::Static { .. },
                dst: Some(_),
                ..
            }
        )));
    }

    #[test]
    fn pragma_extends_entry_config() {
        let src = r#"
            pragma thread_entry fiberBody;
            pragma event_entry onTick 2;
            class C {
                method fiberBody() { }
                static method main() { c = new C(); c.fiberBody(); }
            }
        "#;
        let p = parse(src).unwrap();
        assert!(p.entry_config.is_entry("fiberBody"));
        assert_eq!(
            p.entry_config.entry_kind("onTick"),
            Some(OriginKind::Event { dispatcher: 2 })
        );
    }

    #[test]
    fn error_reports_line() {
        let err = parse("class C {\n  field ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_superclass_is_error() {
        let err = parse("class C : Nope { static method main() { } }").unwrap_err();
        assert!(err.message.contains("Nope"), "{err}");
    }

    #[test]
    fn comments_are_skipped() {
        let src = "// top\nclass C { // inline\n static method main() { } }";
        assert!(parse(src).is_ok());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    #[test]
    fn unknown_class_in_new_is_an_error() {
        let err = parse("class C { static method main() { x = new Nope(); } }").unwrap_err();
        assert!(err.message.contains("unknown class Nope"), "{err}");
    }

    #[test]
    fn unknown_class_in_static_access_is_an_error() {
        let err = parse("class C { static method main() { Nope::f = x; } }").unwrap_err();
        assert!(err.message.contains("unknown class"), "{err}");
        let err = parse("class C { static method main() { x = Nope::f; } }").unwrap_err();
        assert!(err.message.contains("unknown class"), "{err}");
    }

    #[test]
    fn duplicate_method_is_an_error_not_a_panic() {
        let err = parse("class C { method m() { } method m() { } static method main() { } }")
            .unwrap_err();
        assert!(err.message.contains("duplicate method"), "{err}");
    }

    #[test]
    fn replica_range_is_checked() {
        let src = |n: u64| {
            format!(
                "class C {{ static method w(a) {{ }} static method main() {{ a = new C(); spawn thread C::w(a) * {n}; }} }}"
            )
        };
        assert!(parse(&src(2)).is_ok());
        for bad in [0u64, 256, 1000] {
            let err = parse(&src(bad)).unwrap_err();
            assert!(err.message.contains("replica count"), "{bad}: {err}");
        }
    }

    #[test]
    fn dispatcher_and_executor_ranges_are_checked() {
        let spawn = |kind: &str| {
            format!(
                "class C {{ static method w(a) {{ }} static method main() {{ a = new C(); spawn {kind} C::w(a); }} }}"
            )
        };
        let pragma = |n: u64| {
            format!("pragma event_entry onEvent {n};\nclass C {{ static method main() {{ }} }}")
        };
        let sites: [(&dyn Fn(u64) -> String, &str); 4] = [
            (&|n| spawn(&format!("event({n})")), "event dispatcher"),
            (&|n| spawn(&format!("task({n})")), "executor"),
            (&|n| spawn(&format!("task({n}, 2)")), "executor"),
            (&pragma, "event_entry dispatcher"),
        ];
        for (src, what) in sites {
            assert!(parse(&src(0)).is_ok(), "{}", src(0));
            assert!(parse(&src(65535)).is_ok(), "{}", src(65535));
            for bad in [65536u64, 1 << 32] {
                let err = parse(&src(bad)).unwrap_err();
                assert!(
                    err.message
                        .contains(&format!("{what} must be between 0 and 65535")),
                    "{bad}: {err}"
                );
            }
        }
    }

    /// `main` with `n` nested `sync (k) { ... }` blocks in its body.
    fn nested_syncs(n: usize) -> String {
        format!(
            "class C {{ static method main() {{ k = new C(); {} {} }} }}",
            "sync (k) {".repeat(n),
            "}".repeat(n)
        )
    }

    #[test]
    fn nesting_up_to_the_ceiling_parses() {
        // The body of `main` is the first open block.
        assert!(parse(&nested_syncs(511)).is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_at_the_brace_not_a_stack_overflow() {
        for n in [512, 100_000] {
            let src = nested_syncs(n);
            let err = parse(&src).unwrap_err();
            assert!(err.message.contains("nested deeper than 512"), "{err}");
            // The `{` of the 512th `sync`: after the class's and main's.
            let brace = src.match_indices('{').nth(513).unwrap().0;
            assert_eq!((err.line, err.col as usize), (1, brace + 1));
        }
    }

    #[test]
    fn stray_angle_bracket_is_a_bounded_error() {
        let err = parse("class C { static method main() { x < y; } }").unwrap_err();
        assert!(err.message.contains("malformed"), "{err}");
        // And the error is on the right line (no newline swallowing).
        assert_eq!(err.line, 1);
    }
}

#[cfg(test)]
mod atomic_keyword_tests {
    use super::*;

    /// `atomic` remains usable as a plain variable name.
    #[test]
    fn atomic_as_variable_name_round_trips() {
        let src = r#"
            class S { field f; }
            class Main {
                static method main() {
                    atomic = new S();
                    x = atomic.f;
                    y = atomic;
                    atomic c.f = y;
                }
            }
        "#;
        // `atomic c.f = y;` needs a c: make it valid.
        let src = src.replace("atomic c.f = y;", "c = new S(); atomic c.f = y;");
        let p = parse(&src).unwrap();
        let main = p.method(p.main);
        assert_eq!(
            main.body
                .iter()
                .filter(|i| i.stmt.is_atomic_access())
                .count(),
            1
        );
    }
}

#[cfg(test)]
mod suppression_tests {
    use super::*;

    #[test]
    fn suppress_annotation_sets_method_flag() {
        let src = r#"
            class S { field f; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                @suppress(race) method run() { x = this.s; x.f = x; }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    w.start();
                    s.f = s;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let run = p
            .methods
            .iter()
            .position(|m| m.name == "run")
            .map(crate::ids::MethodId::from_usize)
            .unwrap();
        assert!(p.method(run).suppress_races);
        assert!(p.is_race_suppressed(crate::ids::GStmt::new(run, 0)));
        assert!(!p.method(p.main).suppress_races);
        // Round-trips through the printer.
        let printed = crate::printer::print_program(&p);
        assert!(printed.contains("@suppress(race) method run"), "{printed}");
        let again = parse(&printed).unwrap();
        let run2 = again
            .methods
            .iter()
            .position(|m| m.name == "run")
            .map(crate::ids::MethodId::from_usize)
            .unwrap();
        assert!(again.method(run2).suppress_races);
    }

    #[test]
    fn unknown_annotation_is_an_error() {
        let src = "class Main { @inline method main() { } }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unknown annotation"), "{err}");
    }

    #[test]
    fn unknown_suppression_kind_is_an_error() {
        let src = "class Main { @suppress(deadlock) static method main() { } }";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("unknown suppression kind"), "{err}");
    }
}
