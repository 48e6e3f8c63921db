//! Tests for the atomics extension (the paper's §4 future work): atomic
//! accesses to the same cell never race with each other, but mixing an
//! atomic with a plain access on the same cell is still a race.

use o2::prelude::*;

fn analyze(src: &str) -> (Program, AnalysisReport) {
    let p = o2_ir::parser::parse(src).unwrap();
    o2_ir::validate::assert_valid(&p);
    let r = O2Builder::new().build().analyze(&p);
    (p, r)
}

#[test]
fn atomic_atomic_does_not_race() {
    let src = r#"
        class Counter { field n; }
        class W impl Runnable {
            field c;
            method <init>(c) { this.c = c; }
            method run() {
                c = this.c;
                atomic c.n = c;
                x = atomic c.n;
            }
        }
        class Main {
            static method main() {
                c = new Counter();
                w1 = new W(c);
                w2 = new W(c);
                w1.start();
                w2.start();
            }
        }
    "#;
    let (p, r) = analyze(src);
    assert_eq!(r.num_races(), 0, "{}", r.races.render(&p));
    assert!(r.races.lock_pruned >= 1, "pruned via the cell lock");
}

#[test]
fn atomic_plain_mix_is_a_race() {
    // C++/LLVM semantics: a plain access racing with an atomic one is
    // still a data race.
    let src = r#"
        class Counter { field n; }
        class Writer impl Runnable {
            field c;
            method <init>(c) { this.c = c; }
            method run() { c = this.c; atomic c.n = c; }
        }
        class PlainReader impl Runnable {
            field c;
            method <init>(c) { this.c = c; }
            method run() { c = this.c; x = c.n; }
        }
        class Main {
            static method main() {
                c = new Counter();
                w = new Writer(c);
                r = new PlainReader(c);
                w.start();
                r.start();
            }
        }
    "#;
    let (p, r) = analyze(src);
    assert_eq!(r.num_races(), 1, "{}", r.races.render(&p));
}

#[test]
fn atomics_on_different_cells_do_not_protect_each_other() {
    let src = r#"
        class S { field a; field b; }
        class W1 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; atomic s.a = s; s.b = s; }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; atomic s.a = s; s.b = s; }
        }
        class Main {
            static method main() {
                s = new S();
                w1 = new W1(s);
                w2 = new W2(s);
                w1.start();
                w2.start();
            }
        }
    "#;
    let (p, r) = analyze(src);
    // The atomic cell `a` is clean; the plain field `b` races.
    assert_eq!(r.num_races(), 1, "{}", r.races.render(&p));
    let f = match r.races.races[0].key {
        MemKey::Field(_, f) => p.field_name(f).to_string(),
        MemKey::Static(_, f) => p.field_name(f).to_string(),
    };
    assert_eq!(f, "b");
}

/// The cpqueue model (7 confirmed races) rewritten with atomics — the way
/// the lock-free algorithm actually synchronizes — reports zero races.
#[test]
fn cpqueue_fixed_with_atomics() {
    let src = r#"
        class Q {
            field head; field tail; field size;
            field next; field val; field ver; field flag;
        }
        class QOps {
            static method enqueue(q) {
                atomic q.head = q;
                atomic q.tail = q;
                atomic q.size = q;
                atomic q.next = q;
                atomic q.val = q;
                a = atomic q.ver;
                b = atomic q.flag;
            }
            static method dequeue(q) {
                atomic q.head = q;
                atomic q.tail = q;
                atomic q.size = q;
                c = atomic q.next;
                d = atomic q.val;
                atomic q.ver = q;
                atomic q.flag = q;
            }
        }
        class Producer impl Runnable {
            field q;
            method <init>(q) { this.q = q; }
            method run() { q = this.q; QOps::enqueue(q); }
        }
        class Consumer impl Runnable {
            field q;
            method <init>(q) { this.q = q; }
            method run() { q = this.q; QOps::dequeue(q); }
        }
        class Main {
            static method main() {
                q = new Q();
                p = new Producer(q);
                c = new Consumer(q);
                p.start();
                c.start();
            }
        }
    "#;
    let (p, r) = analyze(src);
    assert_eq!(r.num_races(), 0, "{}", r.races.render(&p));
    // The original (plain-access) model reports all 7.
    let orig = o2_workloads::realbugs::cpqueue();
    let orig_r = O2Builder::new().build().analyze(&orig.program);
    assert_eq!(orig_r.num_races(), 7);
}

#[test]
fn atomics_roundtrip_through_printer() {
    let src = r#"
        class C { field n; }
        class Main {
            static method main() {
                c = new C();
                atomic c.n = c;
                x = atomic c.n;
            }
        }
    "#;
    let p1 = o2_ir::parser::parse(src).unwrap();
    let text = o2_ir::printer::print_program(&p1);
    let p2 = o2_ir::parser::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let atomics = |p: &Program| {
        p.method(p.main)
            .body
            .iter()
            .filter(|i| i.stmt.is_atomic_access())
            .count()
    };
    assert_eq!(atomics(&p1), 2);
    assert_eq!(atomics(&p2), 2, "{text}");
}

#[test]
fn racerd_treats_atomics_as_protected() {
    let src = r#"
        class C { field n; }
        class W impl Runnable {
            field c;
            method <init>(c) { this.c = c; }
            method run() { c = this.c; atomic c.n = c; }
        }
        class Main {
            static method main() {
                c = new C();
                w1 = new W(c);
                w2 = new W(c);
                w1.start();
                w2.start();
            }
        }
    "#;
    let p = o2_ir::parser::parse(src).unwrap();
    let rd = o2_racerd::run_racerd(&p);
    let n = p.field_by_name("n").unwrap();
    assert_eq!(rd.field_warnings(n), 0, "{rd:?}");
}
