//! Printer ↔ parser round-trip: printing any workload program and
//! re-parsing the text must reproduce a *structurally equal* program —
//! same classes, fields, entry configuration, and per-method bodies —
//! not merely one with the same statement count. Structural equality is
//! also what makes the content digests of the incremental database
//! stable across a print/parse cycle.
//!
//! Programmatically built programs (presets, real-bug models) may intern
//! their field table in a different order than the parser would, so one
//! print/parse pass canonicalizes first; after that the round-trip must
//! be exactly structure-preserving and digest-stable.

use o2_ir::{digest_program, parser, printer, structurally_equal, validate};

fn assert_roundtrip(name: &str, program: &o2_ir::Program) {
    // First pass canonicalizes the field/class table order.
    let text = printer::print_program(program);
    let canonical = parser::parse(&text).unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));
    validate::assert_valid(&canonical);
    assert_eq!(
        canonical.num_statements(),
        program.num_statements(),
        "{name}: statement count changed across print/parse"
    );
    // Second pass must be exact.
    let text2 = printer::print_program(&canonical);
    let reparsed =
        parser::parse(&text2).unwrap_or_else(|e| panic!("{name}: second reparse failed: {e}"));
    if !structurally_equal(&canonical, &reparsed) {
        panic!(
            "{name}: reparsed program is not structurally equal\n{}",
            describe_difference(&canonical, &reparsed)
        );
    }
    assert_eq!(
        digest_program(&canonical).program,
        digest_program(&reparsed).program,
        "{name}: program digest changed across print/parse"
    );
    assert_eq!(
        text2,
        printer::print_program(&reparsed),
        "{name}: printer not a fixpoint"
    );
}

/// Pinpoints the first structural difference, for a readable failure.
fn describe_difference(a: &o2_ir::Program, b: &o2_ir::Program) -> String {
    if a.classes != b.classes {
        return "classes differ".to_string();
    }
    if a.fields != b.fields {
        return format!("fields differ: {:?} vs {:?}", a.fields, b.fields);
    }
    if a.main != b.main {
        return "main differs".to_string();
    }
    if a.entry_config != b.entry_config {
        return format!(
            "entry_config differs: {:?} vs {:?}",
            a.entry_config, b.entry_config
        );
    }
    if a.methods.len() != b.methods.len() {
        return format!("{} vs {} methods", a.methods.len(), b.methods.len());
    }
    for (i, (ma, mb)) in a.methods.iter().zip(&b.methods).enumerate() {
        let q = a.method_qname(o2_ir::MethodId::from_usize(i));
        if ma.var_names != mb.var_names {
            return format!("{q}: var_names {:?} vs {:?}", ma.var_names, mb.var_names);
        }
        if ma.num_vars != mb.num_vars {
            return format!("{q}: num_vars {} vs {}", ma.num_vars, mb.num_vars);
        }
        if ma.body.len() != mb.body.len() {
            return format!("{q}: body len {} vs {}", ma.body.len(), mb.body.len());
        }
        for (j, (ia, ib)) in ma.body.iter().zip(&mb.body).enumerate() {
            if ia.stmt != ib.stmt || ia.in_loop != ib.in_loop {
                return format!(
                    "{q} stmt {j}: {:?} (in_loop {}) vs {:?} (in_loop {})",
                    ia.stmt, ia.in_loop, ib.stmt, ib.in_loop
                );
            }
        }
        if ma.name != mb.name
            || ma.class != mb.class
            || ma.num_params != mb.num_params
            || ma.is_static != mb.is_static
            || ma.is_synchronized != mb.is_synchronized
            || ma.suppress_races != mb.suppress_races
        {
            return format!("{q}: attributes differ");
        }
    }
    "unknown difference".to_string()
}

#[test]
fn presets_roundtrip_structurally() {
    for preset in o2_workloads::all_presets() {
        let w = preset.generate();
        assert_roundtrip(preset.name, &w.program);
    }
}

#[test]
fn realbug_models_roundtrip_structurally() {
    for model in o2_workloads::all_models() {
        assert_roundtrip(model.name, &model.program);
    }
}

#[test]
fn extended_models_roundtrip_structurally() {
    for model in o2_workloads::extended_models() {
        assert_roundtrip(model.name, &model.program);
    }
}

/// The C-syntax models reach the text frontend through the printer, so
/// every C model's program passes through both frontends' token paths.
#[test]
fn c_models_roundtrip_structurally() {
    let models = o2_workloads::all_c_models()
        .into_iter()
        .chain(o2_workloads::extended_c_models());
    for model in models {
        assert_roundtrip(model.name, &model.program);
    }
}

/// A kitchen-sink program touching every synchronization statement the
/// surface syntax has — rwread/rwwrite blocks, wait/notify/notifyall,
/// await points, and async-task spawns with executor and worker counts —
/// must survive print/parse exactly.
#[test]
fn sync_primitives_roundtrip_structurally() {
    let src = r#"
        class S { field a; field b; }
        class Cond { }
        class K {
            static method reader(s) { rwread (s) { x = s.a; } }
            static method writer(s) { rwwrite (s) { s.a = s; } }
            static method waiter(s, m, c) {
                sync (m) { wait (c, m); x = s.b; }
            }
            static method poster(s, m, c) {
                sync (m) { s.b = s; notify c; }
                sync (m) { notifyall c; }
            }
            static method task(s) { s.a = s; await; x = s.a; }
        }
        class Main {
            static method main() {
                s = new S();
                m = new Cond();
                c = new Cond();
                spawn thread K::reader(s);
                spawn thread K::writer(s);
                spawn thread K::waiter(s, m, c);
                spawn thread K::poster(s, m, c);
                spawn task K::task(s);
                spawn task(3) K::task(s);
                spawn task(2, 8) K::task(s) * 2;
            }
        }
    "#;
    let program = parser::parse(src).unwrap();
    validate::assert_valid(&program);
    assert_roundtrip("sync-primitives", &program);
}

#[test]
fn figures_roundtrip_structurally() {
    assert_roundtrip("figure2", &o2_workloads::figures::figure2());
    assert_roundtrip("figure3", &o2_workloads::figures::figure3());
}
