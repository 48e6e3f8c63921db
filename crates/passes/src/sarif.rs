//! Hand-rolled SARIF 2.1.0 output (std-only, no serialization
//! dependency, matching the workspace's offline build policy).
//!
//! The emitted document is deliberately minimal but valid: one run, one
//! tool driver with three rules (`o2/race`, `o2/deadlock`,
//! `o2/oversync`), and one result per finding. The models analyzed here
//! are synthetic IR programs without source files, so findings carry
//! *logical* locations (`Class.method:line` fully-qualified names)
//! rather than physical artifact locations. Serialization reads only
//! from the report's already-sorted lists and contains no timestamps or
//! absolute paths, so the bytes are identical across runs.

use crate::triage::Tier;
use crate::{PipelineReport, TriagedRace};
use o2_detect::RaceAccess;
use o2_ir::json_escape;
use o2_ir::program::Program;
use o2_shb::LockElem;
use std::fmt::Write as _;

const RULES: [(&str, &str, &str); 3] = [
    (
        "o2/race",
        "DataRace",
        "Two origins access the same memory location without ordering or a common lock, and at least one access is a write.",
    ),
    (
        "o2/deadlock",
        "LockOrderDeadlock",
        "A cycle in the lock-order graph: origins acquire the same locks in opposite orders with no gate lock or happens-before ordering.",
    ),
    (
        "o2/oversync",
        "OverSynchronization",
        "A synchronized region that only guards origin-local data; the lock can be removed.",
    ),
];

fn level_of(tier: Tier) -> &'static str {
    match tier {
        Tier::High => "error",
        Tier::Medium => "warning",
        Tier::Low => "note",
    }
}

fn access_phrase(program: &Program, acc: &RaceAccess) -> String {
    format!(
        "{} at {} (origin {})",
        if acc.is_write { "write" } else { "read" },
        program.stmt_label(acc.stmt),
        acc.origin.0
    )
}

fn location(out: &mut String, program: &Program, stmt: o2_ir::ids::GStmt) {
    let _ = writeln!(
        out,
        "            {{\"logicalLocations\": [{{\"fullyQualifiedName\": \"{}\", \"kind\": \"member\"}}]}}",
        json_escape(&program.stmt_label(stmt))
    );
}

/// The `"program": "<name>", ` prefix a corpus document injects into
/// every result's `properties` object; empty for solo documents, so the
/// solo byte format is untouched.
fn program_prop(program_label: Option<&str>) -> String {
    match program_label {
        Some(name) => format!("\"program\": \"{}\", ", json_escape(name)),
        None => String::new(),
    }
}

fn race_result(
    program: &Program,
    tr: &TriagedRace,
    suppressed: bool,
    program_label: Option<&str>,
) -> String {
    let loc = json_escape(&o2_detect::mem_key_label(program, tr.race.key));
    let mut message = format!(
        "Data race on {loc}: {} vs {}.",
        access_phrase(program, &tr.race.a),
        access_phrase(program, &tr.race.b)
    );
    for note in &tr.notes {
        let _ = write!(message, " {note}.");
    }
    let mut out = String::new();
    out.push_str("        {\n");
    let _ = writeln!(out, "          \"ruleId\": \"o2/race\",");
    let _ = writeln!(out, "          \"ruleIndex\": 0,");
    let _ = writeln!(out, "          \"level\": \"{}\",", level_of(tr.tier));
    let _ = writeln!(
        out,
        "          \"message\": {{\"text\": \"{}\"}},",
        json_escape(&message)
    );
    out.push_str("          \"locations\": [\n");
    location(&mut out, program, tr.race.a.stmt);
    out.pop();
    out.push_str(",\n");
    location(&mut out, program, tr.race.b.stmt);
    out.push_str("          ],\n");
    let _ = writeln!(
        out,
        "          \"partialFingerprints\": {{\"o2RaceKey\": \"{}|{}|{}\"}},",
        loc,
        json_escape(&program.stmt_label(tr.race.a.stmt)),
        json_escape(&program.stmt_label(tr.race.b.stmt))
    );
    if suppressed {
        out.push_str("          \"suppressions\": [{\"kind\": \"inSource\"}],\n");
    }
    let _ = writeln!(
        out,
        "          \"properties\": {{{}\"tier\": \"{}\", \"score\": {}}}",
        program_prop(program_label),
        tr.tier,
        tr.score
    );
    out.push_str("        }");
    out
}

fn lock_label(elem: &LockElem, program: &Program) -> String {
    match elem {
        LockElem::Obj(o) => format!("obj#{}", o.0),
        LockElem::Class(c) => format!("{}.class", program.class(*c).name),
        LockElem::Dispatcher(d) => format!("dispatcher#{d}"),
        LockElem::AtomicCell(o, f) => {
            format!("obj#{}.{} (atomic)", o.0, program.field_name(*f))
        }
        LockElem::RwRead(o) => format!("obj#{} (rdlock)", o.0),
        LockElem::RwWrite(o) => format!("obj#{} (wrlock)", o.0),
        LockElem::Executor(e) => format!("executor#{e}"),
    }
}

/// All result objects of one program's report, in canonical order
/// (surviving races, suppressed races, deadlock cycles, over-sync
/// warnings). Each string is one complete result object with no trailing
/// comma or newline; the document assemblers join them.
fn result_objects(
    report: &PipelineReport,
    program: &Program,
    program_label: Option<&str>,
) -> Vec<String> {
    let mut objects = Vec::new();

    for tr in &report.races {
        objects.push(race_result(program, tr, false, program_label));
    }
    for tr in &report.suppressed {
        objects.push(race_result(program, tr, true, program_label));
    }
    for cycle in &report.deadlocks.cycles {
        let locks: Vec<String> = cycle.locks.iter().map(|e| lock_label(e, program)).collect();
        let stmts: Vec<String> = cycle.stmts.iter().map(|&s| program.stmt_label(s)).collect();
        let mut out = String::new();
        out.push_str("        {\n");
        out.push_str("          \"ruleId\": \"o2/deadlock\",\n");
        out.push_str("          \"ruleIndex\": 1,\n");
        out.push_str("          \"level\": \"error\",\n");
        let _ = writeln!(
            out,
            "          \"message\": {{\"text\": \"Lock-order cycle {} acquired in conflicting order at {}.\"}},",
            json_escape(&locks.join(" -> ")),
            json_escape(&stmts.join(", "))
        );
        out.push_str("          \"locations\": [\n");
        if let Some(&s) = cycle.stmts.first() {
            location(&mut out, program, s);
        }
        finish_locations(&mut out, program_label);
        objects.push(out);
    }
    for w in &report.oversync.warnings {
        let mut out = String::new();
        out.push_str("        {\n");
        out.push_str("          \"ruleId\": \"o2/oversync\",\n");
        out.push_str("          \"ruleIndex\": 2,\n");
        out.push_str("          \"level\": \"note\",\n");
        let _ = writeln!(
            out,
            "          \"message\": {{\"text\": \"Synchronization at {} guards only origin-local data ({} guarded accesses).\"}},",
            json_escape(&program.stmt_label(w.site)),
            w.guarded_accesses
        );
        out.push_str("          \"locations\": [\n");
        location(&mut out, program, w.site);
        finish_locations(&mut out, program_label);
        objects.push(out);
    }
    objects
}

/// Closes a result whose last member is `locations`, appending a
/// `properties` object only when a corpus document needs the program
/// marker (solo documents emit no properties here, as always).
fn finish_locations(out: &mut String, program_label: Option<&str>) {
    match program_label {
        Some(name) => {
            out.push_str("          ],\n");
            let _ = writeln!(
                out,
                "          \"properties\": {{\"program\": \"{}\"}}",
                json_escape(name)
            );
        }
        None => out.push_str("          ]\n"),
    }
    out.push_str("        }");
}

/// The document preamble through `"results": [`. `automation_id` becomes
/// the run's `automationDetails.id` (corpus documents use it to carry the
/// single batch run id; solo documents omit it).
fn header(out: &mut String, automation_id: Option<&str>) {
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    if let Some(id) = automation_id {
        let _ = writeln!(
            out,
            "      \"automationDetails\": {{\"id\": \"{}\"}},",
            json_escape(id)
        );
    }
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"o2\",\n");
    out.push_str("          \"informationUri\": \"https://example.org/o2\",\n");
    out.push_str("          \"version\": \"0.1.0\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, name, desc)) in RULES.iter().enumerate() {
        let _ = writeln!(
            out,
            "            {{\"id\": \"{id}\", \"name\": \"{name}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}",
            json_escape(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        );
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
}

fn finish(out: &mut String, objects: Vec<String>) {
    if !objects.is_empty() {
        out.push_str(&objects.join(",\n"));
        out.push('\n');
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
}

/// Serializes a pipeline report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &PipelineReport, program: &Program) -> String {
    let mut out = String::new();
    header(&mut out, None);
    finish(&mut out, result_objects(report, program, None));
    out
}

/// Serializes a whole corpus as one SARIF 2.1.0 document: a single run
/// (`automationDetails.id` is `o2/batch`), results grouped by program in
/// ascending program-name order, every result carrying its program name
/// in `properties.program`. Each failed program contributes one
/// `o2/analysis-error` result at level `error`, carrying the program
/// name and failing stage in `properties`, merged into the same order.
/// That rule is referenced by id only (not added to the driver's rule
/// array), so a corpus with no errors carries no trace of it. The bytes
/// are a pure function of the entries — worker count and claim order of
/// the batch run that produced them cannot leak in.
pub fn corpus_sarif_with_errors(
    entries: &[(&str, &PipelineReport, &Program)],
    errors: &[(&str, &o2_ir::O2Error)],
) -> String {
    let mut groups: Vec<(&str, Vec<String>)> = entries
        .iter()
        .map(|&(name, report, program)| (name, result_objects(report, program, Some(name))))
        .collect();
    for &(name, err) in errors {
        groups.push((name, vec![error_result(name, err)]));
    }
    groups.sort_by_key(|&(name, _)| name);
    let mut out = String::new();
    header(&mut out, Some("o2/batch"));
    let mut objects = Vec::new();
    for (_, objs) in groups {
        objects.extend(objs);
    }
    finish(&mut out, objects);
    out
}

fn error_result(name: &str, err: &o2_ir::O2Error) -> String {
    let mut out = String::new();
    out.push_str("        {\n");
    out.push_str("          \"ruleId\": \"o2/analysis-error\",\n");
    out.push_str("          \"level\": \"error\",\n");
    let _ = writeln!(
        out,
        "          \"message\": {{\"text\": \"{}\"}},",
        json_escape(&err.to_string())
    );
    let _ = writeln!(
        out,
        "          \"properties\": {{\"program\": \"{}\", \"stage\": \"{}\"}}",
        json_escape(name),
        err.stage()
    );
    out.push_str("        }");
    out
}
