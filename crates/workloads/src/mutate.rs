//! Deterministic single-function edits, for exercising the incremental
//! analysis database.
//!
//! The equivalence tests need a "developer touched one function" version
//! of every workload: [`single_function_edit`] duplicates one existing
//! field-access instruction inside one method, which changes that
//! method's body digest (and usually its access trace) while leaving the
//! program valid — no new variables, fields, or classes.

use o2_ir::{MethodId, Program};

/// Applies a deterministic single-function edit: picks the *last* method
/// (in id order) whose body contains a field or static access and
/// duplicates that method's last such instruction in place. Returns the
/// mutated program and the qualified name of the edited method.
///
/// # Panics
///
/// Panics if no method in the program performs any memory access (no
/// such workload exists in this crate).
pub fn single_function_edit(program: &Program) -> (Program, String) {
    let mut new = program.clone();
    for m in (0..new.methods.len()).rev() {
        let method = &mut new.methods[m];
        let target = method
            .body
            .iter()
            .rposition(|i| i.stmt.field_access().is_some() || i.stmt.static_access().is_some());
        if let Some(idx) = target {
            let dup = method.body[idx].clone();
            method.body.insert(idx + 1, dup);
            let qname = program.method_qname(MethodId::from_usize(m));
            return (new, qname);
        }
    }
    panic!("no method with a memory access to edit");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::all_presets;
    use crate::realbugs::all_models;
    use o2_ir::{digest_diff, digest_program, validate};

    #[test]
    fn edit_changes_exactly_one_function() {
        for preset in all_presets() {
            let program = preset.generate().program;
            let (mutated, qname) = single_function_edit(&program);
            validate::assert_valid(&mutated);
            let diff = digest_diff(&digest_program(&program), &digest_program(&mutated));
            assert_eq!(diff.changed, vec![qname.clone()], "{}", preset.name);
            assert!(
                diff.added.is_empty() && diff.removed.is_empty(),
                "{}",
                preset.name
            );
        }
    }

    #[test]
    fn edit_is_deterministic() {
        for model in all_models() {
            let program = model.program;
            let (a, qa) = single_function_edit(&program);
            let (b, qb) = single_function_edit(&program);
            assert_eq!(qa, qb);
            assert_eq!(
                digest_program(&a).program,
                digest_program(&b).program,
                "{}",
                model.name
            );
        }
    }
}
