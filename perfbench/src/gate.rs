//! The correctness gate every simulated cell passes through, and the
//! functional reference it compares against.

use crate::workload::Cell;
use ubrc_sim::SimResult;
use ubrc_workloads::Workload;

/// Per-program functional reference: the instruction count of
/// `Machine::run` to halt, or why the program's own checks failed.
pub type Reference = Result<u64, String>;

/// Runs every program's architectural checks (`Workload::run_checks`:
/// assemble, emulate to halt, compare the expected registers and
/// memory) and keeps the functional instruction count of each.
pub fn references(programs: &[Workload]) -> Vec<Reference> {
    programs
        .iter()
        .map(|w| {
            w.run_checks()
                .map(|m| m.instruction_count())
                .map_err(|e| format!("{}: checks failed: {e}", w.name))
        })
        .collect()
}

/// Decides whether one simulated cell is correct. A cell fails when the
/// runner or simulator reported an error (`outcome` carries its text),
/// when a member program's own checks failed, or when the instructions
/// a thread retired differ from the functional count of the same
/// program.
pub fn check_cell<'a>(
    cell: &Cell,
    outcome: Result<&'a SimResult, String>,
    refs: &[Reference],
) -> Result<&'a SimResult, String> {
    let result = outcome.map_err(|e| format!("{}: {e}", cell.label))?;
    let mut expected_total = 0;
    for (tid, &p) in cell.members.iter().enumerate() {
        let expected = refs[p].clone()?;
        expected_total += expected;
        let retired = result.thread_retired.get(tid).copied().unwrap_or(0);
        if retired != expected {
            return Err(format!(
                "{}: thread {tid} retired {retired} instructions, functional run executed {expected}",
                cell.label
            ));
        }
    }
    if result.retired != expected_total {
        return Err(format!(
            "{}: retired {} instructions, functional runs executed {expected_total}",
            cell.label, result.retired
        ));
    }
    Ok(result)
}
