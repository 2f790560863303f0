//! Concrete test cases generated from explored paths.

use crate::errors::TerminationReason;
use crate::state::{ExecutionState, PathChoice};
use c9_expr::Assignment;
use c9_solver::Solver;
use serde::{Deserialize, Serialize};

/// One concrete input binding of a test case.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputBinding {
    /// Name of the symbolic input (e.g. `"packet0[3]"`).
    pub name: String,
    /// The concrete value the solver chose.
    pub value: u64,
    /// Width of the input in bits.
    pub width_bits: u32,
}

/// A concrete test case: inputs that drive the program down one explored
/// path, together with the path itself and how it ended.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TestCase {
    /// Inputs in symbol-allocation order.
    pub inputs: Vec<InputBinding>,
    /// The decisions taken along the path.
    pub path: Vec<PathChoice>,
    /// How the path terminated.
    pub termination: TerminationReason,
    /// Instructions executed along the path.
    pub instructions: u64,
}

impl TestCase {
    /// Builds a test case for a terminated state by solving its path
    /// constraints. Returns `None` when the constraints cannot be solved
    /// (which normally cannot happen for a feasible path).
    pub fn from_state(state: &ExecutionState, solver: &Solver) -> Option<TestCase> {
        let termination = state.termination.clone()?;
        let model = if state.constraints.is_empty() {
            Assignment::new()
        } else {
            solver.get_model(&state.constraints)?
        };
        let inputs = state
            .symbols
            .iter()
            .map(|info| InputBinding {
                name: info.name,
                value: model.get(info.id).unwrap_or(0),
                width_bits: info.width.bits(),
            })
            .collect();
        Some(TestCase {
            inputs,
            path: state.path.clone(),
            termination,
            instructions: state.total_instructions(),
        })
    }

    /// Whether the test case exposes a bug.
    pub fn is_bug(&self) -> bool {
        self.termination.is_bug()
    }

    /// Reassembles the bytes of all inputs whose names start with `prefix`,
    /// in allocation order — e.g. the bytes of one symbolic packet.
    pub fn bytes_with_prefix(&self, prefix: &str) -> Vec<u8> {
        self.inputs
            .iter()
            .filter(|b| b.name.starts_with(prefix) && b.width_bits == 8)
            .map(|b| b.value as u8)
            .collect()
    }
}
