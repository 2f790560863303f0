//! Concrete test cases generated from explored paths.
//!
//! A test case is its values: the path's [`SymbolManager`] chain, shared
//! with the state that ended (a clone is one reference-count increment),
//! and one solver-chosen value per symbol, dense in symbol-id order.
//! Input names are built only when a consumer asks for
//! [`TestCase::inputs`]; retiring a path, shipping its test case to the
//! coordinator and collecting it there never do.
//!
//! On the wire a test case is the chain's batch table (base name, width,
//! indexed, count per `fresh` / `fresh_bytes` call, oldest first), the
//! values, the path, the termination and the instruction count.

use crate::errors::TerminationReason;
use crate::state::{ExecutionState, PathChoice};
use c9_expr::{SymbolManager, Width};
use c9_solver::Solver;
use serde::{DecodeError, Deserialize, Reader, Serialize};
use std::fmt;

/// One concrete input binding of a test case, as [`TestCase::inputs`]
/// lists it.
#[derive(Clone, Debug, PartialEq, Eq)]
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
///
/// Equality and `Debug` are by content — input names, widths and values,
/// path, termination and instructions — never by how the symbol chain is
/// laid out or shared.
#[derive(Clone)]
pub struct TestCase {
    /// The symbols of the path, in allocation order.
    symbols: SymbolManager,
    /// `values[i]` is the value of symbol `i`.
    values: Vec<u64>,
    /// The decisions taken along the path.
    pub path: Vec<PathChoice>,
    /// How the path terminated.
    pub termination: TerminationReason,
    /// Instructions executed along the path.
    pub instructions: u64,
}

impl TestCase {
    /// A test case with the given inputs, each a symbol of its own under
    /// exactly its name.
    ///
    /// # Panics
    ///
    /// Panics if an input's width is zero or greater than 64 bits.
    pub fn new(
        inputs: Vec<InputBinding>,
        path: Vec<PathChoice>,
        termination: TerminationReason,
        instructions: u64,
    ) -> TestCase {
        let mut symbols = SymbolManager::new();
        let values = inputs
            .into_iter()
            .map(|input| {
                symbols.fresh(&input.name, Width::new(input.width_bits));
                input.value
            })
            .collect();
        TestCase {
            symbols,
            values,
            path,
            termination,
            instructions,
        }
    }

    /// Builds a test case for a terminated state by solving its path
    /// constraints. Returns `None` when the constraints cannot be solved
    /// (which normally cannot happen for a feasible path).
    pub fn from_state(state: &ExecutionState, solver: &Solver) -> Option<TestCase> {
        let termination = state.termination.clone()?;
        let len = state.symbols.len();
        let values = if state.constraints.is_empty() {
            vec![0; len]
        } else {
            solver.model_values(&state.constraints, len)?
        };
        Some(TestCase {
            symbols: state.symbols.clone(),
            values,
            path: state.path.clone(),
            termination,
            instructions: state.total_instructions(),
        })
    }

    /// The value of every input, in symbol-allocation order.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The inputs in symbol-allocation order, each name built as it is
    /// listed.
    pub fn inputs(&self) -> impl Iterator<Item = InputBinding> + '_ {
        self.symbols
            .iter()
            .zip(&self.values)
            .map(|(info, &value)| InputBinding {
                name: info.name,
                value,
                width_bits: info.width.bits(),
            })
    }

    /// Whether the test case exposes a bug.
    pub fn is_bug(&self) -> bool {
        self.termination.is_bug()
    }

    /// Reassembles the bytes of all inputs whose names start with `prefix`,
    /// in allocation order — e.g. the bytes of one symbolic packet.
    pub fn bytes_with_prefix(&self, prefix: &str) -> Vec<u8> {
        self.inputs()
            .filter(|b| b.name.starts_with(prefix) && b.width_bits == 8)
            .map(|b| b.value as u8)
            .collect()
    }

    /// The 64-bit FNV-1a hash of the content [`testcase_digest`] sums.
    fn content_hash(&self) -> u64 {
        use fmt::Write;
        let mut hash = Fnv1a::default();
        for input in self.inputs() {
            let _ = write!(
                hash,
                "{}\0{}\0{}\0",
                input.name, input.width_bits, input.value
            );
        }
        let _ = write!(
            hash,
            "{:?}\0{:?}\0{}",
            self.path, self.termination, self.instructions
        );
        hash.0
    }
}

/// An order-independent digest of a set of test cases: the wrapping sum of
/// each case's 64-bit FNV-1a hash over its content — every input's name,
/// width and value, then the path, the termination and the instruction
/// count. Two runs that generated the same test cases, in any order, on any
/// number of workers, over any transport, have the same digest.
pub fn testcase_digest<'a>(cases: impl IntoIterator<Item = &'a TestCase>) -> u64 {
    cases
        .into_iter()
        .fold(0u64, |sum, case| sum.wrapping_add(case.content_hash()))
}

/// A 64-bit FNV-1a hasher fed through `fmt::Write`, so formatted content is
/// hashed without being collected into a `String`.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

impl PartialEq for TestCase {
    fn eq(&self, other: &TestCase) -> bool {
        self.values == other.values
            && self.path == other.path
            && self.termination == other.termination
            && self.instructions == other.instructions
            && self
                .symbols
                .iter()
                .map(|info| (info.name, info.width))
                .eq(other.symbols.iter().map(|info| (info.name, info.width)))
    }
}

impl Eq for TestCase {}

impl fmt::Debug for TestCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestCase")
            .field("inputs", &self.inputs().collect::<Vec<_>>())
            .field("path", &self.path)
            .field("termination", &self.termination)
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl Serialize for TestCase {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.symbols.encode_to(out);
        self.values.encode_to(out);
        self.path.encode_to(out);
        self.termination.encode_to(out);
        self.instructions.encode_to(out);
    }
}

impl Deserialize for TestCase {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let symbols = SymbolManager::decode_from(r)?;
        // The length prefix is bounded by the input left, so the vector
        // below is sized by bytes received, never by a claimed count.
        let len = r.seq_len()?;
        if len != symbols.len() {
            return Err(DecodeError::new(
                "test-case values do not match its symbols",
            ));
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(u64::decode_from(r)?);
        }
        Ok(TestCase {
            symbols,
            values,
            path: Vec::decode_from(r)?,
            termination: TerminationReason::decode_from(r)?,
            instructions: u64::decode_from(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Environment, NullEnvironment};
    use crate::state::StateId;
    use c9_expr::{Assignment, Expr, ExprRef};
    use c9_ir::{Operand, Program, ProgramBuilder};
    use proptest::prelude::*;

    /// The eager builder `TestCase` replaced — one owned binding per
    /// symbol, looked up in the merged model — kept as the oracle
    /// [`TestCase::inputs`] is compared with.
    fn reference_inputs(symbols: &SymbolManager, model: &Assignment) -> Vec<InputBinding> {
        symbols
            .iter()
            .map(|info| InputBinding {
                name: info.name,
                value: model.get(info.id).unwrap_or(0),
                width_bits: info.width.bits(),
            })
            .collect()
    }

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 0, Some(c9_ir::Width::W32));
        f.ret(Some(Operand::word(0)));
        let main = f.finish();
        pb.set_entry(main);
        pb.finish()
    }

    /// One step of a path: an opcode, a size (batch length, width, which
    /// symbol), and a value.
    type Op = (u8, usize, u64);

    fn scripts() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..6, 0usize..300, any::<u64>()), 0..40)
    }

    /// Follows `script` from an initial state: allocate symbols, constrain
    /// them, fork. Returns the terminated state.
    fn run(script: &[Op]) -> ExecutionState {
        const NAMES: [&str; 4] = ["packet0", "arg", "", "a[b]"];
        let mut state =
            ExecutionState::initial(StateId(0), &program(), NullEnvironment.create_state());
        let mut syms: Vec<ExprRef> = Vec::new();
        for (step, &(op, size, value)) in script.iter().enumerate() {
            let name = NAMES[step % NAMES.len()];
            match op {
                0 => syms.push(state.fresh_symbolic(name, Width::new(1 + (size % 64) as u32))),
                1 => syms.extend(state.fresh_symbolic_bytes(name, size % 40)),
                2 | 3 if !syms.is_empty() => {
                    let sym = syms[size % syms.len()].clone();
                    let bound = Expr::const_(value & sym.width().mask(), sym.width());
                    state.add_constraint(if op == 2 {
                        Expr::ule(sym, bound)
                    } else {
                        Expr::eq(sym, bound)
                    });
                }
                4 => {
                    state.record_choice(PathChoice::Branch(value % 2 == 0));
                    state = state.fork(StateId(step as u64 + 1));
                }
                _ => {}
            }
        }
        state.terminate(TerminationReason::Exit(script.len() as i64));
        state
    }

    proptest! {
        /// The lazily named inputs of a test case are what the eager
        /// builder lists from the merged model, and solving them costs the
        /// solver exactly what the merged model did.
        #[test]
        fn prop_inputs_match_the_eager_reference(script in scripts()) {
            let state = run(&script);
            let (dense, merging) = (Solver::new(), Solver::new());
            let case = TestCase::from_state(&state, &dense);
            let model = if state.constraints.is_empty() {
                Some(Assignment::new())
            } else {
                merging.check_sat(&state.constraints).model()
            };
            prop_assert_eq!(dense.stats(), merging.stats());
            match (case, model) {
                (Some(case), Some(model)) => {
                    let inputs: Vec<InputBinding> = case.inputs().collect();
                    prop_assert_eq!(&inputs, &reference_inputs(&state.symbols, &model));
                    prop_assert_eq!(
                        case.values(),
                        inputs.iter().map(|i| i.value).collect::<Vec<_>>().as_slice()
                    );
                    // The same content under a differently built chain is
                    // the same test case, and so is its decoded copy.
                    let rebuilt = TestCase::new(
                        inputs,
                        case.path.clone(),
                        case.termination.clone(),
                        case.instructions,
                    );
                    prop_assert_eq!(&rebuilt, &case);
                    prop_assert_eq!(testcase_digest([&rebuilt]), testcase_digest([&case]));
                    let decoded: TestCase =
                        serde::from_bytes(&serde::to_bytes(&case)).expect("decodes");
                    prop_assert_eq!(&decoded, &case);
                }
                (None, None) => {}
                (case, model) => prop_assert!(false, "case {case:?}, model {model:?}"),
            }
        }
    }

    fn case(inputs: &[(&str, u64)], instructions: u64) -> TestCase {
        let inputs = inputs
            .iter()
            .map(|&(name, value)| InputBinding {
                name: name.into(),
                value,
                width_bits: 8,
            })
            .collect();
        TestCase::new(
            inputs,
            vec![PathChoice::Branch(true)],
            TerminationReason::Exit(0),
            instructions,
        )
    }

    #[test]
    fn the_digest_is_order_independent_and_content_sensitive() {
        let (a, b) = (case(&[("x", 1)], 10), case(&[("x", 2)], 10));
        assert_eq!(testcase_digest([&a, &b]), testcase_digest([&b, &a]));
        assert_eq!(testcase_digest([]), 0);
        for other in [
            case(&[("y", 1)], 10),
            case(&[("x", 1)], 11),
            case(&[("x", 1), ("y", 0)], 10),
        ] {
            assert_ne!(
                testcase_digest([&a]),
                testcase_digest([&other]),
                "{other:?}"
            );
        }
    }

    #[test]
    fn bytes_with_prefix_reassembles_a_packet() {
        let tc = case(&[("pkt[0]", 0x41), ("len", 7), ("pkt[1]", 0x42)], 1);
        assert_eq!(tc.bytes_with_prefix("pkt"), b"AB");
    }
}
