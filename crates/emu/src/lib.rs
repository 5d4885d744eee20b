//! Functional emulator for the UBRC ISA.
//!
//! The emulator executes programs architecturally — one instruction at a
//! time, with exact semantics — and emits an [`ExecRecord`] per retired
//! instruction. The timing simulator (`ubrc-sim`) consumes this stream as
//! its oracle: functional execution runs ahead of the modeled pipeline,
//! which is the standard "execution-driven, functional-first"
//! organization (the paper built the same split on SimpleScalar).
//!
//! # Examples
//!
//! ```
//! use ubrc_emu::Machine;
//! use ubrc_isa::assemble;
//!
//! let program = assemble(
//!     "main: li   r1, 10
//!           li   r2, 0
//!     loop: add  r2, r2, r1
//!           subi r1, r1, 1
//!           bnez r1, loop
//!           halt",
//! )?;
//! let mut m = Machine::new(program);
//! m.run(1_000_000)?;
//! assert_eq!(m.int_reg(2), 55); // 10 + 9 + ... + 1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod machine;
mod memory;
mod record;

pub use machine::{EmuError, Machine, StepOutcome, DEFAULT_MEM_SIZE};
pub use record::ExecRecord;
