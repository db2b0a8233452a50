//! # pas-spec — PASDL, the text front-end for scheduling problems
//!
//! A small declarative language so power-aware scheduling problems
//! and schedules can live in files, diffs and bug reports (the
//! workspace intentionally has no serde format dependency — an EDA
//! tool's netlist-style text front-end fits the domain better):
//!
//! ```text
//! problem "demo" {
//!   pmax 16W
//!   pmin 14W
//!   background 2.5W
//!   resource A compute
//!   task a on A delay 5s power 6W
//!   task b on A delay 10s power 6W
//!   precedence a -> b   # b after a completes
//!   max a -> b 50s      # …but within 50 s
//! }
//! ```
//!
//! * [`parse_problem`] / [`parse_schedule`] — parsing with
//!   line-numbered errors;
//! * [`parse_problem_spanned`] — parsing that keeps per-statement
//!   byte spans so `pas-lint` diagnostics point into the source;
//! * [`print_problem`] / [`print_schedule`] — the inverse printers
//!   (round-trip tested), and [`write_problem`], which streams the
//!   same text into any `fmt::Write`;
//! * the `impacct-cli` binary — schedule / validate / lint /
//!   pretty-print PASDL files from the command line.
//!
//! ## Example
//!
//! ```
//! use pas_spec::{parse_problem, print_problem};
//!
//! let problem = parse_problem(
//!     "problem \"p\" { pmax 9W resource A task t on A delay 2s power 1W }",
//! )?;
//! let text = print_problem(&problem);
//! assert_eq!(parse_problem(&text)?.name(), "p");
//! # Ok::<(), pas_spec::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod parser;
mod printer;

pub use parser::{
    parse_problem, parse_problem_full, parse_problem_spanned, parse_schedule, ParseError,
    ParsedProblem, SpannedProblem,
};
pub use printer::{print_problem, print_problem_full, print_schedule, write_problem};
