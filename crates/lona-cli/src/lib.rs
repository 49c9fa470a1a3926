//! # lona-cli
//!
//! Command-line front end for the LONA framework. `lona help` prints
//! every flag; the subcommands are:
//!
//! ```text
//! lona stats    <edgelist|HOST:PORT>            structural summary, or a server's counters
//! lona generate <kind> --out <file> [...]       synthesize a dataset
//! lona compile  <edgelist> --out <file> [...]   pack graph, scores and indexes
//! lona update   <edgelist> <deltafile> [...]    apply a delta, repair indexes
//! lona compact  <compiled> --out <file> [...]   re-pack a compiled container
//! lona topk     <edgelist|compiled> [...]       run a top-k query
//! lona batch    <edgelist|compiled> <queries>   planner-driven batch run
//! lona shard    <edgelist> --shards N [...]     partition report
//! lona serve    <edgelist|compiled> [...]       resident query service
//! lona client   <HOST:PORT> <queries>           run queries against `lona serve`
//! ```
//!
//! The compiled container that `lona compile` writes is the only
//! binary file format; every other input and output is text.
//!
//! Argument parsing is hand-rolled (no CLI dependency) and lives in
//! [`args`]; command implementations live in [`commands`] so they are
//! unit-testable without spawning processes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod commands;
