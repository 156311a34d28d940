//! The repository benchmark: `serve`, `storm` and `verify` workloads
//! driven through conch's public API. See `README.md` in this directory.

pub mod adapter;
pub mod answers;
pub mod bugs;
pub mod gen;
pub mod stats;
pub mod trace;
pub mod workloads;
