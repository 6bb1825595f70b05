//! The example corpus and the Tables 1/2 report of the `reshuffle`
//! workspace.
//!
//! [`examples`] holds the `.g` sources the `tables` binary, the
//! integration tests and the server's load generator share; [`tables`]
//! collects and renders the Tables 1/2 report (text and
//! machine-readable JSON via [`json`]).

#![warn(missing_docs)]

pub mod examples;
pub mod json;
pub mod tables;
