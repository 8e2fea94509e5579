//! # smartpick-workloads
//!
//! Benchmark workloads for the Smartpick reproduction: profile-based
//! generators for the three suites the paper evaluates (§6.1) —
//!
//! * **TPC-DS** ([`tpcds`]): compute- and I/O-intensive queries with many
//!   dependent map and shuffle stages (6–16). The paper trains on queries
//!   11, 49, 68, 74 and 82 (short-, mid- and long-running representatives)
//!   and uses 2, 4, 18, 55 and 62 as *alien* queries for the Similarity
//!   Checker experiment (§6.5.1).
//! * **TPC-H** ([`tpch`]): SQL-like queries with fewer stages (2–6);
//!   query 3 drives the data-growth experiment (§6.5.2).
//! * **Word Count** ([`wordcount`]): a simple I/O-bound two-stage job, used
//!   as the brand-new workload for retraining (§6.5.2).
//!
//! Profiles are constructed at a given input size (the paper generates
//! 100 GB, then 500 GB for the growth experiment) and carry structurally
//! representative SQL so the Similarity Checker has real text to parse.
//!
//! ## Example
//!
//! ```
//! use smartpick_workloads::tpcds;
//!
//! let q11 = tpcds::query(11, 100.0).expect("q11 is in the catalog");
//! assert!(q11.stages.len() >= 6 && q11.stages.len() <= 16);
//! assert!(!q11.sql.is_empty());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod suite;
pub mod tpcds;
pub mod tpch;
pub mod wordcount;

pub use suite::{Benchmark, QueryRef};
