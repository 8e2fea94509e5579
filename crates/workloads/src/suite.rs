//! A registry over all benchmark suites.

use std::fmt;

use smartpick_engine::QueryProfile;

use crate::{tpcds, tpch, wordcount};

/// The benchmark suites of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// TPC-DS: compute/I-O intensive, 6–16 stages.
    TpcDs,
    /// TPC-H: SQL-like, 2–6 stages.
    TpcH,
    /// Word Count: simple I/O-bound job.
    WordCount,
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Benchmark::TpcDs => f.write_str("TPC-DS"),
            Benchmark::TpcH => f.write_str("TPC-H"),
            Benchmark::WordCount => f.write_str("WordCount"),
        }
    }
}

/// A reference to one query of one suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryRef {
    /// The suite.
    pub benchmark: Benchmark,
    /// Query number within the suite (ignored for Word Count).
    pub number: u32,
}

impl QueryRef {
    /// TPC-DS query `n`.
    pub fn tpcds(n: u32) -> Self {
        QueryRef {
            benchmark: Benchmark::TpcDs,
            number: n,
        }
    }

    /// Materialises the profile at `input_gb`, if the query is modelled.
    pub fn profile(&self, input_gb: f64) -> Option<QueryProfile> {
        match self.benchmark {
            Benchmark::TpcDs => tpcds::query(self.number, input_gb),
            Benchmark::TpcH => tpch::query(self.number, input_gb),
            Benchmark::WordCount => Some(wordcount::query(input_gb)),
        }
    }
}

impl fmt::Display for QueryRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.benchmark {
            Benchmark::WordCount => write!(f, "WordCount"),
            b => write!(f, "{b} q{}", self.number),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDCOUNT: QueryRef = QueryRef {
        benchmark: Benchmark::WordCount,
        number: 0,
    };

    #[test]
    fn refs_resolve() {
        let tpch_q3 = QueryRef {
            benchmark: Benchmark::TpcH,
            number: 3,
        };
        assert!(QueryRef::tpcds(11).profile(100.0).is_some());
        assert!(tpch_q3.profile(100.0).is_some());
        assert!(WORDCOUNT.profile(100.0).is_some());
        assert!(QueryRef::tpcds(1234).profile(100.0).is_none());
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(QueryRef::tpcds(11).to_string(), "TPC-DS q11");
        assert_eq!(WORDCOUNT.to_string(), "WordCount");
    }
}
