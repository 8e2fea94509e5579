//! Rule: `loop-thread-nonblocking`.
//!
//! The wire server's event loop (`crates/wire/src/reactor.rs`) runs cheap
//! requests to completion itself, on the one thread every connection's
//! I/O shares — so a service call made from that file must be one that
//! cannot block: no tenant rehydration (store I/O), no `flush` (parks on
//! the retrain workers), no condvar wait on a single-flight load. The
//! service offers exactly such entry points, the hot-only `*_if_hot`
//! family plus `health`; everything else reaches the service through
//! `server::execute`, on an executor thread. This rule holds the file to
//! that list: any `service.<method>(` whose method is not on it is a
//! finding, whether the receiver is spelled `shared.service` or was
//! bound to a local named `service` first.

use crate::rules::{Context, Finding, Rule};
use crate::source::{FileKind, SourceFile};

pub struct LoopThreadNonblocking;

pub const NAME: &str = "loop-thread-nonblocking";

/// The one file whose code runs on the event-loop thread.
const LOOP_FILE: &str = "crates/wire/src/reactor.rs";

/// `SmartpickService` entry points that claim nothing, wait for nothing
/// and load nothing.
const NONBLOCKING: &[&str] = &[
    "determine_if_hot",
    "predict_if_hot",
    "report_run_if_hot",
    "health",
];

impl Rule for LoopThreadNonblocking {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "the wire event loop may only call the service's non-blocking entry points"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Src || file.rel != LOOP_FILE {
            return;
        }
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            // `service . <method> (`
            if !t.is_ident("service") || !toks.get(i + 1).is_some_and(|d| d.is_punct('.')) {
                continue;
            }
            let Some(method) = toks.get(i + 2) else {
                continue;
            };
            if !toks.get(i + 3).is_some_and(|p| p.is_punct('('))
                || NONBLOCKING.contains(&method.text.as_str())
                || file.is_test_line(method.line)
            {
                continue;
            }
            out.push(Finding::new(
                NAME,
                file,
                method.line,
                format!(
                    "`service.{}()` may block (rehydration, flush, a condvar wait) and this file \
                     runs on the event-loop thread; call one of {} or hand the request to an \
                     executor",
                    method.text,
                    NONBLOCKING.join("/")
                ),
            ));
        }
    }
}
