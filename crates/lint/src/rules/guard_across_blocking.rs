//! Rule: `guard-across-blocking`.
//!
//! A `std::sync`/`parking_lot` guard held while the thread blocks on
//! channel or socket I/O serializes every other thread that wants the
//! lock behind that I/O's tail latency — the exact failure mode the
//! wire server's reader/writer split exists to avoid. The rule tracks
//! guard bindings (`let g = x.lock()...;`) per brace scope and flags any
//! blocking call made while one is live. `Condvar::wait` is deliberately
//! *not* blocking here: it releases the guard while parked, which is the
//! queue's intended pattern.
//!
//! The reactor core's I/O sites are classified explicitly: its
//! `(&stream).read(buf)` / `.write(buf)` calls are *nonblocking*
//! (`O_NONBLOCK` sockets that return `WouldBlock`), and their non-empty
//! argument lists already keep them out of both the acquisition and the
//! blocking sets. Its one true parking point, `poller.wait(..)`, parks
//! the thread in the OS selector exactly like a channel `recv` — and
//! unlike `Condvar::wait` it releases no guard — so `.wait(` is treated
//! as blocking when the receiver is named `poller` (receiver-matched to
//! keep `Condvar::wait` permitted).

use crate::lexer::{Tok, TokKind};
use crate::rules::{Context, Finding, Rule};
use crate::source::{FileKind, SourceFile};

pub struct GuardAcrossBlocking;

pub const NAME: &str = "guard-across-blocking";

/// Method names that park the calling thread.
const BLOCKING_METHODS: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "connect",
    "connect_timeout",
    "join",
    "write_all",
    "read_exact",
    "read_to_end",
    "flush",
    "sleep",
];

/// Free functions / prefixed names that do framed socket I/O.
const BLOCKING_PREFIXES: &[&str] = &["read_frame", "write_frame"];

/// Receivers whose `.wait(..)` parks the thread in the OS selector
/// (the reactor's `Poller`). Matched by receiver name so that
/// `Condvar::wait` — which releases its guard while parked — stays
/// deliberately permitted.
const PARKING_WAIT_RECEIVERS: &[&str] = &["poller"];

/// Crates whose long-lived server threads the rule watches.
const SCOPED_CRATES: &[&str] = &["service", "wire", "core", "obs"];

#[derive(Debug)]
struct LiveGuard {
    name: String,
    depth: usize,
    line: u32,
}

impl Rule for GuardAcrossBlocking {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "a lock guard may not live across channel sends/recvs, socket I/O, or sleeps"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Src || !SCOPED_CRATES.contains(&file.crate_name.as_str()) {
            return;
        }
        let toks = &file.tokens;
        let mut guards: Vec<LiveGuard> = Vec::new();
        let mut depth = 0usize;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                i += 1;
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                i += 1;
                continue;
            }
            // `drop(name)` releases a guard early.
            if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                if let Some(name) = toks.get(i + 2) {
                    if name.kind == TokKind::Ident
                        && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
                    {
                        guards.retain(|g| g.name != name.text);
                    }
                }
                i += 3;
                continue;
            }
            // Acquisition: `.lock()` / `.read()` / `.write()` with empty parens.
            if is_acquisition(toks, i) {
                let acq_line = t.line;
                let chain_end = skip_recovery_chain(toks, i + 4);
                // Only a statement of exactly `let g = x.lock()<recovery>;`
                // binds the guard itself; anything longer (`let v =
                // rx.lock()...recv();`) consumes a temporary guard.
                let binds_guard = toks.get(chain_end).is_some_and(|t| t.is_punct(';'));
                if binds_guard {
                    if let Some(name) = binding_name(toks, i) {
                        if !file.is_test_line(acq_line) {
                            guards.push(LiveGuard {
                                name,
                                depth,
                                line: acq_line,
                            });
                        }
                        i = chain_end;
                        continue;
                    }
                }
                // Temporary guard: lives to the end of the statement.
                if !file.is_test_line(acq_line) {
                    let mut j = chain_end;
                    while j < toks.len()
                        && !toks[j].is_punct(';')
                        && !toks[j].is_punct('{')
                        && !toks[j].is_punct('}')
                    {
                        if let Some(what) = blocking_call(toks, j) {
                            out.push(Finding::new(
                                NAME,
                                file,
                                toks[j].line,
                                format!(
                                    "temporary guard from `.{}()` (line {}) is held across \
                                     blocking call `{}`",
                                    toks[i + 1].text,
                                    acq_line,
                                    what
                                ),
                            ));
                        }
                        j += 1;
                    }
                }
                i = chain_end;
                continue;
            }
            // Blocking call while any guard is live.
            if !guards.is_empty() && !file.is_test_line(t.line) {
                if let Some(what) = blocking_call(toks, i) {
                    for g in &guards {
                        out.push(Finding::new(
                            NAME,
                            file,
                            t.line,
                            format!(
                                "guard `{}` (acquired line {}) is held across blocking call `{}`",
                                g.name, g.line, what
                            ),
                        ));
                    }
                }
            }
            i += 1;
        }
    }
}

/// Whether the token at `i` begins `. lock ( )` / `. read ( )` /
/// `. write ( )` — an empty-argument guard acquisition.
fn is_acquisition(toks: &[Tok], i: usize) -> bool {
    toks[i].is_punct('.')
        && toks
            .get(i + 1)
            .is_some_and(|t| t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
}

/// Skips the poison-handling suffix chain after an acquisition:
/// `.unwrap()`, `.expect(...)`, `.unwrap_or_else(...)`, `?`. Returns the
/// index of the first token past the chain.
fn skip_recovery_chain(toks: &[Tok], mut i: usize) -> usize {
    loop {
        if toks.get(i).is_some_and(|t| t.is_punct('?')) {
            i += 1;
            continue;
        }
        if toks.get(i).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 1).is_some_and(|t| {
                t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
            })
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            // Balance the call's parens.
            let mut depth = 0usize;
            let mut j = i + 2;
            while j < toks.len() {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = (j + 1).min(toks.len());
            continue;
        }
        return i;
    }
}

/// If the acquisition at `i` is the right-hand side of a `let` binding,
/// the bound name. Scans back to the start of the statement.
fn binding_name(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            j += 1;
            break;
        }
    }
    if !toks.get(j)?.is_ident("let") {
        return None;
    }
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    let name = toks.get(k)?;
    if name.kind != TokKind::Ident {
        return None;
    }
    // `let g = ...` or `let g: T = ...`.
    let next = toks.get(k + 1)?;
    if next.is_punct('=') || next.is_punct(':') {
        return Some(name.text.clone());
    }
    None
}

/// If the token at `i` is a blocking call site, its display name.
/// Method calls are recognized after `.` or `::`; frame I/O helpers by
/// name prefix anywhere a call follows.
fn blocking_call(toks: &[Tok], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident {
        return None;
    }
    let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    if !called {
        return None;
    }
    let after_dot = i > 0 && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'));
    if after_dot && BLOCKING_METHODS.contains(&t.text.as_str()) {
        return Some(t.text.clone());
    }
    // The reactor's selector park: `poller.wait(..)`. Receiver-matched
    // so `Condvar::wait` (guard-releasing by design) is not caught.
    if t.is_ident("wait")
        && i >= 2
        && toks[i - 1].is_punct('.')
        && toks[i - 2].kind == TokKind::Ident
        && PARKING_WAIT_RECEIVERS
            .iter()
            .any(|r| toks[i - 2].text == *r || toks[i - 2].text.ends_with("_poller"))
    {
        return Some(format!("{}.wait", toks[i - 2].text));
    }
    if BLOCKING_PREFIXES.iter().any(|p| t.text.starts_with(p)) {
        return Some(t.text.clone());
    }
    None
}
