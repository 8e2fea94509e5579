//! Fixture for the `loop-thread-nonblocking` rule. Never compiled — lexed
//! by `rules_fixtures.rs` as if it were `crates/wire/src/reactor.rs`, the
//! one file whose code runs on the event-loop thread.

fn positive_blocking_resolve(shared: &Shared, tenant: &str, query: &QueryProfile) -> Response {
    // Rehydrates a cold tenant from the store, on the loop.
    answer(shared.service.determine(tenant, query, 7)) // POSITIVE
}

fn positive_flush_split_by_rustfmt(shared: &Shared) -> bool {
    shared
        .service
        .flush() // POSITIVE: parks until the retrain workers drain
}

fn positive_through_a_local(shared: &Shared, tenant: &str, run: CompletedRun) {
    let service = &shared.service;
    let _ = service.report_run(tenant, run); // POSITIVE: the retry loop re-resolves
}

fn negative_hot_only_entry_points(shared: &Shared, tenant: &str, query: &QueryProfile) {
    let _ = shared.service.determine_if_hot(tenant, query, 7, GATE); // negative
    let _ = shared
        .service
        .report_run_if_hot(tenant, boxed_run()); // negative
    let _ = shared.service.health(); // negative: a few short locks, no waits
}

fn negative_not_a_call_on_the_service(shared: &Shared) -> Arc<SmartpickService> {
    Arc::clone(&shared.service) // negative: no method is called on it
}

fn negative_through_execute(request: Request, shared: &Shared) -> Response {
    execute(request, shared) // negative: runs on an executor thread
}

fn allowlisted(shared: &Shared, tenant: &str) -> Result<TenantStats, ServiceError> {
    // lint:allow(loop-thread-nonblocking, reason = "fixture: demonstrates suppression")
    shared.service.tenant_stats(tenant)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt(shared: &Shared) {
        assert!(shared.service.flush()); // negative: test region
    }
}
