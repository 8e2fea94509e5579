//! The scrape's size follows the resident set, not the registered one:
//! 2 000 tenants under a 200-resident cap scrape through a *default*
//! client — default frame cap — and registering them never grows the
//! metrics registry.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use smartpick_service::{PersistenceConfig, ServiceConfig, SmartpickService, TenantStats};
use smartpick_wire::{WireClient, WireServer, WireServerConfig};

mod common;
use common::template;

const TENANTS: usize = 2_000;
const MAX_RESIDENT: usize = 200;

#[test]
fn a_default_client_scrapes_two_thousand_tenants_under_a_two_hundred_cap() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"))
        .join(format!("scrape-cardinality-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = Arc::new(
        SmartpickService::open(
            &dir,
            ServiceConfig {
                max_resident_tenants: Some(MAX_RESIDENT),
                persistence: Some(PersistenceConfig::at(&dir)),
                ..ServiceConfig::default()
            },
        )
        .unwrap(),
    );
    let tpl = template();
    let server = WireServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        template(),
        WireServerConfig::default(),
    )
    .unwrap();

    let registry = service.observability().metrics();
    let series_before = registry.len();
    for t in 0..TENANTS {
        service
            .register_fork(format!("tenant-{t:04}"), &tpl, t as u64)
            .unwrap();
    }
    assert_eq!(
        registry.len(),
        series_before,
        "registering tenants must not register metrics"
    );
    service.residency_sweep();
    let resident = service.resident_tenants();
    assert!(
        (1..=MAX_RESIDENT).contains(&resident),
        "{resident} resident"
    );

    let mut client = WireClient::connect(server.local_addr()).unwrap();
    client
        .set_io_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let envelope = client.scrape(0).unwrap();
    let bound = registry.len() + TenantStats::SCRAPE_ROWS * MAX_RESIDENT;
    assert!(
        envelope.metrics.len() <= bound,
        "{} samples for {resident} resident tenants (bound {bound})",
        envelope.metrics.len()
    );
    let tenant_rows = envelope
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("tenant."))
        .count();
    assert_eq!(
        tenant_rows % TenantStats::SCRAPE_ROWS,
        0,
        "a tenant is listed whole or not at all"
    );
    assert!(tenant_rows > 0 && tenant_rows <= TenantStats::SCRAPE_ROWS * MAX_RESIDENT);
    assert!(envelope.metrics.windows(2).all(|w| w[0].name < w[1].name));
    assert_eq!(envelope.gauge("service.tenants"), TENANTS as i64);

    // A cold tenant is not in the scrape, and is still answerable.
    let cold = (0..TENANTS)
        .map(|t| format!("tenant-{t:04}"))
        .find(|id| {
            envelope
                .metric(&format!("tenant.{id}.predictions"))
                .is_none()
        })
        .expect("1 800 tenants are cold");
    assert_eq!(client.tenant_stats(&cold).unwrap().tenant, cold);

    drop(server);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
