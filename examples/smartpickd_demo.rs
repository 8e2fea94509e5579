//! smartpickd in action: three tenants, six client threads, predictions
//! racing live background retrains.
//!
//! ```sh
//! cargo run --release --example smartpickd_demo
//! ```

use std::sync::Arc;

use smartpick::cloudsim::{CloudEnv, Provider};
use smartpick::core::driver::Smartpick;
use smartpick::core::properties::SmartpickProperties;
use smartpick::service::{ServiceConfig, SmartpickService};
use smartpick::workloads::tpcds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One kick-start training run; every tenant forks the model.
    let training: Vec<_> = tpcds::TRAINING_QUERIES
        .iter()
        .take(4)
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let template = Smartpick::train(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties {
            // Aggressive trigger so retrains visibly fire during the demo.
            error_difference_trigger_secs: 5.0,
            ..SmartpickProperties::default()
        },
        &training,
        42,
    )?;

    let service = Arc::new(SmartpickService::new(ServiceConfig::default()));
    for (i, tenant) in ["acme", "globex", "initech"].iter().enumerate() {
        service.register_fork(*tenant, &template, 100 + i as u64)?;
    }
    println!("registered tenants: {:?}", service.tenants());

    // Six client threads hammer the service with mixed tenants.
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || -> Result<(), String> {
                for op in 0..10u64 {
                    let tenant = ["acme", "globex", "initech"][((t + op) % 3) as usize];
                    let q = tpcds::TRAINING_QUERIES[(op % 4) as usize];
                    let query = tpcds::query(q, 100.0).ok_or_else(|| format!("no catalog q{q}"))?;
                    let outcome = service
                        .submit(tenant, &query, t * 1000 + op)
                        .map_err(|e| e.to_string())?;
                    if op == 0 {
                        println!(
                            "thread {t}: {tenant}/q{q} -> {} predicted {:5.1}s actual {:5.1}s",
                            outcome.determination.allocation,
                            outcome.determination.predicted_seconds,
                            outcome.report.seconds(),
                        );
                    }
                }
                Ok(())
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread panicked")?;
    }

    service.flush();
    // Service totals come from the scrape, the same envelope a wire
    // client reads.
    let scrape = service.scrape(0);
    println!(
        "\nservice: {} tenants, {} predictions, {} reports applied, {} retrains",
        scrape.gauge("service.tenants"),
        scrape.counter("service.predictions"),
        scrape.counter("service.reports_applied"),
        scrape.counter("service.retrains"),
    );
    if let Some(latency) = scrape.histogram("service.predict_latency") {
        println!(
            "read latency: p50 {} us, p99 {} us over {} reads",
            latency.p50_us, latency.p99_us, latency.count,
        );
    }
    for tenant in service.tenants() {
        let ts = service.tenant_stats(&tenant)?;
        println!(
            "  {tenant:8} gen {:3}  applied {:2}  retrains {:2}  snapshot age {:?}",
            ts.snapshot_generation, ts.reports_applied, ts.retrains, ts.snapshot_age,
        );
    }
    Ok(())
}
