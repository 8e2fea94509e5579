//! Observability tour: the scrape envelope, the structured event log,
//! health, and supervised retrain-worker recovery — in one process.
//!
//! The demo trains a small template, serves some predictions, feeds
//! feedback through the retrain workers, then kills one worker with the
//! `poison_worker` fault-injection hook and watches the worker restart
//! itself: the incident shows up in the event log, the restart counter,
//! and the health report, and no queued report is lost.
//!
//! The envelope printed here is byte-for-byte what `Request::Scrape`
//! returns over the wire (`WireClient::scrape`).
//!
//! ```sh
//! cargo run --release --example obs_demo     # or: just scrape-demo
//! ```

use std::time::Duration;

use smartpick::cloudsim::{CloudEnv, Provider};
use smartpick::core::driver::Smartpick;
use smartpick::core::properties::SmartpickProperties;
use smartpick::core::training::TrainOptions;
use smartpick::ml::forest::ForestParams;
use smartpick::obs::MetricValue;
use smartpick::service::{RestartPolicy, ServiceConfig, SmartpickService};
use smartpick::workloads::tpcds;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deliberately small template so the demo starts fast.
    let queries: Vec<_> = [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect();
    let opts = TrainOptions {
        configs_per_query: 5,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: 10,
            ..ForestParams::default()
        },
        max_vm: 3,
        max_sl: 3,
        ..TrainOptions::default()
    };
    let (template, _) = Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &queries,
        &opts,
        42,
    )?;

    let service = SmartpickService::new(ServiceConfig {
        retrain_workers: 2,
        restart_policy: RestartPolicy::Restart {
            max_retries: 3,
            backoff: Duration::from_millis(20),
        },
        supervisor_poll: Duration::from_millis(5),
        ..ServiceConfig::default()
    });
    service.register_fork("acme", &template, 7)?;
    service.register_fork("globex", &template, 8)?;

    // Serve some work: predictions on the read path, completed runs fed
    // back through the sharded retrain queues.
    let query = tpcds::query(82, 100.0).expect("catalog query");
    for seed in 0..4u64 {
        service.submit("acme", &query, seed)?;
        service.submit("globex", &query, seed)?;
    }
    assert!(service.flush(), "all shards healthy, flush completes");

    // --- The scrape envelope -------------------------------------------
    let envelope = service.scrape(8);
    println!(
        "scrape v{}: {} metrics, {} recent events",
        envelope.version,
        envelope.metrics.len(),
        envelope.events.len()
    );
    for name in [
        "service.predictions",
        "service.reports_applied",
        "tenant.acme.predictions",
        "service.tenants",
        "service.predict_latency",
    ] {
        match envelope.metric(name).map(|m| &m.value) {
            Some(MetricValue::Counter(n)) => println!("  {name} = {n}"),
            Some(MetricValue::Gauge(n)) => println!("  {name} = {n}"),
            Some(MetricValue::Histogram(h)) => println!(
                "  {name}: n={} p50={:.1}µs p99={:.1}µs",
                h.count, h.p50_us, h.p99_us
            ),
            None => println!("  {name} (unregistered)"),
        }
    }
    println!("\nrecent events:");
    for ev in &envelope.events {
        println!(
            "  #{:<3} +{:>7}µs {:<5} {:<20} tenant={:<8} shard={}",
            ev.seq,
            ev.at_us,
            ev.severity.name(),
            ev.kind.name(),
            ev.tenant.as_deref().unwrap_or("-"),
            ev.shard.map_or("-".to_owned(), |s| s.to_string()),
        );
    }

    // The envelope is plain serde data — this JSON is exactly what a
    // wire scraper receives.
    let json = serde_json::to_string(&envelope)?;
    println!("\nenvelope as JSON: {} bytes", json.len());

    // --- Fault injection: kill a retrain worker mid-stream -------------
    println!("\npoisoning retrain worker shard 0 ...");
    service.poison_worker(0)?;
    let status = loop {
        let shard0 = service.health().workers.swap_remove(0);
        if shard0.restarts >= 1 && shard0.state == "alive" {
            break shard0;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    println!(
        "shard 0 restarted itself (restarts={}, last panic: {})",
        status.restarts,
        status.last_panic.as_deref().unwrap_or("-"),
    );

    // The incident is on the record: events, counters, and health.
    let envelope = service.scrape(8);
    println!("\nevents after the incident:");
    for ev in &envelope.events {
        println!(
            "  #{:<3} {:<5} {:<20} {}",
            ev.seq,
            ev.severity.name(),
            ev.kind.name(),
            ev.detail.as_deref().unwrap_or(""),
        );
    }
    println!(
        "\nservice.worker.restarts = {}, service.worker.panics = {}",
        envelope.counter("service.worker.restarts"),
        envelope.counter("service.worker.panics"),
    );

    let health = service.health();
    println!(
        "health: live={} ready={} workers={:?}",
        health.live,
        health.ready,
        health
            .workers
            .iter()
            .map(|w| format!("#{} {} r{}", w.shard, w.state, w.restarts))
            .collect::<Vec<_>>(),
    );

    // Post-restart the service still takes work: nothing was lost.
    service.submit("acme", &query, 99)?;
    assert!(service.flush(), "restarted shard drains its queue");
    let envelope = service.scrape(0);
    println!(
        "after recovery: {} reports enqueued, {} applied, 0 pending",
        envelope.counter("service.reports_enqueued"),
        envelope.counter("service.reports_applied")
    );
    Ok(())
}
