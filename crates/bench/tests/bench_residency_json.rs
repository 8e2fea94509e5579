//! Guard for the committed `BENCH_residency.json` (written by
//! `src/bin/bench_residency.rs`): the recorded 100k-tenant /
//! 1k-resident run parses, is internally consistent, and holds the
//! PR's residency bars — asserted on the *committed record*, not a
//! re-run, so the test is deterministic.

use serde::Value;
use smartpick_service::TenantStats;

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_residency.json");
    let text = std::fs::read_to_string(path).expect("BENCH_residency.json exists at the repo root");
    serde_json::from_str(&text).expect("BENCH_residency.json parses as JSON")
}

fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
    match obj {
        Value::Obj(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field `{key}`")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn rows<'a>(root: &'a Value, key: &str) -> &'a [Value] {
    match field(root, key) {
        Value::Arr(entries) => entries,
        other => panic!("`{key}` must be a list, got {other:?}"),
    }
}

#[test]
fn bench_residency_json_parses_and_is_internally_consistent() {
    let root = load();
    assert_eq!(field(&root, "bench"), &Value::Str("residency".to_owned()));

    let tenants = num(field(&root, "tenants"));
    let max_resident = num(field(&root, "max_resident"));
    assert!(
        tenants >= 100_000.0,
        "the committed record is the full-scale run, got {tenants} tenants"
    );
    assert!(
        max_resident <= tenants / 10.0,
        "the cap must be a small fraction of the registry ({max_resident} vs {tenants})"
    );

    let reg = rows(&root, "registration");
    assert!(reg.len() >= 4, "at least four registration checkpoints");
    let mut last_registered = 0.0;
    for row in reg {
        let registered = num(field(row, "registered"));
        let resident = num(field(row, "resident"));
        let rss = num(field(row, "rss_mb"));
        assert!(registered > last_registered, "checkpoints ordered");
        last_registered = registered;
        assert!(
            resident <= max_resident,
            "resident set bounded at every checkpoint: {resident} > {max_resident}"
        );
        assert!(rss > 0.0 && rss.is_finite(), "RSS recorded");
    }
    assert_eq!(last_registered, tenants, "last checkpoint is the full run");

    let latency = field(&root, "latency");
    for key in ["hot_capped_us", "hot_uncapped_us", "cold_hit_us"] {
        let v = num(field(latency, key));
        assert!(v > 0.0 && v.is_finite(), "`{key}` is a positive latency");
    }
    assert!(num(field(latency, "hot_samples")) >= 100.0);
    assert!(num(field(latency, "cold_samples")) >= 50.0);
}

/// The residency bars the PR quotes: 100k registered tenants fit under
/// a 1k-resident cap with bounded memory (the registry row is metadata;
/// evicted model state lives on disk; a cold tenant holds no metric
/// series), the scrape's cardinality follows the resident set, the
/// capped hot path is not measurably worse than the uncapped twin, and
/// a cold first touch — while paying for a snapshot load — stays well
/// inside interactive latency.
#[test]
fn bench_residency_json_holds_the_residency_bars() {
    let root = load();
    let max_resident = num(field(&root, "max_resident"));

    let resident_after = num(field(&root, "resident_after_sweep"));
    assert!(
        resident_after <= max_resident,
        "final resident set within the cap: {resident_after} > {max_resident}"
    );

    let reg = rows(&root, "registration");
    let final_rss = num(field(reg.last().expect("checkpoints"), "rss_mb"));
    assert!(
        final_rss <= 154.0,
        "100k registered tenants under a 1k cap cost 154 MiB while every one of them \
         kept eight registered counters; without them it must be no more, got {final_rss} MiB"
    );

    // Cardinality follows the resident set, not the 100k registered.
    // (The scrape's size in bytes is recorded, not barred: 1k resident
    // tenants legitimately approach the default frame cap.)
    let registry_metrics = num(field(&root, "registry_metrics"));
    let scrape_metrics = num(field(&root, "scrape_metrics"));
    assert_eq!(
        scrape_metrics,
        registry_metrics + TenantStats::SCRAPE_ROWS as f64 * resident_after,
        "process series + a fixed number of rows per resident tenant"
    );
    assert!(num(field(&root, "scrape_binary_bytes")) > 0.0);

    let latency = field(&root, "latency");
    let hot_capped = num(field(latency, "hot_capped_us"));
    let hot_uncapped = num(field(latency, "hot_uncapped_us"));
    let cold_hit = num(field(latency, "cold_hit_us"));
    assert!(
        hot_capped <= 3.0 * hot_uncapped,
        "the capped hot path must track the uncapped twin \
         ({hot_capped} us vs {hot_uncapped} us)"
    );
    assert!(
        cold_hit > hot_capped,
        "a cold first touch pays for rehydration ({cold_hit} us vs {hot_capped} us hot)"
    );
    assert!(
        cold_hit < 100_000.0,
        "a cold first touch stays interactive (<100 ms), got {cold_hit} us"
    );
}
