//! Figures-smoke-style guard: the committed `BENCH_determine.json`
//! (written by `src/bin/bench_determine.rs`) parses and carries the full
//! grid × forest matrix with sane numbers — so the recorded
//! prediction-latency budget cannot silently rot.

use serde::Value;

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_determine.json");
    let text = std::fs::read_to_string(path).expect("BENCH_determine.json exists at the repo root");
    serde_json::from_str(&text).expect("BENCH_determine.json parses as JSON")
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

#[test]
fn bench_determine_json_parses_with_the_full_matrix() {
    let root = load();
    assert_eq!(
        field(&root, "bench"),
        &Value::Str("determine_latency".to_owned())
    );
    let Value::Arr(configs) = field(&root, "configs") else {
        panic!("`configs` must be a list");
    };
    assert_eq!(
        configs.len(),
        smartpick_bench::DETERMINE_CONFIGS.len(),
        "one entry per benchmarked configuration"
    );
    for ((grid, trees), entry) in smartpick_bench::DETERMINE_CONFIGS.iter().zip(configs) {
        assert_eq!(
            field(entry, "grid"),
            &Value::Str(format!("{grid}x{grid}")),
            "configs must stay in DETERMINE_CONFIGS order"
        );
        assert_eq!(num(field(entry, "trees")) as usize, *trees);
        let baseline = num(field(entry, "baseline_us"));
        let vectorized = num(field(entry, "vectorized_us"));
        let speedup = num(field(entry, "speedup"));
        assert!(baseline > 0.0 && baseline.is_finite());
        assert!(vectorized > 0.0 && vectorized.is_finite());
        assert!(speedup > 0.0 && speedup.is_finite());
        assert!(
            (speedup - baseline / vectorized).abs() < 0.1,
            "recorded speedup must match the recorded medians"
        );
    }
}

#[test]
fn recorded_budget_meets_the_headline_target() {
    // The PR's acceptance bar: ≥3× median speedup on the 16×16 grid /
    // 50-tree configuration. This asserts on the *committed record*, not
    // a re-run, so it is deterministic.
    let root = load();
    let Value::Arr(configs) = field(&root, "configs") else {
        panic!("`configs` must be a list");
    };
    let entry = configs
        .iter()
        .find(|e| {
            field(e, "grid") == &Value::Str("16x16".to_owned())
                && num(field(e, "trees")) as usize == 50
        })
        .expect("the 16x16/50-tree configuration is recorded");
    assert!(
        num(field(entry, "speedup")) >= 3.0,
        "recorded 16x16/50 speedup regressed below 3x"
    );
}

#[test]
fn recorded_lattice_rows_hold_their_bars_against_the_batch_walk() {
    // `before_us` is what the vectorized path cost while it walked every
    // tree once per candidate. The committed record must show the region
    // descent at least 3x under it where the forest dominates (16x16
    // grid, 100 trees: 238.9 us before) and slower on no row.
    let root = load();
    let Value::Arr(configs) = field(&root, "configs") else {
        panic!("`configs` must be a list");
    };
    for entry in configs {
        let before = num(field(entry, "before_us"));
        let vectorized = num(field(entry, "vectorized_us"));
        let row = format!(
            "{:?}/{}",
            field(entry, "grid"),
            num(field(entry, "trees")) as usize
        );
        assert!(before > 0.0 && before.is_finite(), "{row}");
        assert!(
            vectorized <= before,
            "{row}: {vectorized} us recorded, slower than the {before} us before"
        );
        if field(entry, "grid") == &Value::Str("16x16".to_owned())
            && num(field(entry, "trees")) as usize == 100
        {
            assert_eq!(before, 238.9, "{row}: the before column is a constant");
            assert!(
                vectorized * 3.0 <= before,
                "{row}: {vectorized} us is not 3x under {before} us"
            );
        }
    }
}
