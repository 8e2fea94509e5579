//! Set-up: the trained template, the server over loopback, the tenants,
//! the oracle and the pre-minted reports.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smartpick_cloudsim::{CloudEnv, Provider};
use smartpick_core::driver::Smartpick;
use smartpick_core::properties::SmartpickProperties;
use smartpick_core::training::TrainOptions;
use smartpick_core::wp::{ConstraintMode, PredictionRequest, WorkloadPredictionService};
use smartpick_engine::QueryProfile;
use smartpick_ml::forest::ForestParams;
use smartpick_service::{CompletedRun, PersistenceConfig, ServiceConfig, SmartpickService};
use smartpick_wire::{codec, Response, WireClient, WireServer, WireServerConfig};
use smartpick_workloads::tpcds;

use crate::stream::{KeyDist, Seeds, Stream};

/// Reports pre-minted per run; batches cycle through them.
pub const MINTED_RUNS: usize = 64;

/// What distinguishes one workload from another. Everything not named here
/// is `WireServerConfig::default()` / `ServiceConfig::default()`, so the
/// benchmark follows whatever server core and codec the repo ships.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Search grid bound (`max_vm = max_sl = grid`).
    pub grid: u32,
    pub trees: usize,
    pub tenants: usize,
    pub durable: bool,
    pub max_resident: Option<usize>,
    /// Determines kept in flight on the one connection.
    pub in_flight: usize,
    pub dist: KeyDist,
    pub seeds: Seeds,
    /// Cycle 32-report batches + `Flush` beside the determines.
    pub feedback: bool,
    /// Drain the pipeline and run a residency sweep every this many
    /// determines. The harness drives sweeps because the background sweep
    /// is not safe under load today (see README, "Findings").
    pub sweep_every: Option<usize>,
}

impl Spec {
    /// The workload's request stream under `--seed`.
    pub fn stream(&self, seed: u64) -> Stream {
        Stream::new(seed, self.tenants, self.dist, self.seeds)
    }
}

pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let base = Spec {
        name: "determine_hot",
        grid: 8,
        trees: 10,
        tenants: 8,
        durable: false,
        max_resident: None,
        in_flight: 32,
        dist: KeyDist::Uniform,
        seeds: Seeds::Fresh,
        feedback: false,
        sweep_every: None,
    };
    Some(match name {
        "determine_hot" => base,
        "determine_heavy" => Spec {
            name: "determine_heavy",
            grid: 16,
            trees: 100,
            in_flight: 16,
            dist: KeyDist::ZipfKeys,
            seeds: Seeds::Pinned(4),
            ..base
        },
        "feedback_mixed" => Spec {
            name: "feedback_mixed",
            durable: true,
            in_flight: 16,
            feedback: true,
            ..base
        },
        "tenant_churn" => Spec {
            name: "tenant_churn",
            tenants: if quick { 200 } else { 2000 },
            durable: true,
            max_resident: Some(if quick { 20 } else { 200 }),
            in_flight: 16,
            dist: KeyDist::ZipfTenants,
            sweep_every: Some(512),
            ..base
        },
        _ => return None,
    })
}

/// The two queries every workload sizes: TPC-DS q82 and q68 at scale 100.
pub fn queries() -> Vec<QueryProfile> {
    [82u32, 68]
        .iter()
        .map(|&q| tpcds::query(q, 100.0).expect("catalog query"))
        .collect()
}

/// Kick-start training, seed 42 — the recipe behind `BENCH_determine.json`.
pub fn train_template(grid: u32, trees: usize) -> Smartpick {
    let opts = TrainOptions {
        configs_per_query: 6,
        burst_factor: 3,
        forest: ForestParams {
            n_trees: trees,
            ..ForestParams::default()
        },
        max_vm: grid,
        max_sl: grid,
        ..TrainOptions::default()
    };
    Smartpick::train_with_options(
        CloudEnv::new(Provider::Aws),
        SmartpickProperties::default(),
        &queries(),
        &opts,
        42,
    )
    .expect("template training succeeds")
    .0
}

/// The request a wire `Determine` stands for.
pub fn prediction_request(twin: &Smartpick, query: &QueryProfile, seed: u64) -> PredictionRequest {
    PredictionRequest {
        query: query.clone(),
        knob: twin.properties().knob,
        constraint: ConstraintMode::Hybrid,
        seed,
    }
}

/// A scratch directory under `benchmark/target/tmp`, removed on drop.
#[derive(Debug)]
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn new(tag: &str) -> TempRoot {
        static SERIAL: AtomicUsize = AtomicUsize::new(0);
        let dir = crate::target_dir().join("tmp").join(format!(
            "{}-{tag}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch root");
        TempRoot(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Service configuration of a durable store rooted at `dir`.
pub fn durable_config(
    dir: &Path,
    base: ServiceConfig,
    snapshot_every: Option<u64>,
) -> ServiceConfig {
    let mut persistence = PersistenceConfig::at(dir);
    if let Some(every) = snapshot_every {
        persistence.snapshot_every = every;
    }
    ServiceConfig {
        persistence: Some(persistence),
        ..base
    }
}

/// A multiply-xor fold over 8-byte words (FNV's prime): cheap enough to
/// fingerprint every response on the load generator's thread, and kept to
/// 32 bits because a run holds one per determine sent. Never 0, which
/// marks "no answer recorded".
pub fn fingerprint(bytes: &[u8]) -> u32 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    ((h >> 32) ^ h) as u32 | 1
}

/// The oracle: an in-process twin of the template. Forks share the
/// template's model until their first retrain, so until a report is sent
/// every tenant must answer `(query, seed)` exactly as the twin does.
pub struct Oracle {
    pub twin: Smartpick,
    /// Fingerprints of answers already computed. Bounded: pinned seeds fill
    /// a handful of entries, fresh seeds never ask twice.
    known: HashMap<(u8, u64), u32>,
    encoded: Vec<u8>,
}

impl Oracle {
    /// Fingerprint of the encoded `Determination` response the twin gives.
    pub fn expected(&mut self, queries: &[QueryProfile], query: u8, seed: u64) -> u32 {
        if let Some(&known) = self.known.get(&(query, seed)) {
            return known;
        }
        let request = prediction_request(&self.twin, &queries[query as usize], seed);
        let det = self
            .twin
            .predictor()
            .determine(&request)
            .expect("oracle determine");
        codec::encode_response_into(&Response::Determination(det), &mut self.encoded);
        let print = fingerprint(&self.encoded);
        if self.known.len() < 1024 {
            self.known.insert((query, seed), print);
        }
        print
    }
}

/// One set-up system: server, connected client, oracle. Fields drop in
/// declaration order: connection, listener, service, then the store root.
pub struct World {
    pub client: WireClient,
    /// Held for its lifetime: dropping it stops the listener.
    _server: WireServer,
    pub service: Arc<SmartpickService>,
    pub oracle: Oracle,
    pub queries: Vec<QueryProfile>,
    pub tenants: Vec<String>,
    pub runs: Vec<CompletedRun>,
    /// Set once a report has been sent: from then on answers are checked
    /// for shape only.
    pub models_diverged: bool,
    pub root: TempRoot,
}

impl World {
    /// Train + open + bind + connect + register + mint, timed.
    pub fn build(spec: &Spec) -> (World, f64) {
        let started = Instant::now();
        let root = TempRoot::new(spec.name);
        let template = train_template(spec.grid, spec.trees);
        let twin = template.fork(0);
        let queries = queries();

        let mut config = ServiceConfig {
            max_resident_tenants: spec.max_resident,
            ..ServiceConfig::default()
        };
        if spec.sweep_every.is_some() {
            config.supervisor_poll = Duration::from_secs(3600);
        }
        let service = Arc::new(if spec.durable {
            let dir = root.path().join("store");
            SmartpickService::open(&dir, durable_config(&dir, config, None)).expect("open store")
        } else {
            SmartpickService::new(config)
        });
        let server = WireServer::bind(
            "127.0.0.1:0",
            Arc::clone(&service),
            template,
            WireServerConfig::default(),
        )
        .expect("bind an ephemeral loopback port");
        let mut client = WireClient::connect(server.local_addr()).expect("connect");
        assert!(
            client.negotiate_binary().expect("codec negotiation"),
            "server refused the binary codec"
        );
        client
            .set_io_timeout(Some(Duration::from_secs(20)))
            .expect("socket timeouts");

        let tenants: Vec<String> = (0..spec.tenants).map(|i| format!("t{i:04}")).collect();
        for (i, name) in tenants.iter().enumerate() {
            client
                .register_tenant(name.as_str(), i as u64)
                .expect("register tenant over the wire");
            // Sweeps ride registration, so the resident set (and `rss_mb`)
            // never holds much more than the cap.
            if spec.sweep_every.is_some() && (i + 1) % 256 == 0 {
                service.residency_sweep();
            }
        }
        if spec.sweep_every.is_some() {
            service.residency_sweep();
        }
        let runs = mint_runs(&twin, &queries);

        let world = World {
            client,
            _server: server,
            service,
            oracle: Oracle {
                twin,
                known: HashMap::new(),
                encoded: Vec::new(),
            },
            queries,
            tenants,
            runs,
            models_diverged: false,
            root,
        };
        (world, started.elapsed().as_secs_f64())
    }
}

/// Completed runs from an in-memory twin's `submit`; the service assigns
/// run ids at enqueue, so each can be re-fed any number of times.
fn mint_runs(twin: &Smartpick, queries: &[QueryProfile]) -> Vec<CompletedRun> {
    let minter = SmartpickService::with_defaults();
    minter
        .register_fork("minter", twin, 1)
        .expect("register minter");
    (0..MINTED_RUNS)
        .map(|i| {
            let query = &queries[i % queries.len()];
            let outcome = minter
                .submit("minter", query, i as u64)
                .expect("minting submit");
            CompletedRun {
                query: query.clone(),
                determination: outcome.determination,
                report: outcome.report,
            }
        })
        .collect()
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this thread — and every thread spawned from here on, which
/// inherit the mask — to the highest-numbered CPU it may run on; returns
/// that CPU. Called before anything else is built, so load generator and
/// server share one core and the box keeps the other (CPU 0 takes the
/// device interrupts) for itself.
///
/// Why: spread over this box's two shared cores the closed loop measures
/// cross-core wake-ups, which the host's other guests slow by 30 % for
/// minutes at a time; on one core nothing waits for another vCPU to be
/// scheduled, and the same runs repeat within a few percent (README,
/// "Noise").
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rfind(|(_, bits)| **bits != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of `bytes` bytes that the call only
    // reads; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(cpu)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Milliseconds of CPU time the hypervisor has stolen since boot.
pub fn host_steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|t| t.parse().ok())
        .unwrap_or(0.0);
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mask belongs to the calling thread, so this pins only the test's
    /// own thread; a thread spawned from it inherits the one CPU.
    #[test]
    fn pinning_leaves_one_cpu_and_threads_inherit_it() {
        let cpu = pin_to_one_cpu().expect("sched_setaffinity works here");
        let allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").expect("status");
            status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .expect("Cpus_allowed_list line")
                .trim()
                .to_owned()
        };
        assert_eq!(allowed(), cpu.to_string());
        let inherited = std::thread::spawn(allowed).join().expect("spawned thread");
        assert_eq!(inherited, cpu.to_string());
    }
}
