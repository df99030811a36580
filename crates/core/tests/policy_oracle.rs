//! The library policies against a string-keyed reference oracle.
//!
//! `oracle` below is a reference implementation of the library over
//! `Arc`-holding task handles: FRFS, MET, EFT and RANDOM read each
//! task's node through its instance handle, test compatibility by
//! comparing platform-key strings, and resolve every (task, PE) estimate
//! by runfunc and PE class name in a string-keyed EWMA book. The policies
//! in `dssoc_core::sched` read the engines' dense ready entries and the
//! compiled scenario's `[node][PE column]` tables instead. They must make
//! identical decisions, RNG draws included, over random scenarios:
//!
//! * ready lists of any length and order, drawn from several apps;
//! * PEs idle, busy, busy with reservation room (queue depth 0–2) and
//!   quarantined, with projected finishes after `now`;
//! * estimate books with and without observations;
//! * kernels with and without JSON estimates, CPU PEs of mixed speed and
//!   class (so the speed-scaled default differs per PE);
//! * nodes that cannot run on some PEs;
//! * PE ids that are not column indices, and a platform of more than 64
//!   PEs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dssoc_appmodel::app::{AppLibrary, ApplicationSpec};
use dssoc_appmodel::instance::AppInstance;
use dssoc_appmodel::json::{AppJson, NodeJson, PlatformJson};
use dssoc_appmodel::{KernelRegistry, WorkloadSpec};
use dssoc_core::arena::DenseReady;
use dssoc_core::job::{CompiledScenario, ScenarioSpec};
use dssoc_core::sched::{
    Assignment, EftScheduler, EstimateBook, FrfsScheduler, MetScheduler, PeView, RandomScheduler,
    ReadyView, SchedContext, Scheduler,
};
use dssoc_core::task::Task;
use dssoc_core::{PeSlots, SimTime};
use dssoc_platform::pe::{CpuModel, PeId, PeKind, PlatformConfig};
use dssoc_platform::presets::zcu102;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference policies, over string-keyed task handles.
mod oracle {
    use std::collections::HashMap;
    use std::time::Duration;

    use dssoc_core::sched::{Assignment, PeView};
    use dssoc_core::task::Task;
    use dssoc_core::SimTime;
    use dssoc_platform::pe::PeDescriptor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A ready task with its provenance.
    pub struct ReadyTask {
        pub task: Task,
        pub ready_at: SimTime,
        pub seq: u64,
    }

    /// Learned estimates keyed by `(runfunc, PE class)` strings.
    #[derive(Default)]
    pub struct Book(HashMap<(String, String), Duration>);

    impl Book {
        /// The EWMA update, alpha = 0.25.
        pub fn observe(&mut self, runfunc: &str, class: &str, d: Duration) {
            let key = (runfunc.to_string(), class.to_string());
            let next = match self.0.get(&key) {
                Some(prev) => {
                    Duration::from_secs_f64(0.75 * prev.as_secs_f64() + 0.25 * d.as_secs_f64())
                }
                None => d,
            };
            self.0.insert(key, next);
        }

        /// `task`'s estimated time on `pe`: the JSON's per-platform
        /// `mean_exec_us`, then the observed EWMA, then 100 µs scaled by
        /// the PE's speed; `None` when the task does not support the PE.
        pub fn estimate(&self, task: &Task, pe: &PeDescriptor) -> Option<Duration> {
            let platform = task.node().platform(&pe.platform_key)?;
            if let Some(d) = platform.mean_exec {
                return Some(d);
            }
            let key = (platform.runfunc.to_string(), pe.class_name().to_string());
            if let Some(&d) = self.0.get(&key) {
                return Some(d);
            }
            Some(Duration::from_secs_f64(100e-6 / pe.speed()))
        }
    }

    fn idle_compatible<'a>(
        task: &'a Task,
        pes: &'a [PeView<'a>],
    ) -> impl Iterator<Item = usize> + 'a {
        pes.iter()
            .enumerate()
            .filter(move |(_, v)| v.idle && task.supports(&v.pe.platform_key))
            .map(|(i, _)| i)
    }

    pub fn frfs(ready: &[ReadyTask], pes: &[PeView<'_>]) -> Vec<Assignment> {
        let mut taken = vec![false; pes.len()];
        let mut out = Vec::new();
        for (i, rt) in ready.iter().enumerate() {
            match idle_compatible(&rt.task, pes).find(|&p| !taken[p]) {
                Some(slot) => {
                    taken[slot] = true;
                    out.push(Assignment { ready_idx: i, pe: pes[slot].pe.id });
                }
                None => break,
            }
        }
        out
    }

    pub fn met(ready: &[ReadyTask], pes: &[PeView<'_>], book: &Book) -> Vec<Assignment> {
        let mut taken = vec![false; pes.len()];
        let mut out = Vec::new();
        for (i, rt) in ready.iter().enumerate() {
            let task = &rt.task;
            let best = pes
                .iter()
                .enumerate()
                .filter(|(p, v)| v.idle && !taken[*p] && task.supports(&v.pe.platform_key))
                .min_by_key(|(_, v)| book.estimate(task, v.pe).unwrap_or(Duration::MAX))
                .map(|(p, _)| p);
            if let Some(slot) = best {
                taken[slot] = true;
                out.push(Assignment { ready_idx: i, pe: pes[slot].pe.id });
            }
        }
        out
    }

    pub fn eft(
        ready: &[ReadyTask],
        pes: &[PeView<'_>],
        now: SimTime,
        book: &Book,
    ) -> Vec<Assignment> {
        let mut avail: Vec<SimTime> = pes.iter().map(|v| v.available_at.max(now)).collect();
        let mut dispatchable: Vec<bool> = pes.iter().map(|v| v.idle).collect();
        let mut out = Vec::new();
        for (i, rt) in ready.iter().enumerate() {
            let mut best: Option<(usize, SimTime)> = None;
            for (p, view) in pes.iter().enumerate() {
                let Some(exec) = book.estimate(&rt.task, view.pe) else { continue };
                let finish = avail[p] + exec;
                match best {
                    Some((_, bf)) if finish >= bf => {}
                    _ => best = Some((p, finish)),
                }
            }
            let Some((p, finish)) = best else { continue };
            avail[p] = finish;
            if dispatchable[p] {
                dispatchable[p] = false;
                out.push(Assignment { ready_idx: i, pe: pes[p].pe.id });
            }
        }
        out
    }

    pub struct Random(StdRng);

    impl Random {
        pub fn seeded(seed: u64) -> Self {
            Random(StdRng::seed_from_u64(seed))
        }

        pub fn schedule(&mut self, ready: &[ReadyTask], pes: &[PeView<'_>]) -> Vec<Assignment> {
            let mut taken = vec![false; pes.len()];
            let mut free = pes.iter().filter(|v| v.idle).count();
            let mut out = Vec::new();
            for (i, rt) in ready.iter().enumerate() {
                if free == 0 {
                    break;
                }
                let candidates: Vec<usize> =
                    idle_compatible(&rt.task, pes).filter(|&p| !taken[p]).collect();
                if candidates.is_empty() {
                    continue;
                }
                let slot = candidates[self.0.gen_range(0..candidates.len())];
                taken[slot] = true;
                free -= 1;
                out.push(Assignment { ready_idx: i, pe: pes[slot].pe.id });
            }
            out
        }
    }
}

const RUNFUNCS: [&str; 3] = ["k0", "k1", "k2"];

/// A platform of `cpus` CPU PEs of mixed class and speed and `ffts` FFT
/// accelerators, with PE ids in reverse column order.
fn platform(rng: &mut StdRng, cpus: usize, ffts: usize) -> PlatformConfig {
    let template = zcu102(1, 1);
    let n = cpus + ffts;
    let pes = (0..n)
        .map(|col| {
            let mut pe = template.pes[usize::from(col >= cpus)].clone();
            pe.id = PeId((n - 1 - col) as u32);
            pe.name = format!("PE{col}");
            if col < cpus {
                let class = ["cortex-a53", "cortex-a7"][rng.gen_range(0..2usize)].to_string();
                let speed = [0.5, 1.0, 1.7][rng.gen_range(0..3usize)];
                pe.kind = PeKind::Cpu(CpuModel { class, speed });
            }
            pe
        })
        .collect();
    PlatformConfig::new("oracle", pes, 3)
}

/// Apps of independent nodes: each node runs on the CPU, an FFT or both
/// (always the CPU when `ffts` is false), with a random runfunc and a
/// JSON estimate half the time.
fn library(rng: &mut StdRng, ffts: bool) -> AppLibrary {
    let mut reg = KernelRegistry::new();
    for k in RUNFUNCS {
        reg.register_fn("t.so", k, |_| Ok(()));
    }
    let mut library = AppLibrary::new();
    for app in 0..rng.gen_range(1..=3usize) {
        let mut dag = BTreeMap::new();
        for node in 0..rng.gen_range(1..=8usize) {
            let kinds: &[&str] = match (ffts, rng.gen_range(0..3u8)) {
                (true, 0) => &["fft"],
                (true, 1) => &["cpu", "fft"],
                _ => &["cpu"],
            };
            let platforms = kinds
                .iter()
                .map(|&kind| PlatformJson {
                    name: kind.into(),
                    runfunc: RUNFUNCS[rng.gen_range(0..RUNFUNCS.len())].into(),
                    shared_object: None,
                    mean_exec_us: (rng.gen::<f64>() < 0.5).then(|| 1.0 + 499.0 * rng.gen::<f64>()),
                })
                .collect();
            dag.insert(
                format!("n{node}"),
                NodeJson { arguments: vec![], predecessors: vec![], successors: vec![], platforms },
            );
        }
        let json = AppJson {
            app_name: format!("app{app}"),
            shared_object: "t.so".into(),
            variables: BTreeMap::new(),
            dag,
        };
        library.register(ApplicationSpec::from_json(&json, &reg).expect("app"));
    }
    library
}

/// One random scheduling situation: a compiled scenario, the learned
/// estimates in both books, the ready list in both forms, the PE states
/// and the clock.
struct Case {
    scenario: Arc<CompiledScenario>,
    book: EstimateBook,
    oracle_book: oracle::Book,
    entries: Vec<DenseReady>,
    tasks: Vec<oracle::ReadyTask>,
    slots: PeSlots,
    now: SimTime,
}

fn case(seed: u64, wide: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (cpus, ffts) = if wide { (50, 20) } else { (rng.gen_range(1..=4), rng.gen_range(0..=2)) };
    let platform = platform(&mut rng, cpus, ffts);
    let library = library(&mut rng, ffts > 0);
    let counts: Vec<(String, usize)> =
        library.names().into_iter().map(|a| (a.to_string(), rng.gen_range(1..=3usize))).collect();
    let workload = WorkloadSpec::validation(counts).generate(&library).expect("workload");
    let spec = ScenarioSpec::builder()
        .library(library)
        .platform(platform)
        .workload(workload)
        .build()
        .expect("spec");
    let scenario = CompiledScenario::compile(spec).expect("scenario");
    let pes = &scenario.spec().platform.pes;

    // Learned estimates, mirrored into both books (none for some cases).
    let mut book = scenario.estimates_ref().clone();
    let mut oracle_book = oracle::Book::default();
    let observations = if rng.gen::<f64>() < 0.3 { 0 } else { rng.gen_range(1..12usize) };
    for _ in 0..observations {
        let runfunc = RUNFUNCS[rng.gen_range(0..RUNFUNCS.len())];
        let class = pes[rng.gen_range(0..pes.len())].class_name().to_string();
        let d = Duration::from_nanos(rng.gen_range(1_000..1_000_000));
        book.observe(runfunc, &class, d);
        oracle_book.observe(runfunc, &class, d);
    }

    // A random subset of the tasks, in a random readiness order.
    let now = SimTime(rng.gen_range(0..10_000_000));
    let (workload, library) = (&scenario.spec().workload, &scenario.spec().library);
    let instances: Vec<Arc<AppInstance>> =
        workload.instantiate(library).expect("instances").into_iter().map(Arc::new).collect();
    let mut keys: Vec<(usize, usize)> = instances
        .iter()
        .enumerate()
        .flat_map(|(i, inst)| (0..inst.spec.nodes.len()).map(move |n| (i, n)))
        .collect();
    for k in (1..keys.len()).rev() {
        keys.swap(k, rng.gen_range(0..=k));
    }
    keys.truncate(rng.gen_range(0..=keys.len()));
    let (mut entries, mut tasks) = (Vec::new(), Vec::new());
    for (seq, &(i, node)) in keys.iter().enumerate() {
        let instance = Arc::clone(&instances[i]);
        let ready_at = SimTime(rng.gen_range(0..=now.0));
        let seq = seq as u64;
        entries.push(DenseReady {
            inst: instance.id.0 as u32,
            node: node as u32,
            ready_ns: ready_at.0,
            seq,
        });
        tasks.push(oracle::ReadyTask { task: Task { instance, node_idx: node }, ready_at, seq });
    }

    // PE states: idle, busy, busy with some reservation queue filled, or
    // quarantined.
    let depth = rng.gen_range(0..=2);
    let mut slots = PeSlots::for_platform(&scenario.spec().platform, depth);
    for pe in pes.iter().map(|pe| pe.id) {
        match rng.gen_range(0..4u8) {
            0 => {}
            1 | 2 => {
                slots.occupy(pe, SimTime(now.0 + rng.gen_range(0..2_000_000u64)));
                if let Some(&queued) = entries.first() {
                    for _ in 0..rng.gen_range(0..=depth) {
                        slots.reserve(pe, queued);
                        slots.extend(pe, Duration::from_nanos(rng.gen_range(0..500_000)));
                    }
                }
            }
            _ => slots.fail(pe),
        }
    }
    Case { scenario, book, oracle_book, entries, tasks, slots, now }
}

/// Runs every library policy on `case` both ways and compares.
fn check(case: &Case, seed: u64) {
    let platform = &case.scenario.spec().platform;
    let views: Vec<PeView<'_>> =
        platform.pes.iter().map(|pe| case.slots.view(pe, case.now)).collect();
    let (soa, names) = (case.scenario.soa(), case.scenario.names());
    let ready = ReadyView::new(&case.entries, soa, names, &case.book);
    let ctx = SchedContext { now: case.now };
    let mut out = Vec::new();
    let mut dense = |s: &mut dyn Scheduler| -> Vec<Assignment> {
        out.clear();
        s.schedule_into(&ready, &views, &ctx, &mut out);
        out.clone()
    };
    let (tasks, book) = (&case.tasks, &case.oracle_book);
    let (mut frfs, mut met, mut eft) =
        (FrfsScheduler::new(), MetScheduler::new(), EftScheduler::new());
    let mut random = RandomScheduler::seeded(seed);
    let mut oracle_random = oracle::Random::seeded(seed);
    // Twice each: the policies' reused scratch must not leak across calls,
    // and RANDOM's generator must advance identically.
    for _ in 0..2 {
        assert_eq!(dense(&mut frfs), oracle::frfs(tasks, &views), "FRFS");
        assert_eq!(dense(&mut met), oracle::met(tasks, &views, book), "MET");
        assert_eq!(dense(&mut eft), oracle::eft(tasks, &views, case.now, book), "EFT");
        assert_eq!(dense(&mut random), oracle_random.schedule(tasks, &views), "RANDOM");
    }
    // The view's per-entry facts match the task handles.
    for (i, rt) in tasks.iter().enumerate() {
        assert_eq!(ready.ready_at(i), rt.ready_at);
        assert_eq!(ready.seq(i), rt.seq);
        assert_eq!(ready.task(i), rt.task.key());
        assert_eq!(ready.app(i).as_str(), rt.task.app_name());
        assert_eq!(ready.node_name(i).as_str(), rt.task.node().name);
        for (col, pe) in platform.pes.iter().enumerate() {
            assert_eq!(ready.compatible(i, col), rt.task.supports(&pe.platform_key));
            assert_eq!(ready.estimate(i, col), book.estimate(&rt.task, pe));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_policies_match_the_oracle(seed in any::<u64>(), shape in 0u8..10) {
        // One case in ten on the >64-PE platform.
        let case = case(seed, shape == 0);
        check(&case, seed);
    }
}

/// Past 64 PEs there is no compatibility mask; the sentinel probe still
/// answers every column.
#[test]
fn more_than_64_pes_match_the_oracle() {
    for seed in 0..16 {
        let case = case(seed, true);
        assert!(case.scenario.spec().platform.pes.len() > 64);
        check(&case, seed);
    }
}

/// The generator covers what it claims to: every PE state, observed
/// and unobserved books, and ready lists that both fit and overflow the
/// free PEs.
#[test]
fn cases_cover_the_situations() {
    let (mut busy, mut failed, mut queued, mut observed, mut long) = (0, 0, 0, 0, 0);
    for seed in 0..64 {
        let c = case(seed, false);
        let pes = &c.scenario.spec().platform.pes;
        busy += pes.iter().filter(|pe| c.slots.is_busy(pe.id)).count();
        failed += c.slots.failed_count();
        queued += pes.iter().map(|pe| c.slots.queued(pe.id)).sum::<usize>();
        observed += usize::from(!c.book.is_empty());
        long += usize::from(c.entries.len() > pes.len());
    }
    assert!(busy > 0 && failed > 0 && queued > 0 && observed > 0 && long > 0);
    assert!(observed < 64, "every case had observations");
}
