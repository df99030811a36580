//! Deterministic fault injection and the fault-tolerant recovery
//! policy shared by both engines.
//!
//! The reliability literature around this framework (CEDR, DS3) is
//! explicit that fault studies must be *reproducible*: a fault schedule
//! has to be a pure function of a seed, not of host timing. This module
//! delivers that: a [`FaultSpec`] (parsed from JSON or built in code)
//! compiles against a platform into a [`FaultPlan`], and every fault
//! decision is a pure function of `(seed, stream, kernel, PE, instance,
//! node, attempt)` through a splitmix64 mix — so the threaded emulator
//! and the DES, fed the same plan, inject byte-identical fault
//! sequences.
//!
//! Three failure modes are modeled:
//!
//! * **permanent** — a PE dies at a configured time and never returns;
//!   the task it was running (if any) is lost at that instant;
//! * **transient** — a per-execution-attempt probability that the
//!   attempt's result is bad (matched by kernel and/or PE);
//! * **hang** — the attempt stalls; its virtual completion is the
//!   watchdog deadline (`estimate × watchdog_factor`) instead of the
//!   modeled duration, and the PE is quarantined.
//!
//! Recovery is the [`RetryPolicy`]: bounded retries with deterministic
//! exponential backoff in virtual time, PE quarantine (always for
//! permanent/hang/watchdog faults, after `quarantine_after` faults for
//! transient ones), and graceful degradation — a retried task whose
//! preferred PE class is gone re-enters the ready list and the normal
//! alternate-runfunc resolution dispatches it onto a surviving class.
//! [`FaultState`] tracks the per-run mutable side (attempt counts,
//! per-PE fault counts, aborted instances) and turns each fault into a
//! [`FaultAction`] for the engine loop to execute.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use dssoc_appmodel::hash::{fnv1a, mix, splitmix64};
use dssoc_platform::pe::{PeId, PlatformConfig};
use dssoc_trace::FaultKind;

use crate::time::SimTime;

/// Domain-separation tags for the per-mode decision streams: transient
/// and hang draws for the same attempt must be independent.
const TAG_TRANSIENT: u64 = 0x7472616e; // "tran"
const TAG_HANG: u64 = 0x68616e67; // "hang"

/// A scheduled permanent PE failure.
#[derive(Debug, Clone, PartialEq)]
pub struct PermanentFault {
    /// The PE that fails.
    pub pe: u32,
    /// Failure time in emulation microseconds.
    pub at_us: f64,
}

/// A probabilistic per-attempt fault rule (transient failure or hang).
/// `None` fields match everything, so `{probability: p}` alone is a
/// global rule; among several matching rules the *maximum* probability
/// applies.
#[derive(Debug, Clone, PartialEq)]
pub struct RateFault {
    /// Match attempts running this runfunc (any kernel when `None`).
    pub kernel: Option<String>,
    /// Match attempts on this PE id (any PE when `None`).
    pub pe: Option<u32>,
    /// Per-attempt fault probability in `[0, 1]`.
    pub probability: f64,
}

/// Bounded-retry recovery policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Faulted attempts beyond the first execution that may be retried
    /// per task (attempt numbering is 1-based; `max_retries = 2` allows
    /// attempts 1..=3).
    pub max_retries: u32,
    /// Base backoff before a retry re-enters the ready list, in
    /// emulation microseconds; attempt `n` waits `backoff_us × 2^(n-1)`
    /// (capped at `2^10`).
    pub backoff_us: f64,
    /// Quarantine a PE once it has produced this many transient/exec
    /// faults. (Permanent, hang, and watchdog faults quarantine
    /// immediately regardless.)
    pub quarantine_after: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 2, backoff_us: 50.0, quarantine_after: 3 }
    }
}

/// A complete, seedable fault-injection specification. Compile it
/// against a platform with [`Self::compile`] to get the decision
/// function both engines consult.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// PRNG seed; equal seeds give byte-identical fault sequences on
    /// both engines.
    pub seed: u64,
    /// Scheduled permanent PE failures.
    pub permanent: Vec<PermanentFault>,
    /// Transient-failure rules.
    pub transient: Vec<RateFault>,
    /// Hung-kernel rules.
    pub hangs: Vec<RateFault>,
    /// Recovery policy.
    pub retry: RetryPolicy,
    /// A hung attempt is detected after `estimate × watchdog_factor` of
    /// virtual time (also scales the threaded engine's wall deadline).
    pub watchdog_factor: f64,
    /// Wall-clock floor for the threaded engine's watchdog, in
    /// milliseconds — modeled estimates are virtual time, so the real
    /// deadline needs a floor that tolerates host scheduling noise.
    pub watchdog_min_wall_ms: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            permanent: Vec::new(),
            transient: Vec::new(),
            hangs: Vec::new(),
            retry: RetryPolicy::default(),
            watchdog_factor: 8.0,
            watchdog_min_wall_ms: 1000.0,
        }
    }
}

fn parse_rate_rules(v: Option<&serde_json::Value>, what: &str) -> Result<Vec<RateFault>, String> {
    let Some(v) = v else { return Ok(Vec::new()) };
    let arr = v.as_array().ok_or_else(|| format!("'{what}' must be an array"))?;
    let mut rules = Vec::with_capacity(arr.len());
    for (i, r) in arr.iter().enumerate() {
        let obj = r.as_object().ok_or_else(|| format!("'{what}[{i}]' must be an object"))?;
        let probability = obj
            .get("probability")
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("'{what}[{i}]' needs a numeric 'probability'"))?;
        if !(0.0..=1.0).contains(&probability) {
            return Err(format!("'{what}[{i}].probability' must be in [0, 1]"));
        }
        rules.push(RateFault {
            kernel: obj.get("kernel").and_then(serde_json::Value::as_str).map(str::to_string),
            pe: obj.get("pe").and_then(serde_json::Value::as_u64).map(|p| p as u32),
            probability,
        });
    }
    Ok(rules)
}

impl FaultSpec {
    /// Parses a spec from its JSON form. Every field is optional except
    /// that rate rules must carry a `probability`:
    ///
    /// ```json
    /// {
    ///   "seed": 42,
    ///   "permanent": [{"pe": 3, "at_us": 5000.0}],
    ///   "transient": [{"kernel": "pd_FFT_ACCEL", "probability": 0.1}],
    ///   "hangs": [{"pe": 2, "probability": 0.01}],
    ///   "retry": {"max_retries": 2, "backoff_us": 50.0, "quarantine_after": 3},
    ///   "watchdog_factor": 8.0,
    ///   "watchdog_min_wall_ms": 1000.0
    /// }
    /// ```
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("fault spec: {e}"))?;
        let obj = v.as_object().ok_or("fault spec must be a JSON object")?;
        let mut spec = FaultSpec::default();
        if let Some(seed) = obj.get("seed") {
            spec.seed = seed.as_u64().ok_or("'seed' must be a non-negative integer")?;
        }
        if let Some(perm) = obj.get("permanent") {
            let arr = perm.as_array().ok_or("'permanent' must be an array")?;
            for (i, p) in arr.iter().enumerate() {
                let pobj =
                    p.as_object().ok_or_else(|| format!("'permanent[{i}]' must be an object"))?;
                let pe = pobj
                    .get("pe")
                    .and_then(serde_json::Value::as_u64)
                    .ok_or_else(|| format!("'permanent[{i}]' needs an integer 'pe'"))?;
                let at_us = pobj
                    .get("at_us")
                    .and_then(serde_json::Value::as_f64)
                    .ok_or_else(|| format!("'permanent[{i}]' needs a numeric 'at_us'"))?;
                spec.permanent.push(PermanentFault { pe: pe as u32, at_us });
            }
        }
        spec.transient = parse_rate_rules(obj.get("transient"), "transient")?;
        spec.hangs = parse_rate_rules(obj.get("hangs"), "hangs")?;
        if let Some(r) = obj.get("retry") {
            let robj = r.as_object().ok_or("'retry' must be an object")?;
            if let Some(m) = robj.get("max_retries") {
                spec.retry.max_retries =
                    m.as_u64().ok_or("'retry.max_retries' must be an integer")? as u32;
            }
            if let Some(b) = robj.get("backoff_us") {
                spec.retry.backoff_us = b.as_f64().ok_or("'retry.backoff_us' must be numeric")?;
            }
            if let Some(q) = robj.get("quarantine_after") {
                let q = q.as_u64().ok_or("'retry.quarantine_after' must be an integer")? as u32;
                if q == 0 {
                    return Err("'retry.quarantine_after' must be at least 1".into());
                }
                spec.retry.quarantine_after = q;
            }
        }
        if let Some(f) = obj.get("watchdog_factor") {
            let f = f.as_f64().ok_or("'watchdog_factor' must be numeric")?;
            if f < 1.0 {
                return Err("'watchdog_factor' must be >= 1".into());
            }
            spec.watchdog_factor = f;
        }
        if let Some(w) = obj.get("watchdog_min_wall_ms") {
            spec.watchdog_min_wall_ms =
                w.as_f64().ok_or("'watchdog_min_wall_ms' must be numeric")?;
        }
        Ok(spec)
    }

    /// Resolves this spec against a platform into the decision function
    /// the engines consult. Permanent failures naming unknown PEs are
    /// rejected here rather than silently ignored.
    pub fn compile(&self, platform: &PlatformConfig) -> Result<FaultPlan, String> {
        let top = platform.pes.iter().map(|pe| pe.id.0 as usize + 1).max().unwrap_or(0);
        let mut permanent = vec![None; top];
        for p in &self.permanent {
            if !platform.pes.iter().any(|pe| pe.id.0 == p.pe) {
                return Err(format!(
                    "fault spec names PE {} but platform '{}' has no such PE",
                    p.pe, platform.name
                ));
            }
            let at = SimTime((p.at_us * 1e3) as u64);
            let slot = &mut permanent[p.pe as usize];
            // Earliest failure wins if a PE is named twice.
            *slot = Some(slot.map_or(at, |t: SimTime| t.min(at)));
        }
        Ok(FaultPlan {
            seed: self.seed,
            permanent,
            transient: self.transient.clone(),
            hangs: self.hangs.clone(),
            retry: self.retry.clone(),
            watchdog_factor: self.watchdog_factor,
            watchdog_min_wall: Duration::from_secs_f64(self.watchdog_min_wall_ms.max(0.0) * 1e-3),
        })
    }
}

/// A fault decided for one execution attempt: when it manifests on the
/// emulation clock and as what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// When the fault manifests (the attempt's rewritten finish time).
    pub time: SimTime,
    /// Failure mode.
    pub kind: FaultKind,
}

/// A [`FaultSpec`] compiled against a platform: the pure decision
/// function both engines call per execution attempt.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    permanent: Vec<Option<SimTime>>, // by PeId index
    transient: Vec<RateFault>,
    hangs: Vec<RateFault>,
    /// The recovery policy this plan was compiled with.
    pub retry: RetryPolicy,
    /// Virtual watchdog deadline factor (× the dispatch-time estimate).
    pub watchdog_factor: f64,
    /// Wall-clock watchdog floor for the threaded engine.
    pub watchdog_min_wall: Duration,
}

impl FaultPlan {
    /// When `pe` permanently fails, if scheduled to.
    pub fn permanent_failure_at(&self, pe: PeId) -> Option<SimTime> {
        self.permanent.get(pe.0 as usize).copied().flatten()
    }

    /// Uniform draw in `[0, 1)` for one `(mode, kernel, pe, instance,
    /// node, attempt)` tuple — a pure hash, independent of host timing
    /// and of evaluation order, which is what makes the two engines'
    /// fault sequences identical.
    fn draw(
        &self,
        tag: u64,
        kernel: &str,
        pe: PeId,
        instance: u64,
        node: usize,
        attempt: u32,
    ) -> f64 {
        let mut h = splitmix64(self.seed ^ tag);
        h = mix(h, fnv1a(kernel.as_bytes()));
        h = mix(h, u64::from(pe.0));
        h = mix(h, instance);
        h = mix(h, node as u64);
        h = mix(h, u64::from(attempt));
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Highest probability among rules matching `(kernel, pe)`; 0 when
    /// none match.
    fn rate(rules: &[RateFault], kernel: &str, pe: PeId) -> f64 {
        rules
            .iter()
            .filter(|r| r.kernel.as_deref().is_none_or(|k| k == kernel))
            .filter(|r| r.pe.is_none_or(|p| p == pe.0))
            .map(|r| r.probability)
            .fold(0.0, f64::max)
    }

    /// Decides the fate of one execution attempt. `start` and
    /// `natural_finish` are the attempt's dispatch-time interval on the
    /// emulation clock; `est` is the dispatch-time estimate the hang
    /// deadline derives from; `attempt` is 1-based.
    ///
    /// Precedence: a permanent PE failure inside the attempt's window
    /// trumps everything (the PE dies mid-flight); otherwise a hang draw
    /// stretches the attempt to the virtual watchdog deadline; otherwise
    /// a transient draw fails the attempt at its natural finish.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &self,
        kernel: &str,
        pe: PeId,
        instance: u64,
        node: usize,
        attempt: u32,
        start: SimTime,
        natural_finish: SimTime,
        est: Duration,
    ) -> Option<FaultDecision> {
        let hang_p = Self::rate(&self.hangs, kernel, pe);
        let hang =
            hang_p > 0.0 && self.draw(TAG_HANG, kernel, pe, instance, node, attempt) < hang_p;
        let natural_end =
            if hang { start + mul_duration(est, self.watchdog_factor) } else { natural_finish };
        if let Some(tf) = self.permanent_failure_at(pe) {
            if tf < natural_end {
                return Some(FaultDecision { time: tf.max(start), kind: FaultKind::Permanent });
            }
        }
        if hang {
            return Some(FaultDecision { time: natural_end, kind: FaultKind::Hang });
        }
        let t_p = Self::rate(&self.transient, kernel, pe);
        if t_p > 0.0 && self.draw(TAG_TRANSIENT, kernel, pe, instance, node, attempt) < t_p {
            return Some(FaultDecision { time: natural_finish, kind: FaultKind::Transient });
        }
        None
    }

    /// Deterministic backoff before retry attempt `attempt + 1`:
    /// `backoff_us × 2^(attempt-1)`, exponent capped at 10.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(10);
        Duration::from_secs_f64(self.retry.backoff_us.max(0.0) * 1e-6 * (1u64 << exp) as f64)
    }
}

fn mul_duration(d: Duration, k: f64) -> Duration {
    Duration::from_secs_f64(d.as_secs_f64() * k)
}

/// What the engine loop must do about one fault: quarantine the PE,
/// requeue the task (with the 1-based attempt that just faulted and the
/// virtual release time after backoff), or give the application up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// Remove the PE from the schedulable set for the rest of the run.
    pub quarantine: bool,
    /// `Some((attempt, release))`: requeue the task at `release`.
    pub retry: Option<(u32, SimTime)>,
    /// The task's retry budget is exhausted and its application was not
    /// already aborted — count it now.
    pub newly_aborted: bool,
}

/// Per-run mutable fault-recovery state (attempt counts, per-PE fault
/// counts, aborted instances, degraded-dispatch tracking). One per
/// engine run; both engines drive it identically.
#[derive(Debug)]
pub struct FaultState {
    policy: RetryPolicy,
    // Faulted attempts per (instance, node); the next attempt number is
    // this count + 1.
    attempts: HashMap<(u64, usize), u32>,
    // The PE each (instance, node) last faulted on, for degraded-
    // dispatch detection.
    last_pe: HashMap<(u64, usize), PeId>,
    // Transient/exec fault counts per PE (quarantine threshold).
    pe_faults: HashMap<u32, u32>,
    faulted_instances: HashSet<u64>,
    aborted: HashSet<u64>,
    degraded: HashSet<(u64, usize)>,
    last_context: Option<(u64, usize, PeId)>,
}

impl FaultState {
    /// Fresh state under a recovery policy.
    pub fn new(policy: RetryPolicy) -> Self {
        FaultState {
            policy,
            attempts: HashMap::new(),
            last_pe: HashMap::new(),
            pe_faults: HashMap::new(),
            faulted_instances: HashSet::new(),
            aborted: HashSet::new(),
            degraded: HashSet::new(),
            last_context: None,
        }
    }

    /// The 1-based attempt number the next dispatch of `(instance,
    /// node)` will be.
    pub fn attempt_of(&self, instance: u64, node: usize) -> u32 {
        self.attempts.get(&(instance, node)).copied().unwrap_or(0) + 1
    }

    /// The PE `(instance, node)` last faulted on, if it has faulted.
    pub fn last_fault_pe(&self, instance: u64, node: usize) -> Option<PeId> {
        self.last_pe.get(&(instance, node)).copied()
    }

    /// True if any attempt of any task of `instance` faulted.
    pub fn had_faults(&self, instance: u64) -> bool {
        self.faulted_instances.contains(&instance)
    }

    /// True if `instance` was given up on.
    pub fn is_aborted(&self, instance: u64) -> bool {
        self.aborted.contains(&instance)
    }

    /// Marks `instance` aborted without a fault attempt (used when its
    /// remaining tasks become unschedulable); true if newly aborted.
    pub fn abort(&mut self, instance: u64) -> bool {
        self.aborted.insert(instance)
    }

    /// The most recent fault's `(instance, node, pe)`, for error
    /// context when a run becomes unrecoverable.
    pub fn last_context(&self) -> Option<(u64, usize, PeId)> {
        self.last_context
    }

    /// Marks `(instance, node)`'s current dispatch as degraded; true
    /// the first time (the unique-task counter increments then).
    pub fn note_degraded(&mut self, instance: u64, node: usize) -> bool {
        self.degraded.insert((instance, node))
    }

    /// Registers one fault at `at` and decides recovery. Must be called
    /// in fault order — both engines process completions in the shared
    /// deterministic order, so the resulting retry/abort/quarantine
    /// sequences match across engines.
    pub fn on_fault(
        &mut self,
        plan: &FaultPlan,
        instance: u64,
        node: usize,
        pe: PeId,
        kind: FaultKind,
        at: SimTime,
    ) -> FaultAction {
        self.faulted_instances.insert(instance);
        self.last_context = Some((instance, node, pe));
        self.last_pe.insert((instance, node), pe);
        let count = self.attempts.entry((instance, node)).or_insert(0);
        *count += 1;
        let attempt = *count;
        let quarantine = match kind {
            FaultKind::Permanent | FaultKind::Hang | FaultKind::Watchdog => true,
            FaultKind::Transient | FaultKind::Exec => {
                let c = self.pe_faults.entry(pe.0).or_insert(0);
                *c += 1;
                *c >= self.policy.quarantine_after
            }
        };
        if attempt <= self.policy.max_retries && !self.aborted.contains(&instance) {
            FaultAction {
                quarantine,
                retry: Some((attempt, at + plan.backoff(attempt))),
                newly_aborted: false,
            }
        } else {
            FaultAction { quarantine, retry: None, newly_aborted: self.aborted.insert(instance) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssoc_platform::presets::zcu102;

    fn plan(spec: &FaultSpec) -> FaultPlan {
        spec.compile(&zcu102(2, 1)).unwrap()
    }

    #[test]
    fn spec_json_round_trip_fields() {
        let spec = FaultSpec::from_json(
            r#"{
                "seed": 42,
                "permanent": [{"pe": 2, "at_us": 5000.0}],
                "transient": [{"kernel": "k", "probability": 0.5}, {"pe": 1, "probability": 0.25}],
                "hangs": [{"probability": 0.125}],
                "retry": {"max_retries": 4, "backoff_us": 10.0, "quarantine_after": 2},
                "watchdog_factor": 4.0,
                "watchdog_min_wall_ms": 20.0
            }"#,
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.permanent, vec![PermanentFault { pe: 2, at_us: 5000.0 }]);
        assert_eq!(spec.transient.len(), 2);
        assert_eq!(spec.transient[0].kernel.as_deref(), Some("k"));
        assert_eq!(spec.transient[1].pe, Some(1));
        assert_eq!(spec.hangs[0].probability, 0.125);
        assert_eq!(
            spec.retry,
            RetryPolicy { max_retries: 4, backoff_us: 10.0, quarantine_after: 2 }
        );
        assert_eq!(spec.watchdog_factor, 4.0);
        assert_eq!(spec.watchdog_min_wall_ms, 20.0);
    }

    #[test]
    fn spec_json_defaults_and_errors() {
        let spec = FaultSpec::from_json("{}").unwrap();
        assert_eq!(spec, FaultSpec::default());
        for bad in [
            "[]",
            r#"{"seed": -1}"#,
            r#"{"transient": [{}]}"#,
            r#"{"transient": [{"probability": 1.5}]}"#,
            r#"{"permanent": [{"pe": 0}]}"#,
            r#"{"watchdog_factor": 0.5}"#,
            r#"{"retry": {"quarantine_after": 0}}"#,
        ] {
            assert!(FaultSpec::from_json(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn compile_rejects_unknown_pe() {
        let spec = FaultSpec {
            permanent: vec![PermanentFault { pe: 99, at_us: 1.0 }],
            ..FaultSpec::default()
        };
        assert!(spec.compile(&zcu102(2, 1)).is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let spec = FaultSpec {
            seed: 7,
            transient: vec![RateFault { kernel: None, pe: None, probability: 0.5 }],
            ..FaultSpec::default()
        };
        let p1 = plan(&spec);
        let p2 = plan(&spec);
        let p3 = plan(&FaultSpec { seed: 8, ..spec.clone() });
        let args = |p: &FaultPlan, inst: u64| {
            p.decide("k", PeId(0), inst, 0, 1, SimTime(0), SimTime(100), Duration::from_micros(1))
        };
        let mut differs = false;
        for inst in 0..64 {
            assert_eq!(args(&p1, inst), args(&p2, inst), "same seed must agree");
            differs |= args(&p1, inst) != args(&p3, inst);
        }
        assert!(differs, "different seeds should produce different fault patterns");
        // ~half the draws should fault at p = 0.5.
        let hits = (0..256).filter(|&i| args(&p1, i).is_some()).count();
        assert!((64..192).contains(&hits), "p=0.5 hit rate way off: {hits}/256");
    }

    #[test]
    fn rule_matching_takes_max_probability() {
        let spec = FaultSpec {
            transient: vec![
                RateFault { kernel: Some("k".into()), pe: None, probability: 1.0 },
                RateFault { kernel: None, pe: Some(1), probability: 0.0 },
            ],
            ..FaultSpec::default()
        };
        let p = plan(&spec);
        // kernel "k" always faults (p=1 rule wins over the p=0 rule).
        let d = p
            .decide("k", PeId(1), 0, 0, 1, SimTime(0), SimTime(50), Duration::from_micros(1))
            .unwrap();
        assert_eq!(d.kind, FaultKind::Transient);
        assert_eq!(d.time, SimTime(50));
        // other kernels never match any rule.
        assert!(p
            .decide("other", PeId(0), 0, 0, 1, SimTime(0), SimTime(50), Duration::from_micros(1))
            .is_none());
    }

    #[test]
    fn permanent_fault_trumps_and_clamps_to_start() {
        let spec = FaultSpec {
            permanent: vec![PermanentFault { pe: 0, at_us: 1.0 }], // t = 1000 ns
            transient: vec![RateFault { kernel: None, pe: None, probability: 1.0 }],
            ..FaultSpec::default()
        };
        let p = plan(&spec);
        // Attempt crossing the failure time dies at the failure time.
        let d = p
            .decide("k", PeId(0), 0, 0, 1, SimTime(500), SimTime(2000), Duration::from_micros(1))
            .unwrap();
        assert_eq!((d.kind, d.time), (FaultKind::Permanent, SimTime(1000)));
        // Attempt starting after the failure time dies at its start.
        let d = p
            .decide("k", PeId(0), 0, 0, 1, SimTime(1500), SimTime(2000), Duration::from_micros(1))
            .unwrap();
        assert_eq!((d.kind, d.time), (FaultKind::Permanent, SimTime(1500)));
        // Attempt finishing before the failure time: the transient rule
        // applies instead.
        let d = p
            .decide("k", PeId(0), 0, 0, 1, SimTime(0), SimTime(900), Duration::from_micros(1))
            .unwrap();
        assert_eq!((d.kind, d.time), (FaultKind::Transient, SimTime(900)));
        // Other PEs are untouched by the permanent rule.
        assert_eq!(p.permanent_failure_at(PeId(1)), None);
        assert_eq!(p.permanent_failure_at(PeId(0)), Some(SimTime(1000)));
    }

    #[test]
    fn hang_stretches_to_watchdog_deadline() {
        let spec = FaultSpec {
            hangs: vec![RateFault { kernel: None, pe: None, probability: 1.0 }],
            watchdog_factor: 4.0,
            ..FaultSpec::default()
        };
        let p = plan(&spec);
        let d = p
            .decide("k", PeId(0), 3, 1, 1, SimTime(1000), SimTime(2000), Duration::from_micros(1))
            .unwrap();
        assert_eq!((d.kind, d.time), (FaultKind::Hang, SimTime(1000 + 4000)));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = plan(&FaultSpec::default()); // backoff_us = 50
        assert_eq!(p.backoff(1), Duration::from_micros(50));
        assert_eq!(p.backoff(2), Duration::from_micros(100));
        assert_eq!(p.backoff(3), Duration::from_micros(200));
        assert_eq!(p.backoff(20), Duration::from_micros(50 * 1024));
    }

    #[test]
    fn state_retries_then_aborts_and_quarantines() {
        let spec = FaultSpec {
            retry: RetryPolicy { max_retries: 2, backoff_us: 10.0, quarantine_after: 2 },
            ..FaultSpec::default()
        };
        let p = plan(&spec);
        let mut s = FaultState::new(spec.retry.clone());
        assert_eq!(s.attempt_of(5, 0), 1);

        // First transient fault: retry, no quarantine yet.
        let a = s.on_fault(&p, 5, 0, PeId(1), FaultKind::Transient, SimTime(1000));
        assert_eq!(
            a,
            FaultAction {
                quarantine: false,
                retry: Some((1, SimTime(11_000))),
                newly_aborted: false
            }
        );
        assert_eq!(s.attempt_of(5, 0), 2);
        assert!(s.had_faults(5) && !s.is_aborted(5));
        assert_eq!(s.last_fault_pe(5, 0), Some(PeId(1)));

        // Second transient fault on the same PE: retry with doubled
        // backoff, and the PE hits its quarantine threshold.
        let a = s.on_fault(&p, 5, 0, PeId(1), FaultKind::Transient, SimTime(20_000));
        assert_eq!(
            a,
            FaultAction {
                quarantine: true,
                retry: Some((2, SimTime(40_000))),
                newly_aborted: false
            }
        );

        // Third fault: retry budget exhausted — abort, once.
        let a = s.on_fault(&p, 5, 0, PeId(0), FaultKind::Transient, SimTime(50_000));
        assert!(a.retry.is_none() && a.newly_aborted);
        assert!(s.is_aborted(5));
        let a = s.on_fault(&p, 5, 1, PeId(0), FaultKind::Transient, SimTime(60_000));
        assert!(a.retry.is_none() && !a.newly_aborted, "already-aborted instances never retry");

        // Permanent faults quarantine immediately.
        let a = s.on_fault(&p, 6, 0, PeId(2), FaultKind::Permanent, SimTime(100));
        assert!(a.quarantine && a.retry.is_some());
        assert_eq!(s.last_context(), Some((6, 0, PeId(2))));

        // Degraded-dispatch tracking counts each task once.
        assert!(s.note_degraded(6, 0));
        assert!(!s.note_degraded(6, 0));
        // Unschedulable-abort marks instances once.
        assert!(s.abort(7));
        assert!(!s.abort(7));
    }
}
