//! Adversarial decoding: `Runner::restore` (and the sweep/checkpoint
//! layers above it) must treat snapshot bytes as hostile input. A
//! truncated file (worker killed mid-write before `write_atomic`
//! existed), a bit-flipped byte (disk corruption), or outright garbage
//! must always produce a typed [`PersistError`] — never a panic, an
//! abort, or a pathological allocation. The property is simply that
//! `restore` *returns*: proptest turns any panic into a failure, and
//! the length-bounded readers in `eards-sim::persist` keep allocations
//! proportional to the input size. The cluster's VM table is also
//! corrupted field by field: each inconsistency must surface as
//! [`PersistError::Corrupt`].

use proptest::prelude::*;

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{small_datacenter, AuditKind, RunConfig, Runner};
use eards_model::{
    Cluster, Cpu, Host, HostClass, HostId, HostSpec, Job, JobId, Mem, Persist, PersistError,
    Policy, PowerState, Reader, Vm, VmId, VmState, Writer,
};
use eards_sim::{SimDuration, SimTime};
use eards_workload::{generate, SynthConfig, Trace};

fn world() -> (Vec<HostSpec>, Trace) {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_hours(2),
            ..SynthConfig::grid5000_week()
        },
        7,
    );
    (small_datacenter(4, HostClass::Medium), trace)
}

fn config() -> RunConfig {
    RunConfig {
        seed: 42,
        ..RunConfig::default()
    }
}

fn policy() -> Box<dyn Policy> {
    Box::new(ScoreScheduler::new(ScoreConfig::sb()))
}

/// A mid-flight snapshot to corrupt (computed once; proptest cases
/// mutate copies).
fn baseline_snapshot() -> Vec<u8> {
    let (h, t) = world();
    let mut run = Runner::new(h, t, policy(), config());
    for _ in 0..40 {
        if !run.step_batch() {
            break;
        }
    }
    run.snapshot().unwrap()
}

/// Restoring must return (Ok or Err), not panic. The world is rebuilt
/// per call because `restore` consumes it.
fn restore_must_not_panic(bytes: &[u8]) {
    let (h, t) = world();
    let _ = Runner::restore(h, t, policy(), config(), bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at every possible length yields an error, never a
    /// panic or a half-restored world.
    #[test]
    fn truncated_snapshots_error_cleanly(cut in 0.0f64..1.0) {
        let bytes = baseline_snapshot();
        let cut = (bytes.len() as f64 * cut) as usize;
        if cut < bytes.len() {
            let (h, t) = world();
            prop_assert!(Runner::restore(h, t, policy(), config(), &bytes[..cut]).is_err());
        }
    }

    /// Bit flips anywhere in the payload either restore (a flipped f64
    /// payload is still a valid f64) or fail with a typed error — no
    /// panics, no unbounded allocations.
    #[test]
    fn bit_flipped_snapshots_never_panic(
        flips in proptest::collection::vec((0.0f64..1.0, 0u8..8), 1..16),
    ) {
        let mut bytes = baseline_snapshot();
        let len = bytes.len();
        for (pos, bit) in flips {
            let idx = ((len as f64 * pos) as usize).min(len - 1);
            bytes[idx] ^= 1 << bit;
        }
        restore_must_not_panic(&bytes);
    }

    /// Arbitrary garbage — with and without a valid-looking magic
    /// prefix — is rejected without panicking.
    #[test]
    fn garbage_snapshots_never_panic(mut junk in proptest::collection::vec(any::<u8>(), 0..4096)) {
        restore_must_not_panic(&junk);
        // Same bytes behind the real preamble, so decoding gets past the
        // magic check and chews on the garbage itself.
        let mut prefixed = baseline_snapshot()[..9].to_vec();
        prefixed.append(&mut junk);
        restore_must_not_panic(&prefixed);
    }
}

/// Every single-bit flip of the pinned snapshot either fails restore or
/// restores a world that runs to its end: an accepted snapshot is as
/// safe as a fresh run. Release builds flip all 13 568 bits. Debug
/// builds, where each run also checks the model's debug assertions,
/// flip all 8 bits of every 8th byte (1 696 flips).
#[test]
fn every_single_bit_flip_fails_restore_or_runs_to_the_end() {
    let bytes = baseline_snapshot();
    assert_eq!(
        bytes.len(),
        PINNED_LEN,
        "the pinned snapshot is the one flipped"
    );
    let stride = if cfg!(debug_assertions) { 8 } else { 1 };
    let (hosts, trace) = world();
    let mut panics = Vec::new();
    for at in (0..bytes.len()).step_by(stride) {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let world = (hosts.clone(), trace.clone());
            let run = std::panic::catch_unwind(move || {
                let (hosts, trace) = world;
                if let Ok(mut run) = Runner::restore(hosts, trace, policy(), config(), &flipped) {
                    while run.step_batch() {}
                    run.finish();
                }
            });
            if run.is_err() {
                panics.push((at, bit));
            }
        }
    }
    assert!(
        panics.is_empty(),
        "(byte, bit) flips that panic: {panics:?}"
    );
}

#[test]
fn empty_and_tiny_inputs_error_cleanly() {
    for bytes in [&[][..], &[0x45][..], &baseline_snapshot()[..3]] {
        let (h, t) = world();
        assert!(Runner::restore(h, t, policy(), config(), bytes).is_err());
    }
}

/// 64-bit FNV-1a, to pin snapshot bytes in a constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The snapshot format is a contract: checkpoints written by earlier
/// builds must restore. The mid-flight snapshot is pinned by length and
/// hash; a deliberate format change updates both and says why.
const PINNED_LEN: usize = 1_696;
const PINNED_FNV: u64 = 11_451_719_597_536_481_363;

#[test]
fn snapshot_bytes_match_the_pinned_format() {
    let bytes = baseline_snapshot();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (PINNED_LEN, PINNED_FNV),
        "snapshot bytes changed"
    );
}

/// Truncation at *every* offset of the pinned snapshot, not a sample: each
/// strict prefix must come back as an error, without a panic. A cut can
/// land inside any field of any layer, so this walks the fast
/// fixed-width reads through every short read the format can produce.
#[test]
fn every_prefix_of_the_pinned_snapshot_errors_cleanly() {
    let bytes = baseline_snapshot();
    assert_eq!(
        bytes.len(),
        PINNED_LEN,
        "the pinned snapshot is the one cut"
    );
    let (hosts, trace) = world();
    for cut in 0..bytes.len() {
        let restored = Runner::restore(
            hosts.clone(),
            trace.clone(),
            policy(),
            config(),
            &bytes[..cut],
        );
        assert!(restored.is_err(), "prefix of {cut} bytes restored");
    }
}

/// `trace` with `edit` applied to its first job.
fn edited(trace: Trace, edit: impl FnOnce(&mut Job)) -> Trace {
    let mut jobs = trace.into_jobs();
    edit(&mut jobs[0]);
    Trace::new(jobs)
}

fn restore_onto(trace: Trace, bytes: &[u8]) -> Result<Runner, PersistError> {
    let (hosts, _) = world();
    Runner::restore(hosts, trace, policy(), config(), bytes)
}

/// A snapshot replayed onto a different trace of the same length fails
/// on the header's trace digest, whichever job field differs.
#[test]
fn snapshot_restored_onto_a_different_trace_is_corrupt() {
    let bytes = baseline_snapshot();
    let (_, trace) = world();
    assert!(restore_onto(trace.clone(), &bytes).is_ok());
    let other_cpu = edited(trace.clone(), |j| j.cpu = Cpu(j.cpu.points() + 100));
    let other_deadline = edited(trace.clone(), |j| j.deadline_factor += 0.125);
    for other in [other_cpu, other_deadline] {
        assert_eq!(other.len(), trace.len());
        match restore_onto(other, &bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("trace digest"), "{msg}"),
            Err(e) => panic!("expected a Corrupt error, got {e:?}"),
            Ok(_) => panic!("a snapshot restored onto a different trace"),
        }
    }
}

/// A snapshot whose VM table outgrows the trace it is restored onto is
/// corrupt, even when its header digest names that trace.
#[test]
fn vm_table_longer_than_the_trace_is_corrupt() {
    let mut bytes = baseline_snapshot();
    let (_, trace) = world();
    let one_job = Trace::new(trace.into_jobs()[..1].to_vec());
    // Header (magic and version), `started`, the host count, then the
    // trace digest.
    let at = 9 + 1 + 4;
    bytes[at..at + 8].copy_from_slice(&one_job.digest().to_le_bytes());
    match restore_onto(one_job, &bytes) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains("the job table holds 1 jobs"), "{msg}")
        }
        Err(e) => panic!("expected a Corrupt error, got {e:?}"),
        Ok(_) => panic!("a VM table longer than the trace restored"),
    }
}

/// One finished-column record as the snapshot writes it: the id as a
/// `u32`, then the start and completion instants in milliseconds.
fn finished_record(vm: VmId, started: SimTime, completed: SimTime) -> Vec<u8> {
    let mut b = (vm.raw() as u32).to_le_bytes().to_vec();
    b.extend(started.as_millis().to_le_bytes());
    b.extend(completed.as_millis().to_le_bytes());
    b
}

/// A run of finished records behind its `u32` count.
fn finished_run(records: &[Vec<u8>]) -> Vec<u8> {
    let mut b = (records.len() as u32).to_le_bytes().to_vec();
    for r in records {
        b.extend(r);
    }
    b
}

/// The finished column is the completion order: a column that names a VM
/// twice, leaves one out or has it complete before it started is corrupt
/// rather than a report with a missing, doubled or negative-length job.
/// The column is rebuilt from the audit log, which also pins its layout.
#[test]
fn finished_column_that_disagrees_with_the_cluster_is_corrupt() {
    let cfg = RunConfig {
        audit: true,
        ..config()
    };
    let (hosts, trace) = world();
    let mut run = Runner::new(hosts.clone(), trace.clone(), policy(), cfg.clone());
    for _ in 0..200 {
        run.step_batch();
    }
    let bytes = run.snapshot().unwrap();
    let (_, audit) = run.finish();
    let mut started = std::collections::BTreeMap::new();
    let mut records = Vec::new();
    for e in &audit {
        match e.kind {
            AuditKind::VmStarted { vm, .. } => {
                started.insert(vm, e.at);
            }
            AuditKind::JobCompleted { vm, .. } => {
                records.push(finished_record(vm, started[&vm], e.at));
            }
            _ => {}
        }
    }
    assert!(records.len() >= 2, "the run must finish two jobs");
    let column = finished_run(&records);
    let at = bytes
        .windows(column.len())
        .position(|w| w == &column[..])
        .expect("the snapshot holds the finished column");
    let restore = |forged: Vec<u8>| {
        let mut b = bytes.clone();
        b.splice(at..at + column.len(), forged);
        match Runner::restore(hosts.clone(), trace.clone(), policy(), cfg.clone(), &b) {
            Err(PersistError::Corrupt(msg)) => msg,
            Err(e) => panic!("expected a Corrupt error, got {e:?}"),
            Ok(_) => panic!("a forged finished column restored"),
        }
    };
    let mut doubled = records.clone();
    doubled[1] = doubled[0].clone();
    let msg = restore(finished_run(&doubled));
    assert!(msg.contains("listed twice"), "{msg}");
    let msg = restore(finished_run(&records[1..]));
    assert!(msg.contains("finished VMs, but"), "{msg}");
    let mut backwards = records.clone();
    let (s, c) = (backwards[0][4..12].to_vec(), backwards[0][12..].to_vec());
    backwards[0] = [&backwards[0][..4], &c[..], &s[..]].concat();
    assert_ne!(
        s, c,
        "a job that starts and completes at once cannot run backwards"
    );
    let msg = restore(finished_run(&backwards));
    assert!(msg.contains("after its completion"), "{msg}");
}

/// Bytes written under snapshot versions 3, 4 and 5 get a typed version
/// error: v5 wrote every finished VM as a full record.
#[test]
fn earlier_snapshot_versions_are_unsupported() {
    for version in [3, 4, 5] {
        let mut bytes = baseline_snapshot();
        bytes[8] = version;
        let (_, trace) = world();
        assert!(matches!(
            restore_onto(trace, &bytes),
            Err(PersistError::UnsupportedVersion(v)) if v == version
        ));
    }
}

/// A snapshot that claims its run has not started must hold the t = 0
/// world: restoring a mid-run world as not started would re-run the start
/// and boot hosts that are already on. A fresh run's snapshot restores.
#[test]
fn mid_run_world_marked_not_started_is_corrupt() {
    let (hosts, trace) = world();
    let fresh = Runner::new(hosts, trace.clone(), policy(), config())
        .snapshot()
        .unwrap();
    assert!(restore_onto(trace.clone(), &fresh).is_ok());
    let mut bytes = baseline_snapshot();
    // The `started` flag follows the 9-byte header.
    assert_eq!(bytes[9], 1);
    bytes[9] ^= 1;
    match restore_onto(trace, &bytes) {
        Err(PersistError::Corrupt(msg)) => assert!(msg.contains("not started"), "{msg}"),
        Err(e) => panic!("expected a Corrupt error, got {e:?}"),
        Ok(_) => panic!("a mid-run world restored as not started"),
    }
}

/// The clock must sit between the state's stamps and the pending events:
/// a clock moved past the next event, or back before the instant the
/// state was last brought up to, is corrupt rather than a run whose time
/// goes backwards.
#[test]
fn clock_on_the_wrong_side_of_the_state_is_corrupt() {
    // Header, `started`, host count, trace digest and seed; then the clock.
    let clock = 9 + 1 + 4 + 8 + 8;
    for (forged, what) in [(u64::MAX, "before the clock"), (0, "after the clock")] {
        let mut bytes = baseline_snapshot();
        bytes[clock..clock + 8].copy_from_slice(&forged.to_le_bytes());
        let (_, trace) = world();
        match restore_onto(trace, &bytes) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(e) => panic!("expected a Corrupt error, got {e:?}"),
            Ok(_) => panic!("a clock at {forged} ms restored"),
        }
    }
}

/// Job arrivals are not queued: the job table is the arrival schedule, so
/// the retired arrival tag 0 in the event list is corrupt. (While arrivals
/// were queued, one forged extra arrival restored and then panicked,
/// admitting a job past the end of the table.)
#[test]
fn queued_arrival_tag_is_corrupt() {
    let bytes = baseline_snapshot();
    // Header, `started`, host count, trace digest and seed; then the clock
    // and the arrivals' handle; then the queue's next handle and length.
    let clock = 9 + 1 + 4 + 8 + 8;
    let queue = clock + 8 + 8;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let (now, next) = (word(clock), word(queue));
    let len = u32::from_le_bytes(bytes[queue + 8..queue + 12].try_into().unwrap());
    // One more entry at the current instant under the next handle. With
    // the `SlaCheck` tag (15) the forged bytes restore, so tag 0 is the
    // only thing wrong with them.
    let forge = |tag: u8| {
        let mut b = bytes[..queue].to_vec();
        b.extend((next + 1).to_le_bytes());
        b.extend((len + 1).to_le_bytes());
        b.extend(now.to_le_bytes());
        b.extend(next.to_le_bytes());
        b.push(tag);
        b.extend(&bytes[queue + 12..]);
        b
    };
    let (_, trace) = world();
    assert!(restore_onto(trace.clone(), &forge(15)).is_ok());
    match restore_onto(trace, &forge(0)) {
        Err(PersistError::Corrupt(msg)) => assert!(msg.contains("bad Event tag 0"), "{msg}"),
        Err(e) => panic!("expected a Corrupt error, got {e:?}"),
        Ok(_) => panic!("a queued arrival restored"),
    }
}

/// A small cluster with two finished VMs (0 and 5), a running (1), a
/// migrating (2), a creating (3) and a queued (4) one.
fn mid_flight_cluster() -> Cluster {
    let t = SimTime::from_secs;
    let submit = |c: &mut Cluster, id: u64| {
        c.submit_job(Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(1000),
            1.5,
        ))
    };
    let mut c = Cluster::new(small_datacenter(3, HostClass::Medium), PowerState::On);
    for (id, host) in [(0, 0), (1, 0), (2, 1)] {
        let vm = submit(&mut c, id);
        c.start_creation(vm, HostId(host), t(0), t(40));
        c.finish_creation(vm, t(40));
    }
    c.finish_vm(VmId(0), t(100));
    c.start_migration(VmId(2), HostId(2), t(100), t(160));
    let creating = submit(&mut c, 3);
    c.start_creation(creating, HostId(1), t(100), t(140));
    submit(&mut c, 4);
    let short = submit(&mut c, 5);
    c.start_creation(short, HostId(2), t(100), t(120));
    c.finish_creation(short, t(120));
    c.finish_vm(short, t(130));
    c.check_invariants();
    c
}

/// The cluster codec's layout, field by field, so each test can corrupt
/// one of them: hosts; the VM table (admitted count, live VMs in id order,
/// the finished column); the queue; the next operation sequence number.
#[derive(Clone)]
struct Parts {
    hosts: Vec<Host>,
    admitted: usize,
    live: Vec<Vm>,
    finished: Vec<Vec<u8>>,
    queue: Vec<VmId>,
}

impl Parts {
    fn of(c: &Cluster) -> Self {
        Parts {
            hosts: c.hosts().to_vec(),
            admitted: c.num_vms(),
            live: c.live_vms().cloned().collect(),
            finished: c
                .finished_vms()
                .map(|f| finished_record(f.id, f.started_at, f.completed_at))
                .collect(),
            queue: c.queue().to_vec(),
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.hosts.persist(&mut w);
        w.put_u32(self.admitted as u32);
        self.live.persist(&mut w);
        let mut bytes = w.into_bytes().unwrap();
        bytes.extend(finished_run(&self.finished));
        let mut w = Writer::new();
        self.queue.persist(&mut w);
        w.put_u64(1_000);
        bytes.extend(w.into_bytes().unwrap());
        bytes
    }

    fn live_mut(&mut self, id: u64) -> &mut Vm {
        self.live.iter_mut().find(|v| v.id == VmId(id)).unwrap()
    }
}

fn corrupt_message(parts: &Parts) -> String {
    match Cluster::restore(&mut Reader::new(&parts.bytes())) {
        Err(PersistError::Corrupt(msg)) => msg,
        Err(e) => panic!("expected a Corrupt error, got {e:?}"),
        Ok(_) => panic!("a corrupt VM table restored"),
    }
}

#[test]
fn hand_built_cluster_bytes_restore() {
    let c = mid_flight_cluster();
    let bytes = Parts::of(&c).bytes();
    let mut w = Writer::new();
    c.persist(&mut w);
    // All but the next operation sequence number, which the parts fix.
    let real = w.into_bytes().unwrap();
    assert_eq!(bytes[..bytes.len() - 8], real[..real.len() - 8]);
    let back = Cluster::restore(&mut Reader::new(&bytes)).unwrap();
    assert_eq!(back.committed_by_host(), c.committed_by_host());
    assert!(back.finished_vms().eq(c.finished_vms()));
}

#[test]
fn live_ids_out_of_order_are_corrupt() {
    let mut parts = Parts::of(&mid_flight_cluster());
    parts.live.swap(0, 1);
    let msg = corrupt_message(&parts);
    assert!(msg.contains("live ids must increase"), "{msg}");
}

#[test]
fn admitted_count_that_disagrees_with_the_table_is_corrupt() {
    let parts = Parts::of(&mid_flight_cluster());
    for admitted in [parts.admitted - 1, parts.admitted + 1] {
        let msg = corrupt_message(&Parts {
            admitted,
            ..parts.clone()
        });
        assert!(msg.contains("admitted"), "{msg}");
    }
    // A consistent table cut short of the ids the hosts name: VMs 0–2
    // only, while VM 3 is creating on host 1.
    let mut short = parts;
    short.live.retain(|v| v.id.raw() < 3);
    short.finished.truncate(1);
    short.admitted = 3;
    let msg = corrupt_message(&short);
    assert!(msg.contains("not in the VM table"), "{msg}");
}

#[test]
fn residency_naming_unknown_vms_is_corrupt() {
    let parts = Parts::of(&mid_flight_cluster());
    let beyond = VmId(parts.admitted as u64 + 7);
    for incoming in [false, true] {
        let mut parts = parts.clone();
        let h = &mut parts.hosts[0];
        let list = if incoming {
            &mut h.incoming
        } else {
            &mut h.resident
        };
        list.push(beyond);
        let msg = corrupt_message(&parts);
        assert!(
            msg.contains("not in the VM table"),
            "incoming {incoming}: {msg}"
        );
    }
    let mut parts = parts;
    parts.queue.push(beyond);
    let msg = corrupt_message(&parts);
    assert!(msg.contains("not in the VM table"), "queue: {msg}");
}

/// A finished VM resides nowhere: a record whose VM a host lists as
/// resident or incoming, or that the queue holds, is corrupt.
#[test]
fn finished_vm_that_is_resident_incoming_or_queued_is_corrupt() {
    let parts = Parts::of(&mid_flight_cluster());
    for (where_, host) in [("resident on", 0), ("incoming on", 2)] {
        let mut forged = parts.clone();
        let h = &mut forged.hosts[host];
        if host == 0 {
            h.resident.push(VmId(5));
        } else {
            h.incoming.push(VmId(5));
        }
        let msg = corrupt_message(&forged);
        assert!(msg.contains("finished") && msg.contains(where_), "{msg}");
    }
    let mut forged = parts;
    forged.queue.push(VmId(0));
    let msg = corrupt_message(&forged);
    assert!(msg.contains("finished") && msg.contains("queued"), "{msg}");
}

/// The finished column lists each finished VM once, none of them live,
/// and never a completion before its start.
#[test]
fn finished_column_records_must_be_a_permutation_and_run_forwards() {
    let parts = Parts::of(&mid_flight_cluster());
    assert_eq!(parts.finished.len(), 2);
    let mut doubled = parts.clone();
    doubled.finished[1] = doubled.finished[0].clone();
    let msg = corrupt_message(&doubled);
    assert!(msg.contains("listed twice"), "{msg}");
    let mut missing = parts.clone();
    missing.finished.pop();
    let msg = corrupt_message(&missing);
    assert!(msg.contains("1 finished VMs, but 6 admitted"), "{msg}");
    let mut live_too = parts.clone();
    live_too.finished[1] = finished_record(VmId(1), SimTime::ZERO, SimTime::ZERO);
    let msg = corrupt_message(&live_too);
    assert!(msg.contains("also live"), "{msg}");
    let mut backwards = parts;
    backwards.finished[1] = finished_record(VmId(5), SimTime::from_secs(9), SimTime::from_secs(8));
    let msg = corrupt_message(&backwards);
    assert!(msg.contains("after its completion"), "{msg}");
}

#[test]
fn migration_to_a_host_not_expecting_it_is_corrupt() {
    let mut parts = Parts::of(&mid_flight_cluster());
    parts.live_mut(1).state = VmState::Migrating {
        from: HostId(0),
        to: HostId(99),
    };
    let msg = corrupt_message(&parts);
    assert!(msg.contains("not incoming anywhere"), "{msg}");
}

#[test]
fn running_tag_without_a_host_is_corrupt() {
    // VM 1 runs on host 0. Its record is the id and request, then the
    // state tag and the host as an `Option`; forge `Running` with `None`
    // in place of the host.
    let parts = Parts::of(&mid_flight_cluster());
    let vm = parts.live.iter().find(|v| v.id == VmId(1)).unwrap();
    assert_eq!(vm.state, VmState::Running { host: HostId(0) });
    let encode = |f: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        f(&mut w);
        w.into_bytes().unwrap()
    };
    let head = encode(&|w| {
        vm.id.persist(w);
        vm.requested.persist(w);
    });
    let record = encode(&|w| vm.persist(w));
    let state = encode(&|w| vm.state.persist(w));
    let forged_state = encode(&|w| {
        w.put_u8(2);
        w.put_opt(&None::<HostId>);
    });
    let tail = head.len() + state.len();
    assert_eq!(&record[head.len()..tail], &state[..]);
    let forged = [&head[..], &forged_state[..], &record[tail..]].concat();

    let mut bytes = parts.bytes();
    let at = bytes
        .windows(record.len())
        .position(|w| w == &record[..])
        .unwrap();
    bytes.splice(at..at + record.len(), forged);
    match Cluster::restore(&mut Reader::new(&bytes)) {
        Err(PersistError::Corrupt(msg)) => assert!(msg.contains("tag 2 with host None"), "{msg}"),
        other => panic!("expected a Corrupt error, got {:?}", other.err()),
    }
}
