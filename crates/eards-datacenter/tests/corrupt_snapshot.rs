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
use eards_datacenter::{small_datacenter, RunConfig, Runner};
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
const PINNED_LEN: usize = 5_024;
const PINNED_FNV: u64 = 8_849_500_989_356_930_697;

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

/// A small cluster with a finished, a running, a migrating, a creating and
/// a queued VM.
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
    c.check_invariants();
    c
}

/// The cluster codec's layout, written field by field so each test can
/// corrupt one of them: hosts, VM table, queue, next VM id, next
/// operation sequence number.
fn cluster_bytes(hosts: Vec<Host>, vms: Vec<Vm>, queue: Vec<VmId>, next_vm_id: u64) -> Vec<u8> {
    let mut w = Writer::new();
    hosts.persist(&mut w);
    vms.persist(&mut w);
    queue.persist(&mut w);
    w.put_u64(next_vm_id);
    w.put_u64(1_000);
    w.into_bytes().unwrap()
}

fn parts(c: &Cluster) -> (Vec<Host>, Vec<Vm>, Vec<VmId>) {
    (
        c.hosts().to_vec(),
        c.vms().cloned().collect(),
        c.queue().to_vec(),
    )
}

fn corrupt_message(bytes: &[u8]) -> String {
    match Cluster::restore(&mut Reader::new(bytes)) {
        Err(PersistError::Corrupt(msg)) => msg,
        Err(e) => panic!("expected a Corrupt error, got {e:?}"),
        Ok(_) => panic!("a corrupt VM table restored"),
    }
}

#[test]
fn hand_built_cluster_bytes_restore() {
    let c = mid_flight_cluster();
    let (hosts, vms, queue) = parts(&c);
    let n = vms.len() as u64;
    let back = Cluster::restore(&mut Reader::new(&cluster_bytes(hosts, vms, queue, n))).unwrap();
    assert_eq!(back.committed_by_host(), c.committed_by_host());
}

#[test]
fn vm_out_of_its_table_slot_is_corrupt() {
    let (hosts, mut vms, queue) = parts(&mid_flight_cluster());
    let n = vms.len() as u64;
    vms.swap(1, 2);
    let msg = corrupt_message(&cluster_bytes(hosts, vms, queue, n));
    assert!(msg.contains("slot 1"), "{msg}");
}

#[test]
fn vm_count_other_than_next_vm_id_is_corrupt() {
    let (hosts, vms, queue) = parts(&mid_flight_cluster());
    let n = vms.len() as u64;
    for next in [n - 1, n + 1] {
        let msg = corrupt_message(&cluster_bytes(
            hosts.clone(),
            vms.clone(),
            queue.clone(),
            next,
        ));
        assert!(msg.contains("next_vm_id"), "{msg}");
    }
    // A table cut short of the ids the hosts name.
    let mut short = vms.clone();
    short.truncate(2);
    let msg = corrupt_message(&cluster_bytes(hosts, short, queue, 2));
    assert!(msg.contains("not in the VM table"), "{msg}");
}

#[test]
fn residency_naming_unknown_vms_is_corrupt() {
    let (hosts, vms, queue) = parts(&mid_flight_cluster());
    let n = vms.len() as u64;
    let beyond = VmId(n + 7);
    for incoming in [false, true] {
        let mut hosts = hosts.clone();
        let h = &mut hosts[0];
        let list = if incoming {
            &mut h.incoming
        } else {
            &mut h.resident
        };
        list.push(beyond);
        let msg = corrupt_message(&cluster_bytes(hosts, vms.clone(), queue.clone(), n));
        assert!(
            msg.contains("not in the VM table"),
            "incoming {incoming}: {msg}"
        );
    }
    let mut queue = queue;
    queue.push(beyond);
    let msg = corrupt_message(&cluster_bytes(hosts, vms, queue, n));
    assert!(msg.contains("not in the VM table"), "queue: {msg}");
}

#[test]
fn migration_to_a_host_not_expecting_it_is_corrupt() {
    let (hosts, mut vms, queue) = parts(&mid_flight_cluster());
    let n = vms.len() as u64;
    vms[1].state = VmState::Migrating {
        from: HostId(0),
        to: HostId(99),
    };
    let msg = corrupt_message(&cluster_bytes(hosts, vms, queue, n));
    assert!(msg.contains("not incoming anywhere"), "{msg}");
}

#[test]
fn running_tag_without_a_host_is_corrupt() {
    // VM 1 runs on host 0. Its record is the id, job and request, then
    // the state tag and the host as an `Option`; forge `Running` with
    // `None` in place of the host.
    let (hosts, vms, queue) = parts(&mid_flight_cluster());
    let n = vms.len() as u64;
    let vm = &vms[1];
    assert_eq!(vm.state, VmState::Running { host: HostId(0) });
    let encode = |f: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        f(&mut w);
        w.into_bytes().unwrap()
    };
    let head = encode(&|w| {
        vm.id.persist(w);
        vm.job.persist(w);
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

    let mut bytes = cluster_bytes(hosts, vms.clone(), queue, n);
    let at = bytes
        .windows(record.len())
        .position(|w| w == &record[..])
        .unwrap();
    bytes.splice(at..at + record.len(), forged);
    let msg = corrupt_message(&bytes);
    assert!(msg.contains("tag 2 with host None"), "{msg}");
}
