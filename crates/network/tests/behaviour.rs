//! Behavioural tests of the simulated network under load, link latency
//! and faults.
//!
//! They drive the threaded network: senders and receivers racing on
//! their own threads against the wall clock take the wake-up paths that
//! the simulator's single-threaded manual delivery never does.

// Behavioural tests measure real elapsed time.
#![allow(clippy::disallowed_methods)]

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parblock_net::{NetworkBuilder, Topology};
use parblock_types::NodeId;

#[test]
fn two_dc_topology_orders_latencies() {
    use parblock_net::DcId;
    let mut topo = Topology::two_dc(Duration::from_micros(100), Duration::from_millis(5));
    topo.place(NodeId(2), DcId(1));
    let net = NetworkBuilder::new().topology(topo).build::<u32>();
    let a = net.endpoint(NodeId(0));
    let near = net.endpoint(NodeId(1));
    let far = net.endpoint(NodeId(2));

    // The fastest of a few sends: on a busy host one late wake-up must
    // not pass for link latency (`ci/stress_threaded.sh` repeats this).
    let latency = |to: &parblock_net::Endpoint<u32>| {
        let sample = |i| {
            let start = Instant::now();
            a.send(to.id(), i);
            let _ = to.recv_timeout(Duration::from_secs(1)).expect("delivered");
            start.elapsed()
        };
        (0..5).map(sample).min().expect("five samples")
    };
    let near_latency = latency(&near);
    let far_latency = latency(&far);

    assert!(
        far_latency > near_latency + Duration::from_millis(3),
        "near {near_latency:?} vs far {far_latency:?}"
    );
    net.shutdown();
}

#[test]
fn high_fanout_multicast_delivers_everything() {
    let net = NetworkBuilder::new()
        .topology(Topology::single_dc(Duration::from_micros(100)))
        .build::<u64>();
    let sender = net.endpoint(NodeId(0));
    let receivers: Vec<_> = (1..=8).map(|i| net.endpoint(NodeId(i))).collect();
    let dests: Vec<NodeId> = (1..=8).map(NodeId).collect();
    for round in 0..50u64 {
        sender.multicast(dests.iter(), &round);
    }
    for receiver in &receivers {
        for want in 0..50u64 {
            let envelope = receiver
                .recv_timeout(Duration::from_secs(2))
                .expect("delivery");
            assert_eq!(envelope.msg, want);
        }
    }
    assert_eq!(net.stats().delivered(), 50 * 8);
    net.shutdown();
}

/// A multicast clones the message once per destination but the last; a
/// message that owns shared bytes hands every endpoint the same
/// allocation, so a consensus payload is not copied per orderer.
#[test]
fn multicast_of_shared_bytes_delivers_one_allocation() {
    let net = NetworkBuilder::new()
        .topology(Topology::single_dc(Duration::ZERO))
        .build::<(u64, Arc<[u8]>)>();
    let sender = net.endpoint(NodeId(0));
    let receivers: Vec<_> = (1..=3).map(|i| net.endpoint(NodeId(i))).collect();
    let dests: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let bytes: Arc<[u8]> = vec![9; 4096].into();
    sender.multicast(dests.iter(), &(7, Arc::clone(&bytes)));
    for receiver in &receivers {
        let envelope = receiver
            .recv_timeout(Duration::from_secs(2))
            .expect("delivery");
        assert_eq!(envelope.msg.0, 7);
        assert!(Arc::ptr_eq(&envelope.msg.1, &bytes));
    }
    net.shutdown();
}

#[test]
fn crashed_node_receives_nothing_until_restart() {
    let net = NetworkBuilder::new()
        .topology(Topology::single_dc(Duration::ZERO))
        .build::<u8>();
    let a = net.endpoint(NodeId(0));
    let b = net.endpoint(NodeId(1));
    net.faults().crash(NodeId(1));
    a.send(NodeId(1), 1);
    assert!(b.recv_timeout(Duration::from_millis(30)).is_err());
    net.faults().restart(NodeId(1));
    a.send(NodeId(1), 2);
    assert_eq!(b.recv_timeout(Duration::from_secs(1)).expect("after restart").msg, 2);
    net.shutdown();
}

/// Lost wake-ups: four senders race one receiver that blocks the way the
/// node loop does, `try_recv` and then `wait_until(None)`. Only the
/// earliest due time and a send's wake can end that wait, so one lost
/// wake leaves the receiver asleep with messages in flight.
#[test]
fn racing_senders_never_strand_a_waiting_receiver() {
    const SENDERS: u32 = 4;
    const EACH: u32 = 2_500;
    let latency = Duration::from_micros(200);
    let net = NetworkBuilder::new()
        .topology(Topology::single_dc(latency))
        .build::<(u32, u32, Instant)>();
    let receiver = net.endpoint(NodeId(0));
    let (done, report) = mpsc::channel();
    let consumer = std::thread::spawn(move || {
        let mut next = [0u32; SENDERS as usize];
        let (mut early, mut reordered) = (0, 0);
        for _ in 0..SENDERS * EACH {
            let envelope = loop {
                match receiver.try_recv() {
                    Some(envelope) => break envelope,
                    None => receiver.wait_until(None),
                }
            };
            let (sender, n, sent) = envelope.msg;
            early += usize::from(sent.elapsed() < latency);
            reordered += usize::from(n != next[sender as usize]);
            next[sender as usize] = n + 1;
        }
        done.send((early, reordered)).expect("report");
    });
    let senders: Vec<_> = (1..=SENDERS)
        .map(|id| {
            let endpoint = net.endpoint(NodeId(id));
            std::thread::spawn(move || {
                for n in 0..EACH {
                    endpoint.send(NodeId(0), (id - 1, n, Instant::now()));
                    if n % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for sender in senders {
        sender.join().expect("sender");
    }
    let (early, reordered) = report
        .recv_timeout(Duration::from_secs(60))
        .expect("a wake was lost: the receiver sleeps with messages in flight");
    consumer.join().expect("receiver");
    assert_eq!(early, 0, "no message may arrive before its link latency");
    assert_eq!(reordered, 0, "a sender's messages arrive in order");
    net.shutdown();
}

/// The network runs no thread of its own: delayed delivery to eight
/// destinations leaves no delivery worker behind (Linux names a thread
/// in `/proc/self/task/*/comm`, cut to 15 bytes).
#[cfg(target_os = "linux")]
#[test]
fn delayed_delivery_spawns_no_thread() {
    let net = NetworkBuilder::new()
        .topology(Topology::single_dc(Duration::from_micros(200)))
        .build::<u32>();
    let sender = net.endpoint(NodeId(0));
    let receivers: Vec<_> = (1..=8).map(|i| net.endpoint(NodeId(i))).collect();
    let dests: Vec<NodeId> = (1..=8).map(NodeId).collect();
    sender.multicast(dests.iter(), &7);
    for receiver in &receivers {
        let envelope = receiver.recv_timeout(Duration::from_secs(2));
        assert_eq!(envelope.expect("delivery").msg, 7);
    }
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .map(|task| {
            let comm = task.expect("task entry").path().join("comm");
            std::fs::read_to_string(comm).unwrap_or_default()
        })
        .collect();
    let workers: Vec<&String> = names
        .iter()
        .filter(|name| name.starts_with("simnet-deliver"))
        .collect();
    assert!(workers.is_empty(), "delivery threads: {workers:?}");
    net.shutdown();
}
