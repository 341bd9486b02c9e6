//! Deadline-bounded blocking on the ipc backend: `recv_deadline`,
//! `send_deadline`, `wait_any_deadline` and the batch variants must
//! surface `MpfError::TimedOut` at expiry with nothing consumed or
//! enqueued, while traffic racing the deadline is still delivered.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpf::{MpfConfig, MpfError, Protocol};
use mpf_ipc::IpcMpf;

fn region(name: &str) -> IpcMpf {
    let cfg = MpfConfig::new(8, 4)
        .with_block_payload(64)
        .with_total_blocks(8)
        .with_max_messages(8)
        .with_max_connections(16);
    IpcMpf::create(name, &cfg).expect("create region")
}

#[test]
fn recv_deadline_times_out_with_typed_error() {
    let m = region("dl-recv");
    let _tx = m.open_send("quiet").unwrap();
    let rx = m.open_receive("quiet", Protocol::Fcfs).unwrap();
    let mut buf = [0u8; 8];
    let start = Instant::now();
    let err = m
        .recv_deadline(rx, &mut buf, Some(start + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(
        err,
        MpfError::TimedOut,
        "deadline API reports TimedOut, not WouldBlock"
    );
    assert!(start.elapsed() >= Duration::from_millis(50));
}

#[test]
fn recv_deadline_delivers_a_queued_message_despite_expiry() {
    let m = region("dl-race");
    let tx = m.open_send("race").unwrap();
    let rx = m.open_receive("race", Protocol::Fcfs).unwrap();
    m.message_send(tx, b"beat-it").unwrap();
    let mut buf = [0u8; 16];
    // Deadline already past, but the delivery attempt runs first.
    let n = m.recv_deadline(rx, &mut buf, Some(Instant::now())).unwrap();
    assert_eq!(&buf[..n], b"beat-it");
}

#[test]
fn recv_deadline_wakes_on_send_from_another_view() {
    let a = region("dl-wake");
    let b = a.attach_view().expect("second view");
    let tx = b.open_send("wake").unwrap();
    let rx = a.open_receive("wake", Protocol::Fcfs).unwrap();
    let sender = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        b.message_send(tx, b"late but real").unwrap();
        b.close_send(tx).unwrap();
    });
    let mut buf = [0u8; 32];
    let n = a
        .recv_deadline(rx, &mut buf, Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(&buf[..n], b"late but real");
    sender.join().unwrap();
}

#[test]
fn send_deadline_times_out_under_exhaustion_with_nothing_enqueued() {
    let m = region("dl-send");
    let tx = m.open_send("full").unwrap();
    let rx = m.open_receive("full", Protocol::Fcfs).unwrap();
    // 8 one-block messages exhaust the 8-block pool.
    for i in 0..8 {
        m.message_send(tx, &[i; 64]).unwrap();
    }
    let start = Instant::now();
    let err = m
        .send_deadline(tx, &[9; 64], Some(start + Duration::from_millis(60)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
    assert!(start.elapsed() >= Duration::from_millis(60));

    // Only the eight pre-expiry messages exist; the timed-out send
    // staged nothing.
    let mut buf = [0u8; 64];
    for i in 0..8 {
        let n = m.message_receive(rx, &mut buf).unwrap();
        assert_eq!(&buf[..n], &[i; 64][..]);
    }
    assert!(!m.check_receive(rx).unwrap());

    // With the pool drained, the same send completes and every block
    // returns to the pool afterwards.
    let free_before = m.free_blocks();
    m.send_deadline(tx, &[9; 64], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    let n = m.message_receive(rx, &mut buf).unwrap();
    assert_eq!(&buf[..n], &[9; 64][..]);
    assert_eq!(
        m.free_blocks(),
        free_before,
        "blocks conserved through the retry"
    );
}

#[test]
fn wait_any_deadline_times_out_then_reports_the_ready_member() {
    let m = region("dl-any");
    let t1 = m.open_send("a").unwrap();
    let r1 = m.open_receive("a", Protocol::Fcfs).unwrap();
    let _t2 = m.open_send("b").unwrap();
    let r2 = m.open_receive("b", Protocol::Fcfs).unwrap();

    assert_eq!(
        m.wait_any_deadline(&[], Some(Instant::now())).unwrap_err(),
        MpfError::EmptyWaitSet
    );
    let err = m
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);

    m.message_send(t1, b"here").unwrap();
    let ready = m
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(ready, r1);
}

#[test]
fn wait_any_deadline_wakes_on_cross_view_send() {
    let a = region("dl-any-wake");
    let b = a.attach_view().unwrap();
    let _t1 = a.open_send("m1").unwrap();
    let r1 = a.open_receive("m1", Protocol::Fcfs).unwrap();
    let t2 = b.open_send("m2").unwrap();
    let r2 = a.open_receive("m2", Protocol::Fcfs).unwrap();
    let b = Arc::new(b);
    let sender = {
        let b = Arc::clone(&b);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            b.message_send(t2, b"pick me").unwrap();
        })
    };
    let ready = a
        .wait_any_deadline(&[r1, r2], Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(ready, r2);
    sender.join().unwrap();
}

#[test]
fn recv_batch_deadline_times_out_then_drains() {
    let m = region("dl-rbatch");
    let tx = m.open_send("batch").unwrap();
    let rx = m.open_receive("batch", Protocol::Fcfs).unwrap();
    let err = m
        .recv_batch_deadline(rx, 8, Some(Instant::now() + Duration::from_millis(50)))
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);

    for i in 0..3u8 {
        m.message_send(tx, &[i; 4]).unwrap();
    }
    let got = m
        .recv_batch_deadline(rx, 8, Some(Instant::now() + Duration::from_secs(30)))
        .unwrap();
    assert_eq!(got, vec![vec![0; 4], vec![1; 4], vec![2; 4]]);
}

#[test]
fn send_batch_deadline_times_out_when_nothing_submits() {
    let m = region("dl-sbatch");
    let tx = m.open_send("bfull").unwrap();
    let _rx = m.open_receive("bfull", Protocol::Fcfs).unwrap();
    for i in 0..8 {
        m.message_send(tx, &[i; 64]).unwrap();
    }
    let err = m
        .send_batch_deadline(
            tx,
            &[&[7; 64], &[8; 64]],
            Some(Instant::now() + Duration::from_millis(60)),
        )
        .unwrap_err();
    assert_eq!(err, MpfError::TimedOut);
}

/// Runs `f` on a helper thread and fails the test if it has not finished
/// within `limit`: a lost doorbell ring shows up as a hang, not a pass.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("blocked call did not return within the watchdog")
}

#[test]
fn wait_any_without_deadline_wakes_on_send_to_second_member() {
    let a = Arc::new(region("dl-any-bell"));
    let b = a.attach_view().unwrap();
    let _t1 = a.open_send("first").unwrap();
    let r1 = a.open_receive("first", Protocol::Fcfs).unwrap();
    let t2 = b.open_send("second").unwrap();
    let r2 = a.open_receive("second", Protocol::Fcfs).unwrap();
    let waiter = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            let ready = a.wait_any_deadline(&[r1, r2], None);
            (ready, Instant::now())
        })
    };
    // Let the waiter watch both members and park on its doorbell.
    while a.lnvc_watchers(r2).unwrap() == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(5));
    let sent = Instant::now();
    b.message_send(t2, b"second member").unwrap();
    let (ready, woke) = within(Duration::from_secs(5), move || waiter.join().unwrap());
    assert_eq!(ready.unwrap(), r2);
    eprintln!("doorbell wake latency {:?}", woke - sent);
    assert_eq!(a.lnvc_watchers(r1).unwrap(), 0, "watch dropped on return");
    assert_eq!(a.lnvc_watchers(r2).unwrap(), 0, "watch dropped on return");
}

#[test]
fn send_deadline_parks_until_a_receive_frees_space() {
    let a = Arc::new(region("dl-send-bell"));
    let b = a.attach_view().unwrap();
    let tx = a.open_send("full").unwrap();
    let rx = b.open_receive("full", Protocol::Fcfs).unwrap();
    for i in 0..8 {
        a.message_send(tx, &[i; 64]).unwrap();
    }
    let waits_before = a.telemetry_snapshot().send_waits;
    let sender = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            a.send_deadline(tx, &[9; 64], None).unwrap();
            Instant::now()
        })
    };
    while a.free_waiters() == 0 {
        std::thread::yield_now();
    }
    // Stay blocked across two liveness-sweep intervals: a nap-and-retry
    // loop would make dozens of attempts here, a parked sender a handful.
    std::thread::sleep(Duration::from_millis(120));
    let freed = Instant::now();
    let mut buf = [0u8; 64];
    assert_eq!(b.message_receive(rx, &mut buf).unwrap(), 64);
    let done = within(Duration::from_secs(5), move || sender.join().unwrap());
    eprintln!("free-space wake latency {:?}", done - freed);
    let attempts = a.telemetry_snapshot().send_waits - waits_before;
    assert!(
        attempts <= 6,
        "{attempts} refused attempts while blocked: the sender is polling"
    );
    assert_eq!(a.free_waiters(), 0, "registration dropped on return");
    for i in 1..8 {
        assert_eq!(b.message_receive(rx, &mut buf).unwrap(), 64);
        assert_eq!(buf, [i; 64]);
    }
    assert_eq!(b.message_receive(rx, &mut buf).unwrap(), 64);
    assert_eq!(buf, [9; 64], "the blocked send was enqueued last");
}

#[test]
fn send_deadline_parks_when_blocks_run_out_before_message_slots() {
    let a = Arc::new(region("dl-send-blocks"));
    let b = a.attach_view().unwrap();
    let tx = a.open_send("full").unwrap();
    let rx = b.open_receive("full", Protocol::Fcfs).unwrap();
    // One message holds every block and leaves seven message slots free,
    // so each refused attempt pops a slot and rolls it back.
    a.message_send(tx, &[7; 8 * 64]).unwrap();
    let waits_before = a.telemetry_snapshot().send_waits;
    let sender = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            a.send_deadline(tx, &[9; 64], None).unwrap();
            Instant::now()
        })
    };
    while a.free_waiters() == 0 {
        std::thread::yield_now();
    }
    // A rollback that rang the sender's own doorbell would turn this
    // wait into a hot loop of refused attempts.
    std::thread::sleep(Duration::from_millis(120));
    let freed = Instant::now();
    let mut buf = [0u8; 8 * 64];
    assert_eq!(b.message_receive(rx, &mut buf).unwrap(), 8 * 64);
    let done = within(Duration::from_secs(5), move || sender.join().unwrap());
    eprintln!("free-space wake latency {:?}", done - freed);
    let attempts = a.telemetry_snapshot().send_waits - waits_before;
    assert!(
        attempts <= 6,
        "{attempts} refused attempts while blocked: the sender is spinning"
    );
    assert_eq!(a.free_waiters(), 0, "registration dropped on return");
    assert_eq!(b.message_receive(rx, &mut buf).unwrap(), 64);
    assert_eq!(buf[..64], [9; 64]);
}
