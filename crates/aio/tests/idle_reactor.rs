//! An idle `AsyncIpc` reactor must sleep: parked on its doorbell, it
//! accrues (almost) no CPU, whether or not futures are registered with
//! it, and a send blocked on exhausted pools must not spin it.  CPU time
//! is read from the threads' `schedstat`, so this file holds one test and
//! therefore one reactor.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Waker};
use std::time::Duration;

use mpf::{MpfConfig, Protocol};
use mpf_aio::AsyncIpc;
use mpf_ipc::IpcMpf;

/// On-CPU nanoseconds of this process's thread named `name`.
fn thread_cpu_ns(name: &str) -> u64 {
    let mut found = None;
    for task in std::fs::read_dir("/proc/self/task").expect("list tasks") {
        let dir = task.expect("task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() == name {
            assert!(found.is_none(), "more than one {name} thread");
            let stat = std::fs::read_to_string(dir.join("schedstat")).expect("schedstat");
            found = Some(stat.split_whitespace().next().unwrap().parse().unwrap());
        }
    }
    found.unwrap_or_else(|| panic!("no {name} thread"))
}

/// CPU the thread named `name` burns while `during` runs.
fn thread_cpu(name: &str, during: impl FnOnce()) -> Duration {
    // Let it finish any scan in flight and park.
    std::thread::sleep(Duration::from_millis(50));
    let before = thread_cpu_ns(name);
    during();
    Duration::from_nanos(thread_cpu_ns(name) - before)
}

/// CPU the reactor burns while `during` runs.
fn reactor_cpu(during: impl FnOnce()) -> Duration {
    thread_cpu("mpf-aio-reactor", during)
}

#[test]
fn parked_ipc_reactor_burns_no_cpu() {
    if !mpf_shm::sys::HAVE_SYSCALLS {
        return;
    }
    let name = format!("aio-idle-{}", std::process::id());
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(64)
        .with_total_blocks(8)
        .with_max_messages(8);
    let ipc = Arc::new(IpcMpf::create(&name, &cfg).unwrap());
    let a = AsyncIpc::new(Arc::clone(&ipc));
    let _tx = ipc.open_send("quiet").unwrap();
    let rx = a.open_receive("quiet", Protocol::Fcfs).unwrap();

    let span = Duration::from_millis(500);
    let budget = Duration::from_millis(1);
    let empty = reactor_cpu(|| std::thread::sleep(span));
    assert!(
        empty < budget,
        "reactor with nothing registered used {empty:?}"
    );

    // Rings for another multi-waiter of the same process must not wake
    // an idle reactor: a thread of this view waits on `busy` while a
    // peer sends to it, one message per park.
    let peer = ipc.attach_view().unwrap();
    let busy_tx = peer.open_send("busy").unwrap();
    let busy_rx = ipc.open_receive("busy", Protocol::Fcfs).unwrap();
    let rounds = 1000;
    let busy = reactor_cpu(|| {
        let waiter = {
            let ipc = Arc::clone(&ipc);
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    ipc.wait_any_deadline(&[busy_rx], None).unwrap();
                    ipc.try_message_receive_vec(busy_rx).unwrap().unwrap();
                }
            })
        };
        for _ in 0..rounds {
            // Let the waiter drain and park so the send must ring.
            while ipc.queue_depth(busy_rx).unwrap() != 0 || ipc.lnvc_watchers(busy_rx).unwrap() == 0
            {
                std::thread::yield_now();
            }
            peer.message_send(busy_tx, b"ring").unwrap();
        }
        waiter.join().unwrap();
    });
    assert!(
        busy < budget,
        "idle reactor woke for another waiter's rings: {busy:?}"
    );

    // A receive registered with the reactor and never satisfied: the
    // reactor must park on the doorbell, not nap and rescan.
    let mut pending = a.recv(rx);
    let mut cx = Context::from_waker(Waker::noop());
    assert!(Pin::new(&mut pending).poll(&mut cx).is_pending());
    let waiting = reactor_cpu(|| std::thread::sleep(span));
    assert!(
        waiting < budget,
        "reactor with a pending receive used {waiting:?}"
    );

    // A send blocked on exhausted blocks while message slots remain: each
    // retry pops a message slot and puts it back.  That rollback must not
    // count as a free, or the retry moves the memory signal it waits on
    // and the executor and reactor spin together.  The send retries at
    // the recheck interval: ten rechecks, each well under 0.5 ms of CPU.
    let full_tx = a.open_send("full").unwrap();
    let full_rx = peer.open_receive("full", Protocol::Fcfs).unwrap();
    ipc.message_send(full_tx, &[7; 8 * 64]).unwrap();
    let blocked = a.send(full_tx, vec![9; 64]);
    let sender = std::thread::Builder::new()
        .name("blocked-send".into())
        .spawn(move || mpf_aio::block_on(blocked))
        .unwrap();
    while ipc.free_waiters() == 0 {
        std::thread::yield_now();
    }
    let mut sender_used = Duration::ZERO;
    let stalled = reactor_cpu(|| {
        sender_used = thread_cpu("blocked-send", || std::thread::sleep(span));
    });
    eprintln!("blocked send: reactor {stalled:?}, executor {sender_used:?}");
    let stall_budget = Duration::from_millis(5);
    assert!(
        stalled < stall_budget,
        "reactor spun under a blocked send: {stalled:?}"
    );
    assert!(
        sender_used < stall_budget,
        "blocked send's executor spun: {sender_used:?}"
    );
    let mut buf = [0u8; 8 * 64];
    assert_eq!(peer.message_receive(full_rx, &mut buf).unwrap(), 8 * 64);
    sender.join().unwrap().unwrap();
    assert_eq!(peer.message_receive(full_rx, &mut buf).unwrap(), 64);
    assert_eq!(ipc.free_waiters(), 0, "registration dropped on completion");
}
