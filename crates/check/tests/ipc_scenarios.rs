//! Schedule-exploration scenarios for the multi-process backend
//! (`mpf-ipc`), run same-process via [`IpcMpf::attach_view`]: each logical
//! process drives its own mapping of the shared region (own process slot,
//! own base address), so the explored interleavings exercise the real
//! in-region locks, futex sequence words, and lock-free pools.
//!
//! The genuinely cross-address-space variants of these scenarios live in
//! `crates/ipc/tests/cross_process.rs`; here the scheduler can permute the
//! racy regions deterministically instead of hoping the OS happens to.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mpf::{MpfConfig, MpfError, Protocol};
use mpf_check::{explore_dfs, explore_random, Case, DeathPlan, ExploreOpts};
use mpf_ipc::IpcMpf;

type Proc = Box<dyn FnOnce() + Send>;

/// Region names must be fresh per schedule: the previous schedule's
/// region is unlinked when its last view drops, but a monotonic counter
/// keeps any straggler from colliding.
fn region(tag: &str) -> IpcMpf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let cfg = MpfConfig::new(4, 4)
        .with_block_payload(32)
        .with_total_blocks(16)
        .with_max_messages(8)
        .with_max_connections(8);
    IpcMpf::create(&format!("chk-{tag}-{}-{n}", std::process::id()), &cfg).expect("create region")
}

/// The FCFS-obligation leak, ipc edition: the last FCFS receiver's view
/// closes while a broadcast view keeps the conversation alive, racing the
/// sends.  Every schedule must end with the queue drained and all 16
/// blocks free (before the fix, schedules that enqueued before the close
/// left the messages owed to an empty receiver class forever).
fn ipc_leak_case() -> Case {
    let a = region("leak");
    let b = a.attach_view().expect("view b");
    let c = a.attach_view().expect("view c");
    let total = a.free_blocks();
    let tx = a.open_send("leak").expect("open send");
    let rf = b.open_receive("leak", Protocol::Fcfs).expect("open fcfs");
    let rb = c
        .open_receive("leak", Protocol::Broadcast)
        .expect("open bcast");
    let a = Arc::new(a);
    let checker = Arc::clone(&a);
    let sender = Box::new(move || {
        a.message_send(tx, b"first").expect("send 1");
        a.message_send(tx, b"second").expect("send 2");
    }) as Proc;
    let fcfs_closer = Box::new(move || {
        b.close_receive(rf).expect("close fcfs");
    }) as Proc;
    let bcast_reader = Box::new(move || {
        let mut buf = [0u8; 32];
        for _ in 0..2 {
            c.message_receive(rb, &mut buf).expect("bcast recv");
        }
    }) as Proc;
    Case {
        procs: vec![sender, fcfs_closer, bcast_reader],
        death: None,
        check: Box::new(move || {
            if checker.free_blocks() != total {
                return Err(format!(
                    "ipc obligation leak: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            if checker.live_lnvcs() != 1 {
                return Err("conversation should still be alive".into());
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_fcfs_obligation_leak_dfs() {
    let opts = ExploreOpts::new("ipc-fcfs-obligation-leak").max_schedules(150);
    explore_dfs(&opts, ipc_leak_case).assert_ok();
}

#[test]
fn ipc_fcfs_obligation_leak_random() {
    let opts = ExploreOpts::new("ipc-fcfs-obligation-leak-pct").max_schedules(150);
    explore_random(&opts, 0x1BC, ipc_leak_case).assert_ok();
}

/// Two FCFS views race one message through the real in-region claim path:
/// exactly one may get it, under every explored interleaving.
#[test]
fn ipc_fcfs_exactly_once_across_views() {
    let make = || {
        let a = region("once");
        let b = a.attach_view().expect("view b");
        let c = a.attach_view().expect("view c");
        let total = a.free_blocks();
        let tx = a.open_send("once").expect("open send");
        let r1 = b.open_receive("once", Protocol::Fcfs).expect("open r1");
        let r2 = c.open_receive("once", Protocol::Fcfs).expect("open r2");
        a.message_send(tx, b"only").expect("seed send");
        let got = Arc::new(AtomicUsize::new(0));
        let a = Arc::new(a);
        let checker = Arc::clone(&a);
        let racer = |view: IpcMpf, id| {
            let got = Arc::clone(&got);
            Box::new(move || {
                let mut buf = [0u8; 32];
                if view
                    .try_message_receive(id, &mut buf)
                    .expect("try recv")
                    .is_some()
                {
                    got.fetch_add(1, Ordering::Relaxed);
                }
            }) as Proc
        };
        let procs = vec![racer(b, r1), racer(c, r2)];
        let got = Arc::clone(&got);
        Case {
            procs,
            death: None,
            check: Box::new(move || {
                let n = got.load(Ordering::Relaxed);
                if n != 1 {
                    return Err(format!("FCFS message delivered {n} times, want exactly 1"));
                }
                if checker.free_blocks() != total {
                    return Err("blocks leaked after exactly-once delivery".into());
                }
                Ok(())
            }),
        }
    };
    let opts = ExploreOpts::new("ipc-fcfs-exactly-once").max_schedules(200);
    explore_dfs(&opts, make).assert_ok();
    explore_random(&opts, 0x10CE, make).assert_ok();
}

/// Death mid-critical-section: the victim seizes the conversation's
/// in-region lock through its own view, and the scheduler may kill it at
/// any decision point — including while the lock is held.  The survivor's
/// next acquire must consult the liveness oracle, break the dead holder,
/// poison the conversation, and surface `PeerDied`; its close path must
/// still run on the poisoned conversation and free every block.  Before
/// modeled death this path was reachable only by actually SIGKILLing an
/// OS process mid-send (`mpf-soak`); here every kill point is enumerated.
///
/// `when_poisoned` is called once per schedule in which the survivor
/// observed `PeerDied` — the caller proves the lock-held kill point was
/// actually enumerated (and not just survived schedules).
fn ipc_death_mid_lock_case(when_poisoned: Arc<dyn Fn() + Send + Sync>) -> Case {
    let a = region("death");
    let v = a.attach_view().expect("victim view");
    let total = a.free_blocks();
    let tx = a.open_send("mort").expect("open send");
    let rx = a.open_receive("mort", Protocol::Fcfs).expect("open recv");
    // A second conversation whose only purpose is to give the victim a
    // *parked* decision point while it holds the first conversation's
    // lock: hooked processes park only at decision points (pre-acquire,
    // post-release), so without a nested acquire the victim could never
    // be caught mid-critical-section.
    let txb = a.open_send("mort-aux").expect("open aux send");
    let a = Arc::new(a);
    let v = Arc::new(v);
    let checker = Arc::clone(&a);
    let died = Arc::new(AtomicBool::new(false));
    let saw_poison = Arc::new(AtomicBool::new(false));
    // Victim (process 0, mortal): seize the conversation's lock, then
    // acquire a second one — parking, with the first lock held, at the
    // nested acquire's decision point.  A kill there dies holding the
    // lock: the in-region lock is not RAII, so unwinding the thread
    // releases nothing, exactly like a real SIGKILL.  Every call
    // tolerates `UnknownLnvc` — in schedules where the survivor runs to
    // completion first, its closes delete the conversations and the
    // victim's handles go stale.
    let victim = {
        let v = Arc::clone(&v);
        Box::new(move || {
            if v.debug_seize_lnvc_lock(tx).is_ok() {
                if v.debug_seize_lnvc_lock(txb).is_ok() {
                    let _ = v.debug_release_lnvc_lock(txb);
                }
                let _ = v.debug_release_lnvc_lock(tx);
            }
        }) as Proc
    };
    // Survivor (process 1): one send/receive round-trip, accepting
    // PeerDied wherever the poison surfaces, then production recovery —
    // close both connections (close works on poisoned conversations; the
    // last one out deletes the conversation and frees any queued blocks).
    let survivor = {
        let a = Arc::clone(&a);
        let saw_poison = Arc::clone(&saw_poison);
        Box::new(move || {
            let mut buf = [0u8; 32];
            match a.message_send(tx, b"ping") {
                Ok(()) => match a.try_message_receive(rx, &mut buf) {
                    Ok(got) => assert!(got.is_some(), "sent message must be queued"),
                    Err(MpfError::PeerDied { .. }) => saw_poison.store(true, Ordering::Relaxed),
                    Err(e) => panic!("recv after send: {e:?}"),
                },
                Err(MpfError::PeerDied { .. }) => saw_poison.store(true, Ordering::Relaxed),
                Err(e) => panic!("send: {e:?}"),
            }
            a.close_send(tx)
                .expect("close send on poisoned conversation");
            a.close_receive(rx)
                .expect("close recv on poisoned conversation");
            a.close_send(txb).expect("close aux send");
        }) as Proc
    };
    let on_death = {
        let died = Arc::clone(&died);
        let v = Arc::clone(&v);
        Box::new(move |_tid: usize| {
            // Hook-free by contract: two atomic stores.  Abandoning the
            // slot flips the liveness oracle so survivors see a corpse.
            died.store(true, Ordering::Relaxed);
            v.debug_abandon_slot();
        })
    };
    Case {
        procs: vec![victim, survivor],
        death: Some(DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            if saw_poison.load(Ordering::Relaxed) {
                if !died.load(Ordering::Relaxed) {
                    return Err("observed PeerDied but nobody was killed".into());
                }
                when_poisoned();
            }
            if checker.free_blocks() != total {
                return Err(format!(
                    "block leak after modeled death: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            if checker.live_lnvcs() != 0 {
                return Err("conversation must be gone after the survivor closes".into());
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_death_mid_critical_section_dfs() {
    let poisoned_runs = Arc::new(AtomicUsize::new(0));
    let bump: Arc<dyn Fn() + Send + Sync> = {
        let p = Arc::clone(&poisoned_runs);
        Arc::new(move || {
            p.fetch_add(1, Ordering::Relaxed);
        })
    };
    let opts = ExploreOpts::new("ipc-death-mid-lock").max_schedules(400);
    explore_dfs(&opts, || ipc_death_mid_lock_case(Arc::clone(&bump))).assert_ok();
    assert!(
        poisoned_runs.load(Ordering::Relaxed) > 0,
        "DFS never enumerated a kill-while-lock-held schedule"
    );
}

#[test]
fn ipc_death_mid_critical_section_random() {
    let poisoned_runs = Arc::new(AtomicUsize::new(0));
    let bump: Arc<dyn Fn() + Send + Sync> = {
        let p = Arc::clone(&poisoned_runs);
        Arc::new(move || {
            p.fetch_add(1, Ordering::Relaxed);
        })
    };
    let opts = ExploreOpts::new("ipc-death-mid-lock-pct").max_schedules(200);
    explore_random(&opts, 0xDEAD, || ipc_death_mid_lock_case(Arc::clone(&bump))).assert_ok();
    assert!(
        poisoned_runs.load(Ordering::Relaxed) > 0,
        "random schedules never took a kill-while-lock-held option"
    );
}

/// The acceptance path end-to-end: DFS *finds* a schedule in which the
/// poison surfaced (reported here as a deliberate check failure), and the
/// recorded choice list replays that exact schedule — kill point included
/// — reproducing the same failure.  This is the previously SIGKILL-only
/// failure mode made deterministic and replayable.
#[test]
fn ipc_death_schedule_is_replayable() {
    let make = || {
        let flagged = Arc::new(AtomicBool::new(false));
        let mark: Arc<dyn Fn() + Send + Sync> = {
            let f = Arc::clone(&flagged);
            Arc::new(move || f.store(true, Ordering::Relaxed))
        };
        let mut case = ipc_death_mid_lock_case(mark);
        let inner = case.check;
        case.check = Box::new(move || {
            inner()?;
            if flagged.load(Ordering::Relaxed) {
                return Err("poison-observed".into());
            }
            Ok(())
        });
        case
    };
    let opts = ExploreOpts::new("ipc-death-replay").max_schedules(400);
    let report = explore_dfs(&opts, make);
    let failure = report
        .failure
        .expect("DFS must reach a schedule where the survivor observes PeerDied");
    let mpf_check::FailureKind::CheckFailed(msg) = &failure.kind else {
        panic!("expected the marker check failure, got {:?}", failure.kind);
    };
    assert_eq!(msg, "poison-observed");
    let mpf_check::ScheduleId::Choices(choices) = &failure.schedule else {
        panic!("DFS failures carry choice lists");
    };
    let replayed = mpf_check::replay_choices(&opts, choices, make);
    assert!(
        matches!(replayed, Some(mpf_check::FailureKind::CheckFailed(ref m)) if m == "poison-observed"),
        "replay must re-kill at the recorded point, got {replayed:?}"
    );
}

/// Conservation under a dead sender: a message is queued from the victim's
/// own connection before exploration, and the victim may be killed before
/// it can close.  Whatever the interleaving — survivor sweeps the corpse
/// and sees poison, or drains the message first, or the victim survives
/// and closes cleanly — every payload block must return to the free list
/// and the conversation must be deletable.
fn ipc_dead_sender_case() -> Case {
    let a = region("corpse");
    let v = a.attach_view().expect("victim view");
    let total = a.free_blocks();
    let tx = v.open_send("doomed").expect("open send");
    let rx = a.open_receive("doomed", Protocol::Fcfs).expect("open recv");
    v.message_send(tx, b"last words").expect("seed send");
    let a = Arc::new(a);
    let v = Arc::new(v);
    let checker = Arc::clone(&a);
    let victim = {
        let v = Arc::clone(&v);
        Box::new(move || {
            v.close_send(tx).expect("close send");
        }) as Proc
    };
    let survivor = {
        let a = Arc::clone(&a);
        Box::new(move || {
            a.sweep_dead_peers();
            let mut buf = [0u8; 32];
            match a.try_message_receive(rx, &mut buf) {
                Ok(_) | Err(MpfError::PeerDied { .. }) => {}
                Err(e) => panic!("recv: {e:?}"),
            }
            a.close_receive(rx).expect("close recv");
        }) as Proc
    };
    let on_death = {
        let v = Arc::clone(&v);
        Box::new(move |_tid: usize| v.debug_abandon_slot())
    };
    Case {
        procs: vec![victim, survivor],
        death: Some(DeathPlan {
            victims: vec![0],
            on_death,
        }),
        check: Box::new(move || {
            // The victim may have died after the survivor's sweep; reap
            // it now (the check runs unhooked) so the corpse's send
            // connection is swept and an orphaned conversation deleted —
            // exactly what the next live process would do.
            checker.sweep_dead_peers();
            if checker.free_blocks() != total {
                return Err(format!(
                    "dead sender leaked blocks: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            if checker.live_lnvcs() != 0 {
                return Err("conversation must be reclaimable after the corpse is swept".into());
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_dead_sender_conservation_dfs() {
    let opts = ExploreOpts::new("ipc-dead-sender").max_schedules(300);
    explore_dfs(&opts, ipc_dead_sender_case).assert_ok();
}

#[test]
fn ipc_dead_sender_conservation_random() {
    let opts = ExploreOpts::new("ipc-dead-sender-pct").max_schedules(150);
    explore_random(&opts, 0xC0FFE, ipc_dead_sender_case).assert_ok();
}

/// Doorbell wake-up.  A waiter view multi-waits on two conversations and
/// the only send lands on the second, so it can wake only through the
/// sender's doorbell ring.  Without a kill plan, a lost ring leaves the
/// waiter parked with no runnable peer, which the harness reports as a
/// deadlock.  With one (`when_killed_watching` is `Some`), the waiter may
/// be killed at any decision point, including while its watches are held.
/// Either way the watcher counts must return to zero: by the waiter's own
/// unwatch, or by the dead-peer sweep returning a corpse's watches.
/// Blocks are conserved in every schedule.
///
/// `when_killed_watching` is called once per schedule whose victim died
/// holding a watch, so the caller can prove that kill point was reached.
fn ipc_doorbell_case(when_killed_watching: Option<Arc<dyn Fn() + Send + Sync>>) -> Case {
    let a = region("bell");
    let w = a.attach_view().expect("waiter view");
    let total = a.free_blocks();
    let _t1 = a.open_send("bell-1").expect("open send 1");
    let t2 = a.open_send("bell-2").expect("open send 2");
    let r1 = w
        .open_receive("bell-1", Protocol::Fcfs)
        .expect("open recv 1");
    let r2 = w
        .open_receive("bell-2", Protocol::Fcfs)
        .expect("open recv 2");
    let a = Arc::new(a);
    let w = Arc::new(w);
    let checker = Arc::clone(&a);
    let watching_at_death = Arc::new(AtomicBool::new(false));
    let waiter = {
        let w = Arc::clone(&w);
        Box::new(move || {
            let ready = w.wait_any_deadline(&[r1, r2], None).expect("wait any");
            assert_eq!(ready, r2, "only the second member has traffic");
            let mut buf = [0u8; 32];
            let got = w.try_message_receive(r2, &mut buf).expect("recv");
            assert!(got.is_some(), "the ready member must deliver");
        }) as Proc
    };
    let sender = {
        let a = Arc::clone(&a);
        Box::new(move || a.message_send(t2, b"ring").expect("send")) as Proc
    };
    let death = when_killed_watching.is_some().then(|| {
        let (a, w) = (Arc::clone(&a), Arc::clone(&w));
        let watching = Arc::clone(&watching_at_death);
        DeathPlan {
            victims: vec![0],
            on_death: Box::new(move |_tid: usize| {
                // Hook-free: descriptor loads and stores.
                let held = [r1, r2]
                    .iter()
                    .any(|&id| a.lnvc_watchers(id).unwrap_or(0) != 0);
                watching.store(held, Ordering::Relaxed);
                w.debug_abandon_slot();
            }),
        }
    });
    Case {
        procs: vec![waiter, sender],
        death,
        check: Box::new(move || {
            // Reap a corpse the way the next live process would.
            checker.sweep_dead_peers();
            if watching_at_death.load(Ordering::Relaxed) {
                if let Some(f) = &when_killed_watching {
                    f();
                }
            }
            for (name, id) in [("bell-1", r1), ("bell-2", r2)] {
                let n = checker.lnvc_watchers(id).unwrap_or(0);
                if n != 0 {
                    return Err(format!("{name} still counts {n} watcher(s) at teardown"));
                }
            }
            if checker.free_waiters() != 0 {
                return Err("free-space waiter count leaked".into());
            }
            if checker.free_blocks() != total {
                return Err(format!(
                    "doorbell case leaked blocks: {} free of {total}",
                    checker.free_blocks()
                ));
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_doorbell_no_lost_wakeup_dfs() {
    let opts = ExploreOpts::new("ipc-doorbell").max_schedules(300);
    explore_dfs(&opts, || ipc_doorbell_case(None)).assert_ok();
}

#[test]
fn ipc_doorbell_no_lost_wakeup_random() {
    let opts = ExploreOpts::new("ipc-doorbell-pct").max_schedules(200);
    explore_random(&opts, 0xBE11, || ipc_doorbell_case(None)).assert_ok();
}

#[test]
fn ipc_doorbell_dead_waiter_watches_swept_dfs() {
    let killed_watching = Arc::new(AtomicUsize::new(0));
    let bump: Arc<dyn Fn() + Send + Sync> = {
        let k = Arc::clone(&killed_watching);
        Arc::new(move || {
            k.fetch_add(1, Ordering::Relaxed);
        })
    };
    let opts = ExploreOpts::new("ipc-doorbell-death").max_schedules(400);
    explore_dfs(&opts, || ipc_doorbell_case(Some(Arc::clone(&bump)))).assert_ok();
    assert!(
        killed_watching.load(Ordering::Relaxed) > 0,
        "DFS never killed the waiter while it held a watch"
    );
}

/// Free-space wake-up.  The sender view's only message holds every
/// block, so its next send blocks in `send_deadline` as a free waiter
/// until the receiver view takes that message.  Without a kill plan, a
/// lost free-space ring leaves the sender parked with no runnable peer (a
/// reported deadlock), and every block comes back once the late message
/// is drained.  With one, the sender may be killed at any decision point,
/// including inside its registration; the dead-peer sweep must bring the
/// region's free-waiter count back to zero either way.  (A sender killed
/// between staging and linking a message leaks that message, as any
/// mid-send death does, so the kill variant does not count blocks.)
///
/// `when_killed_waiting` is called once per schedule whose victim died
/// registered as a free waiter, so the caller can prove that kill point
/// was reached.
fn ipc_free_waiter_case(when_killed_waiting: Option<Arc<dyn Fn() + Send + Sync>>) -> Case {
    let a = region("free");
    let v = a.attach_view().expect("sender view");
    let total = a.free_blocks();
    let tx = v.open_send("free").expect("open send");
    let rx = a.open_receive("free", Protocol::Fcfs).expect("open recv");
    v.message_send(tx, &[1u8; 16 * 32])
        .expect("fill the blocks");
    let a = Arc::new(a);
    let v = Arc::new(v);
    let checker = Arc::clone(&a);
    let waiting_at_death = Arc::new(AtomicBool::new(false));
    let sender = {
        let v = Arc::clone(&v);
        Box::new(move || v.send_deadline(tx, b"late", None).expect("blocked send")) as Proc
    };
    let receiver = {
        let a = Arc::clone(&a);
        Box::new(move || {
            let mut buf = [0u8; 16 * 32];
            let n = a.message_receive(rx, &mut buf).expect("recv");
            assert_eq!(n, 16 * 32, "the filling message comes first");
        }) as Proc
    };
    let killing = when_killed_waiting.is_some();
    let death = killing.then(|| {
        let v = Arc::clone(&v);
        let waiting = Arc::clone(&waiting_at_death);
        DeathPlan {
            victims: vec![0],
            on_death: Box::new(move |_tid: usize| {
                // Hook-free: header loads and slot stores.
                waiting.store(v.free_waiters() != 0, Ordering::Relaxed);
                v.debug_abandon_slot();
            }),
        }
    });
    Case {
        procs: vec![sender, receiver],
        death,
        check: Box::new(move || {
            checker.sweep_dead_peers();
            if waiting_at_death.load(Ordering::Relaxed) {
                if let Some(f) = &when_killed_waiting {
                    f();
                }
            }
            let n = checker.free_waiters();
            if n != 0 {
                return Err(format!("{n} free waiter(s) still counted at teardown"));
            }
            if !killing {
                let mut buf = [0u8; 32];
                match checker.try_message_receive(rx, &mut buf) {
                    Ok(Some(4)) if &buf[..4] == b"late" => {}
                    other => return Err(format!("blocked send not delivered: {other:?}")),
                }
                if checker.free_blocks() != total {
                    return Err(format!(
                        "free-waiter case leaked blocks: {} free of {total}",
                        checker.free_blocks()
                    ));
                }
            }
            Ok(())
        }),
    }
}

#[test]
fn ipc_free_waiter_no_lost_wakeup_dfs() {
    let opts = ExploreOpts::new("ipc-free-waiter").max_schedules(300);
    explore_dfs(&opts, || ipc_free_waiter_case(None)).assert_ok();
}

#[test]
fn ipc_free_waiter_dead_sender_count_swept_dfs() {
    let killed_waiting = Arc::new(AtomicUsize::new(0));
    let bump: Arc<dyn Fn() + Send + Sync> = {
        let k = Arc::clone(&killed_waiting);
        Arc::new(move || {
            k.fetch_add(1, Ordering::Relaxed);
        })
    };
    let opts = ExploreOpts::new("ipc-free-waiter-death").max_schedules(400);
    explore_dfs(&opts, || ipc_free_waiter_case(Some(Arc::clone(&bump)))).assert_ok();
    assert!(
        killed_waiting.load(Ordering::Relaxed) > 0,
        "DFS never killed the sender while it was registered"
    );
}
