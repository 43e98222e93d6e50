//! Integration tests for the simulated 4.2BSD kernel: IPC semantics,
//! process control, and the metering machinery of §3.2 / Appendix C.

use dpm_meter::{trace_type, MeterBody, MeterFlags, MeterMsg, SockName, TermReason};
use dpm_simnet::{ClockSpec, NetConfig};
use dpm_simos::{
    connect_backoff, Backoff, BindTo, Cluster, Domain, FlagSel, Pid, PidSel, Proc, RunState, Sig,
    SockSel, SockType, SysError, SysResult, Uid,
};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const U: Uid = Uid(100);

fn two_machines() -> Arc<Cluster> {
    Cluster::builder()
        .net(NetConfig::ideal())
        .seed(1)
        .machine("red")
        .machine("green")
        .build()
}

/// Spawns a collector that accepts `conns` meter connections on
/// `port` of `machine` (sequentially — stream buffering makes that
/// safe) and appends everything it reads to the shared buffer.
fn spawn_collector_n(
    cluster: &Arc<Cluster>,
    machine: &str,
    port: u16,
    conns: usize,
) -> (Pid, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let out = buf.clone();
    let pid = cluster
        .spawn_user(machine, "collector", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(port))?;
            p.listen(s, 8)?;
            // Accept every expected connection before draining any of
            // them: a connector blocks until accepted, and the data
            // triggering one stream's EOF may depend on another
            // connection having been established.
            let mut open: Vec<u32> = Vec::new();
            for _ in 0..conns {
                let (conn, _) = p.accept(s)?;
                open.push(conn);
            }
            for conn in open {
                loop {
                    let data = p.read(conn, 4096)?;
                    if data.is_empty() {
                        break;
                    }
                    out.lock().extend_from_slice(&data);
                }
                p.close(conn)?;
            }
            Ok(())
        })
        .unwrap();
    (pid, buf)
}

/// Set by a receiver once it can take traffic: a datagram sent to an
/// unbound port is dropped and a connect to a socket not yet listening
/// is refused, so a sender waits for this first.
#[derive(Clone, Default)]
struct Ready(Arc<AtomicBool>);

impl Ready {
    fn set(&self) {
        self.0.store(true, Ordering::Release);
    }

    fn wait(&self) {
        while !self.0.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }
}

/// One-connection collector, the common case.
fn spawn_collector(cluster: &Arc<Cluster>, machine: &str, port: u16) -> (Pid, Arc<Mutex<Vec<u8>>>) {
    spawn_collector_n(cluster, machine, port, 1)
}

/// Connects a stream socket to `(host, port)` and installs it as the
/// meter socket of `target` with the given flags — what the
/// meterdaemon does for every metered process.
fn meter_process(p: &Proc, target: Pid, flags: MeterFlags, host: &str, port: u16) -> SysResult<()> {
    // Retry with real sleeps: the collector thread may not have bound
    // its port yet, and a refused connect would leave the suspended
    // target unstarted forever.
    let mut tries = 0;
    let s = loop {
        let s = p.socket(Domain::Inet, SockType::Stream)?;
        match p.connect_host(s, host, port) {
            Ok(()) => break s,
            Err(SysError::Econnrefused) if tries < 2000 => {
                p.close(s)?;
                tries += 1;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    };
    p.setmeter(PidSel::Pid(target), FlagSel::Set(flags), SockSel::Fd(s))?;
    p.close(s)
}

#[test]
fn datagram_round_trip_carries_source_name() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let red = cluster.machine("red").unwrap();

    let receiving = Ready::default();
    let ready = receiving.clone();
    let rx = cluster
        .spawn_user("green", "rx", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(s, BindTo::Port(53))?;
            ready.set();
            let (data, src) = p.recvfrom(s, 100)?;
            assert_eq!(data, b"query");
            // The sender was auto-bound, so its name is known.
            match src {
                Some(SockName::Inet { host, .. }) => assert_eq!(host, 0), // red
                other => panic!("unexpected source {other:?}"),
            }
            Ok(())
        })
        .unwrap();

    receiving.wait();
    let tx = cluster
        .spawn_user("red", "tx", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let host = p.cluster().resolve_host("green")?;
            p.sendto(
                s,
                b"query",
                &SockName::Inet {
                    host: host.0,
                    port: 53,
                },
            )?;
            Ok(())
        })
        .unwrap();

    assert_eq!(green.wait_exit(rx), Some(TermReason::Normal));
    assert_eq!(red.wait_exit(tx), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn datagram_connect_then_send_uses_default_peer() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let receiving = Ready::default();
    let ready = receiving.clone();
    let rx = cluster
        .spawn_user("green", "rx", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(s, BindTo::Port(99))?;
            ready.set();
            let (data, _) = p.recvfrom(s, 10)?;
            assert_eq!(data, b"hi");
            Ok(())
        })
        .unwrap();
    receiving.wait();
    let tx = cluster
        .spawn_user("red", "tx", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let host = p.cluster().resolve_host("green")?;
            p.connect(
                s,
                &SockName::Inet {
                    host: host.0,
                    port: 99,
                },
            )?;
            p.write(s, b"hi")?;
            Ok(())
        })
        .unwrap();
    assert_eq!(green.wait_exit(rx), Some(TermReason::Normal));
    assert_eq!(
        cluster.machine("red").unwrap().wait_exit(tx),
        Some(TermReason::Normal)
    );
    cluster.shutdown();
}

#[test]
fn stream_is_reliable_and_ordered_across_many_writes() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let server = cluster
        .spawn_user("green", "server", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(2000))?;
            p.listen(s, 4)?;
            let (conn, _) = p.accept(s)?;
            let mut got = Vec::new();
            loop {
                let chunk = p.read(conn, 64)?;
                if chunk.is_empty() {
                    break;
                }
                got.extend_from_slice(&chunk);
            }
            let want: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
            assert_eq!(got, want, "stream bytes reordered or lost");
            Ok(())
        })
        .unwrap();
    let client = cluster
        .spawn_user("red", "client", U, |p| {
            // The server may not be listening yet: retry refused connects.
            let s = connect_backoff(&p, "green", 2000, Backoff::standard())?;
            let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
            for chunk in data.chunks(100) {
                p.write(s, chunk)?;
            }
            p.close(s)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(green.wait_exit(server), Some(TermReason::Normal));
    assert_eq!(
        cluster.machine("red").unwrap().wait_exit(client),
        Some(TermReason::Normal)
    );
    cluster.shutdown();
}

#[test]
fn lossy_network_drops_datagrams_but_never_stream_bytes() {
    let cluster = Cluster::builder()
        .net(NetConfig::lossy())
        .seed(3)
        .machine("red")
        .machine("green")
        .build();
    let green = cluster.machine("green").unwrap();

    // Datagrams: send 200, expect visibly fewer to arrive.
    let n_recv = Arc::new(Mutex::new(0usize));
    let n = n_recv.clone();
    let receiving = Ready::default();
    let ready = receiving.clone();
    let rx = cluster
        .spawn_user("green", "rx", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            p.bind(s, BindTo::Port(7))?;
            ready.set();
            loop {
                let (data, _) = p.recvfrom(s, 16)?;
                if data == b"done" {
                    break;
                }
                *n.lock() += 1;
            }
            Ok(())
        })
        .unwrap();
    receiving.wait();
    let tx = cluster
        .spawn_user("red", "tx", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let host = p.cluster().resolve_host("green")?;
            let dest = SockName::Inet {
                host: host.0,
                port: 7,
            };
            for _ in 0..200 {
                p.sendto(s, b"ping", &dest)?;
            }
            // A reliable "done" has to go over a stream… but to keep
            // this self-contained, spam the sentinel until it lands.
            for _ in 0..200 {
                p.sendto(s, b"done", &dest)?;
            }
            Ok(())
        })
        .unwrap();
    cluster.machine("red").unwrap().wait_exit(tx);
    green.wait_exit(rx);
    let received = *n_recv.lock();
    assert!(received < 200, "no datagrams lost in a 20%-loss network");
    assert!(received > 50, "implausibly many datagrams lost: {received}");
    assert!(cluster.wire_stats().snapshot().datagrams_lost > 0);
    cluster.shutdown();
}

#[test]
fn connect_to_unbound_port_is_refused() {
    let cluster = two_machines();
    let c = cluster
        .spawn_user("red", "c", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            assert_eq!(
                p.connect_host(s, "green", 12345),
                Err(SysError::Econnrefused)
            );
            Ok(())
        })
        .unwrap();
    assert_eq!(
        cluster.machine("red").unwrap().wait_exit(c),
        Some(TermReason::Normal)
    );
    cluster.shutdown();
}

#[test]
fn eof_and_epipe_after_close() {
    let cluster = two_machines();
    let green = cluster.machine("green").unwrap();
    let server = cluster
        .spawn_user("green", "server", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(2100))?;
            p.listen(s, 1)?;
            let (conn, _) = p.accept(s)?;
            assert_eq!(p.read(conn, 100)?, b"bye");
            assert_eq!(p.read(conn, 100)?, b"", "expected EOF after peer close");
            // Writing into the dead connection breaks the pipe.
            assert_eq!(p.write(conn, b"x"), Err(SysError::Epipe));
            Ok(())
        })
        .unwrap();
    let client = cluster
        .spawn_user("red", "client", U, |p| {
            let s = connect_backoff(&p, "green", 2100, Backoff::standard())?;
            p.write(s, b"bye")?;
            p.close(s)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(green.wait_exit(server), Some(TermReason::Normal));
    assert_eq!(
        cluster.machine("red").unwrap().wait_exit(client),
        Some(TermReason::Normal)
    );
    cluster.shutdown();
}

#[test]
fn unix_domain_sockets_work_within_a_machine() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let listening = Ready::default();
    let ready = listening.clone();
    let server = cluster
        .spawn_user("red", "server", U, move |p| {
            let s = p.socket(Domain::Unix, SockType::Stream)?;
            p.bind(s, BindTo::Path("/tmp/srv".into()))?;
            p.listen(s, 1)?;
            ready.set();
            let (conn, peer) = p.accept(s)?;
            assert!(
                matches!(peer, SockName::Internal(_)),
                "auto-bound unix name"
            );
            assert_eq!(p.read(conn, 10)?, b"local");
            Ok(())
        })
        .unwrap();
    listening.wait();
    let client = cluster
        .spawn_user("red", "client", U, |p| {
            let s = p.socket(Domain::Unix, SockType::Stream)?;
            p.connect(s, &SockName::UnixPath("/tmp/srv".into()))?;
            p.write(s, b"local")?;
            Ok(())
        })
        .unwrap();
    assert_eq!(red.wait_exit(server), Some(TermReason::Normal));
    assert_eq!(red.wait_exit(client), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn socketpair_connects_both_ends() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let pid = cluster
        .spawn_user("red", "pair", U, |p| {
            let (a, b) = p.socketpair()?;
            p.write(a, b"ab")?;
            assert_eq!(p.read(b, 10)?, b"ab");
            p.write(b, b"ba")?;
            assert_eq!(p.read(a, 10)?, b"ba");
            Ok(())
        })
        .unwrap();
    assert_eq!(red.wait_exit(pid), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn bind_errors() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let pid = cluster
        .spawn_user("red", "b", U, |p| {
            let s1 = p.socket(Domain::Inet, SockType::Stream)?;
            let s2 = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s1, BindTo::Port(80))?;
            assert_eq!(p.bind(s2, BindTo::Port(80)), Err(SysError::Eaddrinuse));
            assert_eq!(
                p.bind(s2, BindTo::Path("/x".into())),
                Err(SysError::Einval),
                "path bind on an inet socket"
            );
            assert_eq!(p.bind(99, BindTo::Port(81)), Err(SysError::Ebadf));
            // double bind
            assert_eq!(p.bind(s1, BindTo::Port(82)), Err(SysError::Einval));
            Ok(())
        })
        .unwrap();
    assert_eq!(red.wait_exit(pid), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn fork_child_inherits_descriptors_and_parent_sees_termination() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let pid = cluster
        .spawn_user("red", "parent", U, |p| {
            let (a, b) = p.socketpair()?;
            let child = p.fork_with(move |c| {
                // The child writes through the inherited descriptor.
                c.write(b, b"from child")?;
                Ok(())
            })?;
            assert_eq!(p.read(a, 100)?, b"from child");
            let (dead, reason) = p.wait_child()?;
            assert_eq!(dead, child);
            assert_eq!(reason, TermReason::Normal);
            Ok(())
        })
        .unwrap();
    assert_eq!(red.wait_exit(pid), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn stop_cont_kill_control_a_process() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let looper = red.spawn_fn("looper", U, None, true, |p| loop {
        p.compute_ms(1)?;
    });
    // Let it run, then stop it.
    while red.proc_cpu_us(looper).unwrap() == 0 {
        std::thread::yield_now();
    }
    red.signal(None, looper, Sig::Stop).unwrap();
    // Wait until the thread actually parks at a syscall boundary.
    let mut spins = 0;
    let cpu_at_stop = loop {
        let a = red.proc_cpu_us(looper).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let b = red.proc_cpu_us(looper).unwrap();
        if a == b {
            break b;
        }
        spins += 1;
        assert!(spins < 1000, "process never stopped");
    };
    assert_eq!(red.proc_state(looper), Some(RunState::Stopped));
    std::thread::sleep(std::time::Duration::from_millis(5));
    assert_eq!(
        red.proc_cpu_us(looper).unwrap(),
        cpu_at_stop,
        "stopped process burned CPU"
    );
    // Resume, verify progress, then kill.
    red.signal(None, looper, Sig::Cont).unwrap();
    while red.proc_cpu_us(looper).unwrap() == cpu_at_stop {
        std::thread::yield_now();
    }
    red.signal(None, looper, Sig::Kill).unwrap();
    assert_eq!(red.wait_exit(looper), Some(TermReason::Killed));
    cluster.shutdown();
}

#[test]
fn kill_unblocks_a_blocked_accept() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let pid = cluster
        .spawn_user("red", "blocked", U, |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(2200))?;
            p.listen(s, 1)?;
            let _ = p.accept(s)?; // nobody will ever connect
            unreachable!("accept returned without a connector");
        })
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(10));
    red.signal(None, pid, Sig::Kill).unwrap();
    assert_eq!(red.wait_exit(pid), Some(TermReason::Killed));
    cluster.shutdown();
}

#[test]
fn suspended_process_runs_only_after_start() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let flag = Arc::new(Mutex::new(false));
    let f = flag.clone();
    let pid = red.spawn_fn("suspended", U, None, false, move |_p| {
        *f.lock() = true;
        Ok(())
    });
    assert_eq!(red.proc_state(pid), Some(RunState::Embryo));
    std::thread::sleep(std::time::Duration::from_millis(10));
    assert!(!*flag.lock(), "suspended process executed an instruction");
    red.signal(None, pid, Sig::Cont).unwrap();
    assert_eq!(red.wait_exit(pid), Some(TermReason::Normal));
    assert!(*flag.lock());
    cluster.shutdown();
}

#[test]
fn program_registry_spawn_file_and_console() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    cluster.register_program("greet", |p, args| {
        let who = args
            .first()
            .map(String::as_str)
            .unwrap_or("world")
            .to_owned();
        p.write(1, format!("hello {who}\n").as_bytes())?;
        Ok(())
    });
    cluster.install_program_file("red", "/bin/greet", "greet");
    let spawner = cluster
        .spawn_user("red", "daemonish", U, |p| {
            let child = p.spawn_file("/bin/greet", vec!["unix".into()], None)?;
            // Created suspended, as §3.5.1 requires.
            p.kill(child, dpm_simos::Sig::Cont)?;
            let (dead, reason) = p.wait_child()?;
            assert_eq!(dead, child);
            assert_eq!(reason, TermReason::Normal);
            // Console output is visible to the host.
            let out = p.machine().console_output(child).unwrap();
            assert_eq!(String::from_utf8_lossy(&out), "hello unix\n");
            // Errors for bad files:
            assert_eq!(
                p.spawn_file("/bin/missing", vec![], None),
                Err(SysError::Enoent)
            );
            p.machine()
                .fs()
                .write("/bin/junk", b"not a program".to_vec());
            assert_eq!(
                p.spawn_file("/bin/junk", vec![], None),
                Err(SysError::Enoexec)
            );
            Ok(())
        })
        .unwrap();
    assert_eq!(red.wait_exit(spawner), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn console_stdin_feeds_and_eofs() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let pid = cluster
        .spawn_user("red", "cat", U, |p| {
            let mut lines = Vec::new();
            while let Some(line) = p.read_line(0)? {
                lines.push(line);
            }
            assert_eq!(lines, vec!["first".to_owned(), "second".to_owned()]);
            Ok(())
        })
        .unwrap();
    red.feed_stdin(pid, b"first\nsecond\n");
    red.close_stdin(pid);
    assert_eq!(red.wait_exit(pid), Some(TermReason::Normal));
    cluster.shutdown();
}

// ---------------------------------------------------------------------
// Metering
// ---------------------------------------------------------------------

/// Runs a simple metered workload and returns the decoded meter
/// messages the collector received.
fn metered_workload(flags: MeterFlags, buffer_msgs: u32) -> Vec<MeterMsg> {
    let cluster = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(9)
        .meter_buffer(buffer_msgs)
        .machine("red")
        .machine("blue")
        .build();
    let red = cluster.machine("red").unwrap();
    let blue = cluster.machine("blue").unwrap();
    let (collector, buf) = spawn_collector(&cluster, "blue", 4000);

    // The workload: talk to a local echo-ish datagram peer.
    let worker = red.spawn_fn("worker", U, None, false, |p| {
        let s = p.socket(Domain::Inet, SockType::Datagram)?;
        p.bind(s, BindTo::Port(5555))?;
        let peer = p.socket(Domain::Inet, SockType::Datagram)?;
        let me = p.cluster().resolve_host("red")?;
        for i in 0..5u8 {
            p.sendto(
                peer,
                &[i; 8],
                &SockName::Inet {
                    host: me.0,
                    port: 5555,
                },
            )?;
            let (_data, _src) = p.recvfrom(s, 64)?;
        }
        let d = p.dup(peer)?;
        p.close(d)?;
        Ok(())
    });

    // A stand-in meterdaemon meters the suspended worker, then starts it.
    let daemon = red.spawn_fn("daemon", U, None, true, move |p| {
        meter_process(&p, worker, flags, "blue", 4000)?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    red.wait_exit(daemon);
    red.wait_exit(worker);
    blue.wait_exit(collector);
    let bytes = buf.lock().clone();
    cluster.shutdown();
    MeterMsg::decode_all(&bytes).expect("well-formed meter stream")
}

#[test]
fn metered_process_produces_decodable_event_stream() {
    let flags = MeterFlags::ALL | MeterFlags::IMMEDIATE;
    let msgs = metered_workload(flags, 8);
    // 2 socket creates + 5 sends + 5 recvcalls + 5 recvs + dup +
    // 2 closes (dup'd fd and... the workload closes only `d`) + termproc.
    let count = |t: u32| msgs.iter().filter(|m| m.header.trace_type == t).count();
    assert_eq!(count(trace_type::SOCKET), 2);
    assert_eq!(count(trace_type::SEND), 5);
    assert_eq!(count(trace_type::RECEIVECALL), 5);
    assert_eq!(count(trace_type::RECEIVE), 5);
    assert_eq!(count(trace_type::DUP), 1);
    assert_eq!(count(trace_type::DESTSOCKET), 1);
    assert_eq!(count(trace_type::TERMPROC), 1);
    // Every message is stamped with the right machine id (red == 0).
    assert!(msgs.iter().all(|m| m.header.machine == 0));
    // Send bodies carry the destination name (datagrams).
    for m in &msgs {
        if let MeterBody::Send(s) = &m.body {
            assert_eq!(s.msg_length, 8);
            assert!(matches!(s.dest_name, Some(SockName::Inet { .. })));
        }
    }
}

#[test]
fn flag_selection_filters_event_kinds() {
    let msgs = metered_workload(MeterFlags::SEND | MeterFlags::IMMEDIATE, 8);
    assert!(!msgs.is_empty());
    assert!(
        msgs.iter().all(|m| m.header.trace_type == trace_type::SEND),
        "only send events were flagged"
    );
    assert_eq!(msgs.len(), 5);
}

#[test]
fn buffering_delivers_the_same_events_as_immediate() {
    let flags = MeterFlags::ALL;
    let buffered = metered_workload(flags, 6);
    let immediate = metered_workload(flags | MeterFlags::IMMEDIATE, 6);
    let kinds = |ms: &[MeterMsg]| {
        let mut v: Vec<u32> = ms.iter().map(|m| m.header.trace_type).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(kinds(&buffered), kinds(&immediate));
    // Termination flushed the tail: the last event is termproc.
    assert_eq!(
        buffered.last().unwrap().header.trace_type,
        trace_type::TERMPROC
    );
}

#[test]
fn meter_messages_have_monotone_cpu_time_per_process() {
    let msgs = metered_workload(MeterFlags::ALL, 4);
    let stamps: Vec<u32> = msgs.iter().map(|m| m.header.cpu_time).collect();
    let mut sorted = stamps.clone();
    sorted.sort_unstable();
    assert_eq!(stamps, sorted, "single-machine event stamps out of order");
    // procTime is quantized to 10 ms.
    assert!(msgs.iter().all(|m| m.header.proc_time % 10 == 0));
}

#[test]
fn meter_socket_is_invisible_to_the_metered_process() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let (collector, _buf) = spawn_collector(&cluster, "green", 4100);

    let fds_before = Arc::new(Mutex::new(0u32));
    let fb = fds_before.clone();
    let worker = red.spawn_fn("worker", U, None, false, move |p| {
        // A metered process allocating a socket must get the same fd it
        // would get unmetered: the meter connection consumed no slot.
        let s = p.socket(Domain::Inet, SockType::Datagram)?;
        *fb.lock() = s;
        Ok(())
    });
    let daemon = red.spawn_fn("daemon", U, None, true, move |p| {
        meter_process(&p, worker, MeterFlags::ALL, "green", 4100)?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    red.wait_exit(daemon);
    red.wait_exit(worker);
    assert_eq!(*fds_before.lock(), 3, "first fd after stdio must be 3");
    cluster.machine("green").unwrap().wait_exit(collector);
    cluster.shutdown();
}

#[test]
fn setmeter_permission_and_argument_errors() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let victim = red.spawn_fn("victim", Uid(200), None, false, |p| {
        p.compute_ms(1)?;
        Ok(())
    });
    let tester = red.spawn_fn("tester", Uid(100), None, true, move |p| {
        // Different uid: EPERM.
        assert_eq!(
            p.setmeter(
                PidSel::Pid(victim),
                FlagSel::Set(MeterFlags::ALL),
                SockSel::NoChange
            ),
            Err(SysError::Eperm)
        );
        // Unknown pid: ESRCH.
        assert_eq!(
            p.setmeter(PidSel::Pid(Pid(99999)), FlagSel::None, SockSel::NoChange),
            Err(SysError::Esrch)
        );
        // Bad socket descriptor: ESRCH ("the socket does not exist").
        assert_eq!(
            p.setmeter(
                PidSel::Current,
                FlagSel::Set(MeterFlags::ALL),
                SockSel::Fd(77)
            ),
            Err(SysError::Esrch)
        );
        // Wrong kind of socket: EINVAL.
        let dg = p.socket(Domain::Inet, SockType::Datagram)?;
        assert_eq!(
            p.setmeter(PidSel::Current, FlagSel::NoChange, SockSel::Fd(dg)),
            Err(SysError::Einval)
        );
        let ux = p.socket(Domain::Unix, SockType::Stream)?;
        assert_eq!(
            p.setmeter(PidSel::Current, FlagSel::NoChange, SockSel::Fd(ux)),
            Err(SysError::Einval)
        );
        // Setting flags on self works; Set replaces, None clears.
        p.setmeter(
            PidSel::Current,
            FlagSel::Set(MeterFlags::SEND),
            SockSel::NoChange,
        )?;
        assert_eq!(p.getmeter(PidSel::Current)?, MeterFlags::SEND);
        p.setmeter(
            PidSel::Current,
            FlagSel::Set(MeterFlags::FORK),
            SockSel::NoChange,
        )?;
        assert_eq!(
            p.getmeter(PidSel::Current)?,
            MeterFlags::FORK,
            "Set must replace"
        );
        p.setmeter(PidSel::Current, FlagSel::None, SockSel::NoChange)?;
        assert_eq!(p.getmeter(PidSel::Current)?, MeterFlags::NONE);
        Ok(())
    });
    assert_eq!(red.wait_exit(tester), Some(TermReason::Normal));
    red.signal(None, victim, Sig::Kill).unwrap();
    red.wait_exit(victim);
    cluster.shutdown();
}

#[test]
fn root_may_meter_anyone() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let victim = red.spawn_fn("victim", Uid(200), None, false, |p| {
        p.compute_ms(1)?;
        Ok(())
    });
    let root = red.spawn_fn("root", Uid::ROOT, None, true, move |p| {
        p.setmeter(
            PidSel::Pid(victim),
            FlagSel::Set(MeterFlags::ALL),
            SockSel::NoChange,
        )?;
        p.kill(victim, Sig::Cont)?;
        Ok(())
    });
    assert_eq!(red.wait_exit(root), Some(TermReason::Normal));
    assert_eq!(red.wait_exit(victim), Some(TermReason::Normal));
    cluster.shutdown();
}

#[test]
fn fork_children_inherit_metering() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let (collector, buf) = spawn_collector(&cluster, "green", 4200);

    let worker = red.spawn_fn("parent", U, None, false, |p| {
        let child = p.fork_with(|c| {
            // The child is metered without ever calling setmeter.
            let s = c.socket(Domain::Inet, SockType::Datagram)?;
            c.close(s)?;
            Ok(())
        })?;
        let _ = p.wait_child()?;
        let _ = child;
        Ok(())
    });
    let daemon = red.spawn_fn("daemon", U, None, true, move |p| {
        meter_process(
            &p,
            worker,
            MeterFlags::ALL | MeterFlags::IMMEDIATE,
            "green",
            4200,
        )?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    red.wait_exit(daemon);
    red.wait_exit(worker);
    cluster.machine("green").unwrap().wait_exit(collector);
    let msgs = MeterMsg::decode_all(&buf.lock()).unwrap();
    cluster.shutdown();

    let fork_evt = msgs
        .iter()
        .find_map(|m| match &m.body {
            MeterBody::Fork(f) => Some(*f),
            _ => None,
        })
        .expect("fork event present");
    let child_pid = fork_evt.new_pid;
    let child_events: Vec<_> = msgs.iter().filter(|m| m.body.pid() == child_pid).collect();
    assert!(
        child_events
            .iter()
            .any(|m| m.header.trace_type == trace_type::SOCKET),
        "child's socket create was metered"
    );
    assert!(
        child_events
            .iter()
            .any(|m| m.header.trace_type == trace_type::TERMPROC),
        "child's termination was metered"
    );
}

#[test]
fn accept_and_connect_events_pair_by_names() {
    let cluster = two_machines();
    let red = cluster.machine("red").unwrap();
    let green = cluster.machine("green").unwrap();
    let (collector, buf) = spawn_collector_n(&cluster, "green", 4300, 2);

    let listening = Ready::default();
    let ready = listening.clone();
    let server = red.spawn_fn("server", U, None, false, move |p| {
        let s = p.socket(Domain::Inet, SockType::Stream)?;
        p.bind(s, BindTo::Port(2500))?;
        p.listen(s, 2)?;
        ready.set();
        let (conn, _) = p.accept(s)?;
        let _ = p.read(conn, 100)?;
        Ok(())
    });
    let client = green.spawn_fn("client", U, None, false, |p| {
        let s = p.socket(Domain::Inet, SockType::Stream)?;
        p.connect_host(s, "red", 2500)?;
        p.write(s, b"x")?;
        Ok(())
    });
    let daemon_r = red.spawn_fn("daemon-r", U, None, true, move |p| {
        meter_process(
            &p,
            server,
            MeterFlags::ALL | MeterFlags::IMMEDIATE,
            "green",
            4300,
        )?;
        p.kill(server, Sig::Cont)?;
        Ok(())
    });
    red.wait_exit(daemon_r);
    // Start the client only once the server listens: a refused connect
    // would leave the server in `accept` for ever.
    listening.wait();
    let daemon_g = green.spawn_fn("daemon-g", U, None, true, move |p| {
        meter_process(
            &p,
            client,
            MeterFlags::ALL | MeterFlags::IMMEDIATE,
            "green",
            4300,
        )?;
        p.kill(client, Sig::Cont)?;
        Ok(())
    });
    green.wait_exit(daemon_g);
    red.wait_exit(server);
    green.wait_exit(client);
    green.wait_exit(collector);
    let msgs = MeterMsg::decode_all(&buf.lock()).unwrap();
    cluster.shutdown();

    let accept = msgs
        .iter()
        .find_map(|m| match &m.body {
            MeterBody::Accept(a) => Some(a.clone()),
            _ => None,
        })
        .expect("accept event");
    let connect = msgs
        .iter()
        .find_map(|m| match &m.body {
            MeterBody::Connect(c) => Some(c.clone()),
            _ => None,
        })
        .expect("connect event");
    // The pairing rule the analysis uses: the connector's sock_name is
    // the acceptor's peer_name and vice versa.
    assert_eq!(connect.sock_name, accept.peer_name);
    assert_eq!(connect.peer_name, accept.sock_name);
    assert_ne!(accept.sock, accept.new_sock);
}

#[test]
fn clock_skew_shows_up_in_cross_machine_stamps() {
    let cluster = Cluster::builder()
        .net(NetConfig::ideal())
        .machine_with_clock(
            "ahead",
            ClockSpec {
                offset_us: 60_000_000, // one minute ahead
                skew_ppm: 0,
            },
        )
        .machine_with_clock("behind", ClockSpec::default())
        .build();
    let ahead = cluster.machine("ahead").unwrap();
    let behind = cluster.machine("behind").unwrap();
    let a = ahead.spawn_fn("a", U, None, true, |p| {
        p.compute_ms(5)?;
        Ok(())
    });
    let b = behind.spawn_fn("b", U, None, true, |p| {
        p.compute_ms(5)?;
        Ok(())
    });
    ahead.wait_exit(a);
    behind.wait_exit(b);
    assert!(
        ahead.clock().now_ms() >= behind.clock().now_ms() + 59_000,
        "machine clocks should disagree by about a minute"
    );
    cluster.shutdown();
}
