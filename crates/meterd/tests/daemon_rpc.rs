//! Integration tests for the meterdaemon: the Fig. 3.5 scenario —
//! a controller on machine A drives processes on machine B through
//! the daemon's RPC protocol, and the daemon reports state changes
//! back on connections it initiates.

use dpm_filter::register_filter_program;
use dpm_meter::MeterFlags;
use dpm_meterd::{
    notify, read_frame, rpc_call, rpc_call_retry, start_meterdaemons, Reply, Request, RpcStatus,
    METERD_PORT, RPC_TIMEOUT_MS,
};
use dpm_simnet::NetConfig;
use dpm_simos::{Backoff, BindTo, Cluster, Domain, Pid, Proc, SockType, SysError, SysResult, Uid};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CONTROL_PORT: u16 = 5001;

fn cluster() -> Arc<Cluster> {
    let c = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(11)
        .machine("yellow") // controller
        .machine("red") // workers
        .machine("blue") // filter
        .build();
    register_filter_program(&c);
    start_meterdaemons(&c);
    c
}

/// The notifications a controller has received, in arrival order.
type Notes = Arc<Mutex<Vec<Request>>>;

/// Runs `body` as a host-driven "controller" process on yellow with a
/// notification listener socket already bound; notifications are
/// pushed into the returned queue (which `body` also sees) by a forked
/// helper.
fn with_controller<F>(c: &Arc<Cluster>, body: F) -> Notes
where
    F: FnOnce(&Proc, &Notes) -> SysResult<()> + Send + 'static,
{
    let notes: Notes = Arc::new(Mutex::new(Vec::new()));
    let notes2 = notes.clone();
    let body_notes = notes.clone();
    let yellow = c.machine("yellow").unwrap();
    let pid = yellow.spawn_fn("controller", Uid(7), None, true, move |p| {
        let ns = p.socket(Domain::Inet, SockType::Stream)?;
        p.bind(ns, BindTo::Port(CONTROL_PORT))?;
        p.listen(ns, 16)?;
        let sink = notes2.clone();
        p.fork_with(move |lp| loop {
            let (conn, _) = lp.accept(ns)?;
            while let Some(frame) = read_frame(&lp, conn)? {
                if let Ok(req) = Request::decode(&frame) {
                    sink.lock().push(req);
                }
            }
            lp.close(conn)?;
        })?;
        for host in ["yellow", "red", "blue"] {
            wait_for_daemon(&p, host)?;
        }
        body(&p, &body_notes)
    });
    yellow.wait_exit(pid);
    notes
}

fn create_req(filename: &str, params: Vec<String>, flags: MeterFlags, redirect: bool) -> Request {
    Request::Create {
        filename: filename.into(),
        params,
        filter_port: 4000,
        filter_host: "blue".into(),
        meter_flags: flags,
        control_port: CONTROL_PORT,
        control_host: "yellow".into(),
        redirect_io: redirect,
        stdin_file: None,
    }
}

fn start_filter(p: &Proc) -> SysResult<Pid> {
    let rep = rpc_call(
        p,
        "blue",
        &Request::CreateFilter {
            spec: dpm_meterd::FilterSpec::builder("/bin/filter", 4000)
                .logfile("/usr/tmp/log.f1")
                .build()
                .expect("valid spec"),
        },
    )?;
    match rep {
        Reply::Create {
            pid,
            status: RpcStatus::Ok,
        } => Ok(pid),
        other => panic!("filter creation failed: {other:?}"),
    }
}

/// Waits until `host`'s meterdaemon accepts connections. The daemons
/// start with the cluster, each on a thread of its own, so on a loaded
/// host a first RPC can otherwise find nothing listening yet.
fn wait_for_daemon(p: &Proc, host: &str) -> SysResult<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = p.socket(Domain::Inet, SockType::Stream)?;
        let connected = p.connect_host(s, host, METERD_PORT);
        p.close(s)?;
        match connected {
            Err(SysError::Econnrefused) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(1));
            }
            other => return other,
        }
    }
}

/// Polls `done` until it holds or 30 s of real time pass; the caller
/// then asserts on the outcome. Notifications and signals cross real
/// threads, so no fixed sleep is long enough on a loaded host.
fn wait_until(mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn is_normal_termination(r: &Request) -> bool {
    matches!(r, Request::StateChange { state: 0, .. })
}

#[test]
fn create_start_and_termination_notification() {
    let c = cluster();
    c.register_program("worker", |p, _args| {
        p.compute_ms(5)?;
        p.write(1, b"worker output\n")?;
        Ok(())
    });
    c.install_program_file("red", "/bin/worker", "worker");

    let notes = with_controller(&c, |p, notes| {
        start_filter(p)?;
        // Create the worker on red — it comes back suspended.
        let rep = rpc_call(
            p,
            "red",
            &create_req("/bin/worker", vec![], MeterFlags::ALL, true),
        )?;
        let Reply::Create {
            pid,
            status: RpcStatus::Ok,
        } = rep
        else {
            panic!("create failed: {rep:?}");
        };
        // Start it; wait for the daemon's termination notice and the
        // forwarded output to land, however long the notifications
        // take to cross the network.
        let rep = rpc_call(p, "red", &Request::Start { pid })?;
        assert!(rep.status().is_ok());
        wait_until(|| {
            let notes = notes.lock();
            notes.iter().any(is_normal_termination)
                && notes.iter().any(|r| matches!(r, Request::IoData { .. }))
        });
        Ok(())
    });

    let notes = notes.lock();
    let term: Vec<&Request> = notes.iter().filter(|r| is_normal_termination(r)).collect();
    assert_eq!(
        term.len(),
        1,
        "exactly one normal-termination notice: {notes:?}"
    );
    let io: Vec<&Request> = notes
        .iter()
        .filter(|r| matches!(r, Request::IoData { .. }))
        .collect();
    assert_eq!(io.len(), 1, "redirected stdout was forwarded: {notes:?}");
    if let Request::IoData { data, .. } = io[0] {
        assert_eq!(data, b"worker output\n");
    }
    c.shutdown();
}

#[test]
fn create_failures_report_status() {
    let c = cluster();
    let _ = with_controller(&c, |p, _notes| {
        start_filter(p)?;
        // Missing file.
        let rep = rpc_call(
            p,
            "red",
            &create_req("/bin/missing", vec![], MeterFlags::NONE, false),
        )?;
        assert_eq!(rep.status(), RpcStatus::NoEnt);
        // Bad filter host/port: connection refused at create time.
        let rep = rpc_call(
            p,
            "red",
            &Request::Create {
                filename: "/etc/meterd".into(),
                params: vec![],
                filter_port: 9999,
                filter_host: "blue".into(),
                meter_flags: MeterFlags::ALL,
                control_port: CONTROL_PORT,
                control_host: "yellow".into(),
                redirect_io: false,
                stdin_file: None,
            },
        )?;
        assert_eq!(rep.status(), RpcStatus::Fail);
        // Unknown pid control.
        let rep = rpc_call(p, "red", &Request::Start { pid: Pid(424242) })?;
        assert_eq!(rep.status(), RpcStatus::Srch);
        Ok(())
    });
    c.shutdown();
}

#[test]
fn stop_resume_and_kill_through_the_daemon() {
    let c = cluster();
    c.register_program("spinner", |p, _| loop {
        p.compute_ms(1)?;
    });
    c.install_program_file("red", "/bin/spinner", "spinner");
    let red = c.machine("red").unwrap();
    let red2 = red.clone();

    let _ = with_controller(&c, move |p, _notes| {
        start_filter(p)?;
        let Reply::Create {
            pid,
            status: RpcStatus::Ok,
        } = rpc_call(
            p,
            "red",
            &create_req("/bin/spinner", vec![], MeterFlags::NONE, false),
        )?
        else {
            panic!("create failed")
        };
        assert_eq!(
            red2.proc_state(pid),
            Some(dpm_simos::RunState::Embryo),
            "created suspended"
        );
        assert!(rpc_call(p, "red", &Request::Start { pid })?
            .status()
            .is_ok());
        while red2.proc_cpu_us(pid).unwrap_or(0) == 0 {
            std::thread::yield_now();
        }
        assert!(rpc_call(p, "red", &Request::Stop { pid })?.status().is_ok());
        // Let it park.
        wait_until(|| red2.proc_state(pid) == Some(dpm_simos::RunState::Stopped));
        assert_eq!(red2.proc_state(pid), Some(dpm_simos::RunState::Stopped));
        assert!(rpc_call(p, "red", &Request::Start { pid })?
            .status()
            .is_ok());
        assert!(rpc_call(p, "red", &Request::Kill { pid })?.status().is_ok());
        red2.wait_exit(pid);
        Ok(())
    });
    c.shutdown();
}

#[test]
fn write_and_get_file_round_trip() {
    let c = cluster();
    let _ = with_controller(&c, |p, _notes| {
        let rep = rpc_call(
            p,
            "red",
            &Request::WriteFile {
                path: "/tmp/hello".into(),
                data: b"payload".to_vec(),
            },
        )?;
        assert!(rep.status().is_ok());
        let rep = rpc_call(
            p,
            "red",
            &Request::GetFile {
                path: "/tmp/hello".into(),
            },
        )?;
        match rep {
            Reply::File {
                status: RpcStatus::Ok,
                data,
            } => assert_eq!(data, b"payload"),
            other => panic!("get file failed: {other:?}"),
        }
        let rep = rpc_call(
            p,
            "red",
            &Request::GetFile {
                path: "/nope".into(),
            },
        )?;
        assert_eq!(rep.status(), RpcStatus::NoEnt);
        Ok(())
    });
    c.shutdown();
}

#[test]
fn send_input_reaches_redirected_stdin() {
    let c = cluster();
    let echoed: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    let sink = echoed.clone();
    let seen = echoed.clone();
    c.register_program("reader", move |p, _| {
        let line = p.read_line(0)?;
        *sink.lock() = line.unwrap_or_default();
        Ok(())
    });
    c.install_program_file("red", "/bin/reader", "reader");

    let _ = with_controller(&c, move |p, _notes| {
        start_filter(p)?;
        let Reply::Create {
            pid,
            status: RpcStatus::Ok,
        } = rpc_call(
            p,
            "red",
            &create_req("/bin/reader", vec![], MeterFlags::NONE, true),
        )?
        else {
            panic!("create failed")
        };
        assert!(rpc_call(p, "red", &Request::Start { pid })?
            .status()
            .is_ok());
        let rep = rpc_call(
            p,
            "red",
            &Request::SendInput {
                pid,
                data: b"typed line\n".to_vec(),
            },
        )?;
        assert!(rep.status().is_ok());
        wait_until(|| !seen.lock().is_empty());
        Ok(())
    });
    assert_eq!(*echoed.lock(), "typed line");
    c.shutdown();
}

#[test]
fn retried_tagged_requests_are_applied_once() {
    let c = cluster();
    let _ = with_controller(&c, |p, _notes| {
        // A CreateFilter is the canonical non-idempotent request: run
        // twice it would spawn two filters (and the second would fail
        // to bind the port). Wrapped in the same request id, the
        // second call must replay the first reply verbatim.
        let req = Request::Tagged {
            req_id: 0xFEED_0001,
            inner: Box::new(Request::CreateFilter {
                spec: dpm_meterd::FilterSpec::builder("/bin/filter", 4000)
                    .logfile("/usr/tmp/log.f1")
                    .build()
                    .expect("valid spec"),
            }),
        };
        let first = rpc_call(p, "blue", &req)?;
        let Reply::Create {
            status: RpcStatus::Ok,
            ..
        } = first
        else {
            panic!("filter create failed: {first:?}");
        };
        let second = rpc_call(p, "blue", &req)?;
        assert_eq!(
            second, first,
            "duplicate id replays the cached reply instead of re-executing"
        );
        // A fresh id really executes — and fails, because the port is
        // now taken by the filter the first call spawned.
        let fresh = Request::Tagged {
            req_id: 0xFEED_0002,
            inner: match req {
                Request::Tagged { inner, .. } => inner,
                _ => unreachable!(),
            },
        };
        let third = rpc_call(p, "blue", &fresh)?;
        assert_ne!(third, first, "a new id is a new execution");
        Ok(())
    });
    c.shutdown();
}

#[test]
fn query_proc_reports_lifecycle_states() {
    let c = cluster();
    c.register_program("spinner", |p, _| loop {
        p.compute_ms(1)?;
    });
    c.install_program_file("red", "/bin/spinner", "spinner");
    let red = c.machine("red").unwrap();
    let red2 = red.clone();
    let _ = with_controller(&c, move |p, _notes| {
        start_filter(p)?;
        let Reply::Create {
            pid,
            status: RpcStatus::Ok,
        } = rpc_call(
            p,
            "red",
            &create_req("/bin/spinner", vec![], MeterFlags::NONE, false),
        )?
        else {
            panic!("create failed")
        };
        // Suspended-before-start and running both report "running".
        let rep = rpc_call(p, "red", &Request::QueryProc { pid })?;
        assert!(
            matches!(
                rep,
                Reply::ProcStatus {
                    status: RpcStatus::Ok,
                    state: 3
                }
            ),
            "{rep:?}"
        );
        assert!(rpc_call(p, "red", &Request::Start { pid })?
            .status()
            .is_ok());
        while red2.proc_cpu_us(pid).unwrap_or(0) == 0 {
            std::thread::yield_now();
        }
        assert!(rpc_call(p, "red", &Request::Stop { pid })?.status().is_ok());
        wait_until(|| red2.proc_state(pid) == Some(dpm_simos::RunState::Stopped));
        let rep = rpc_call(p, "red", &Request::QueryProc { pid })?;
        assert!(
            matches!(
                rep,
                Reply::ProcStatus {
                    status: RpcStatus::Ok,
                    state: 2
                }
            ),
            "stopped: {rep:?}"
        );
        let rep = rpc_call(p, "red", &Request::QueryProc { pid: Pid(424242) })?;
        assert!(
            matches!(
                rep,
                Reply::ProcStatus {
                    status: RpcStatus::Srch,
                    ..
                }
            ),
            "{rep:?}"
        );
        assert!(rpc_call(p, "red", &Request::Kill { pid })?.status().is_ok());
        red2.wait_exit(pid);
        Ok(())
    });
    c.shutdown();
}

#[test]
fn list_files_enumerates_by_prefix() {
    let c = cluster();
    let _ = with_controller(&c, |p, _notes| {
        for name in [
            "/usr/tmp/log-segments/s0-0.seg",
            "/usr/tmp/log-segments/s0-1.seg",
        ] {
            assert!(rpc_call(
                p,
                "red",
                &Request::WriteFile {
                    path: name.into(),
                    data: b"x".to_vec(),
                },
            )?
            .status()
            .is_ok());
        }
        let rep = rpc_call(
            p,
            "red",
            &Request::ListFiles {
                prefix: "/usr/tmp/log-segments/".into(),
            },
        )?;
        match rep {
            Reply::FileList {
                status: RpcStatus::Ok,
                names,
            } => assert_eq!(
                names,
                vec![
                    "/usr/tmp/log-segments/s0-0.seg".to_owned(),
                    "/usr/tmp/log-segments/s0-1.seg".to_owned(),
                ]
            ),
            other => panic!("list failed: {other:?}"),
        }
        let rep = rpc_call(
            p,
            "red",
            &Request::ListFiles {
                prefix: "/nowhere/".into(),
            },
        )?;
        assert_eq!(
            rep,
            Reply::FileList {
                status: RpcStatus::Ok,
                names: vec![]
            }
        );
        Ok(())
    });
    c.shutdown();
}

#[test]
fn rpc_call_retry_succeeds_and_reports_unavailable() {
    // A cluster with NO daemons: the hardened call must come back with
    // Unavailable in-band instead of erroring or spinning forever.
    let c = Cluster::builder()
        .net(NetConfig::ideal())
        .seed(12)
        .machine("yellow")
        .machine("red")
        .build();
    let yellow = c.machine("yellow").unwrap();
    let pid = yellow.spawn_fn("controller", Uid(7), None, true, |p| {
        let rep = rpc_call_retry(
            &p,
            "red",
            &Request::GetFile {
                path: "/etc/meterd".into(),
            },
            RPC_TIMEOUT_MS,
            Backoff::new(3, 2, 8),
        )?;
        assert_eq!(rep.status(), RpcStatus::Unavailable, "{rep:?}");
        Ok(())
    });
    yellow.wait_exit(pid);
    c.shutdown();

    // And against a live daemon it behaves exactly like rpc_call.
    let c = cluster();
    let _ = with_controller(&c, |p, _notes| {
        let rep = rpc_call_retry(
            p,
            "red",
            &Request::WriteFile {
                path: "/tmp/via-retry".into(),
                data: b"ok".to_vec(),
            },
            RPC_TIMEOUT_MS,
            Backoff::standard(),
        )?;
        assert!(rep.status().is_ok(), "{rep:?}");
        let rep = rpc_call(
            p,
            "red",
            &Request::GetFile {
                path: "/tmp/via-retry".into(),
            },
        )?;
        match rep {
            Reply::File {
                status: RpcStatus::Ok,
                data,
            } => assert_eq!(data, b"ok"),
            other => panic!("{other:?}"),
        }
        Ok(())
    });
    c.shutdown();
}

#[test]
fn one_way_notify_does_not_expect_reply() {
    let c = cluster();
    let _ = with_controller(&c, |p, _notes| {
        // Misusing notify against a daemon: the daemon just ignores
        // the one-way message and closes.
        notify(
            p,
            "red",
            dpm_meterd::METERD_PORT,
            &Request::StateChange {
                pid: Pid(1),
                state: 0,
            },
        )?;
        Ok(())
    });
    c.shutdown();
}
