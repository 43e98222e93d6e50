//! Edge cases of the kernel metering machinery: the `setmeter(2)`
//! manual page's fine print, buffer-threshold boundaries, lost
//! messages, inheritance depth, and accounting granularity.

use dpm_meter::{trace_type, MeterFlags, MeterMsg, TermReason};
use dpm_simnet::NetConfig;
use dpm_simos::{
    connect_backoff, Backoff, BindTo, Cluster, Domain, FlagSel, Pid, PidSel, Proc, Sig, SockSel,
    SockType, SysResult, Uid,
};
use parking_lot::Mutex;
use std::sync::Arc;

const U: Uid = Uid(100);

fn cluster(buffer: u32) -> Arc<Cluster> {
    Cluster::builder()
        .net(NetConfig::ideal())
        .seed(2)
        .meter_buffer(buffer)
        .machine("work")
        .machine("mon")
        .build()
}

fn collector(c: &Arc<Cluster>, port: u16) -> (Pid, Arc<Mutex<Vec<u8>>>) {
    let buf = Arc::new(Mutex::new(Vec::new()));
    let out = buf.clone();
    let pid = c
        .spawn_user("mon", "collector", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(port))?;
            p.listen(s, 8)?;
            let (conn, _) = p.accept(s)?;
            loop {
                let d = p.read(conn, 8192)?;
                if d.is_empty() {
                    break;
                }
                out.lock().extend_from_slice(&d);
            }
            Ok(())
        })
        .unwrap();
    (pid, buf)
}

fn meter(p: &Proc, target: Pid, flags: MeterFlags, port: u16) -> SysResult<()> {
    // The collector may not be listening yet: retry refused connects,
    // or the suspended target would never be started.
    let s = connect_backoff(p, "mon", port, Backoff::standard())?;
    p.setmeter(PidSel::Pid(target), FlagSel::Set(flags), SockSel::Fd(s))?;
    p.close(s)
}

/// "The socket must be connected to be used, though this is not
/// checked. Meter messages are lost if they are sent on an unconnected
/// socket." (App. C)
#[test]
fn unconnected_meter_socket_loses_messages_silently() {
    let c = cluster(2);
    let work = c.machine("work").unwrap();
    let worker = work.spawn_fn("worker", U, None, false, |p| {
        for _ in 0..10 {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            p.close(s)?;
        }
        Ok(())
    });
    let setup = work.spawn_fn("setup", U, None, true, move |p| {
        // A never-connected Internet stream socket is *accepted*.
        let s = p.socket(Domain::Inet, SockType::Stream)?;
        p.setmeter(
            PidSel::Pid(worker),
            FlagSel::Set(MeterFlags::ALL),
            SockSel::Fd(s),
        )?;
        p.close(s)?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    assert_eq!(work.wait_exit(setup), Some(TermReason::Normal));
    assert_eq!(work.wait_exit(worker), Some(TermReason::Normal));
    // Nothing crossed the wire and nothing crashed.
    assert_eq!(c.wire_stats().snapshot().meter_frames, 0);
    c.shutdown();
}

/// Buffer-threshold boundary: with threshold N, exactly N events make
/// exactly one frame; N+1 events make one frame plus the termination
/// flush.
#[test]
fn flush_happens_exactly_at_the_threshold() {
    for (events, expect_frames) in [(3u32, 1u64), (4, 2)] {
        let c = cluster(3);
        let work = c.machine("work").unwrap();
        let mon = c.machine("mon").unwrap();
        let (cpid, buf) = collector(&c, 4000);
        // `events` socket-create events and nothing else (termproc is
        // unflagged so the tail only flushes, adding no event).
        let worker = work.spawn_fn("worker", U, None, false, move |p| {
            for _ in 0..events {
                let s = p.socket(Domain::Inet, SockType::Datagram)?;
                // close is unflagged below
                let _ = s;
            }
            Ok(())
        });
        let setup = work.spawn_fn("setup", U, None, true, move |p| {
            meter(&p, worker, MeterFlags::SOCKET, 4000)?;
            p.kill(worker, Sig::Cont)?;
            Ok(())
        });
        work.wait_exit(setup);
        work.wait_exit(worker);
        mon.wait_exit(cpid);
        let msgs = MeterMsg::decode_all(&buf.lock()).unwrap();
        assert_eq!(msgs.len() as u32, events);
        assert_eq!(
            c.wire_stats().snapshot().meter_frames,
            expect_frames,
            "{events} events, threshold 3"
        );
        c.shutdown();
    }
}

/// Metering survives two generations of fork.
#[test]
fn grandchildren_inherit_metering() {
    let c = cluster(1);
    let work = c.machine("work").unwrap();
    let mon = c.machine("mon").unwrap();
    let (cpid, buf) = collector(&c, 4000);
    let worker = work.spawn_fn("gen0", U, None, false, |p| {
        p.fork_with(|child| {
            child.fork_with(|grandchild| {
                let s = grandchild.socket(Domain::Inet, SockType::Datagram)?;
                let _ = s;
                Ok(())
            })?;
            let _ = child.wait_child()?;
            Ok(())
        })?;
        let _ = p.wait_child()?;
        Ok(())
    });
    let setup = work.spawn_fn("setup", U, None, true, move |p| {
        meter(
            &p,
            worker,
            MeterFlags::FORK | MeterFlags::SOCKET | MeterFlags::TERMPROC,
            4000,
        )?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    work.wait_exit(setup);
    work.wait_exit(worker);
    mon.wait_exit(cpid);
    let msgs = MeterMsg::decode_all(&buf.lock()).unwrap();
    c.shutdown();
    let forks = msgs
        .iter()
        .filter(|m| m.header.trace_type == trace_type::FORK)
        .count();
    let sockets = msgs
        .iter()
        .filter(|m| m.header.trace_type == trace_type::SOCKET)
        .count();
    let terms = msgs
        .iter()
        .filter(|m| m.header.trace_type == trace_type::TERMPROC)
        .count();
    assert_eq!(forks, 2, "two fork events");
    assert_eq!(sockets, 1, "grandchild's socket event was metered");
    assert_eq!(terms, 3, "all three generations' terminations");
}

/// `procTime` is reported in 10 ms increments (§4.1), and `cpuTime`
/// stamps are non-decreasing per process.
#[test]
fn records_respect_accounting_granularity() {
    let c = cluster(4);
    let work = c.machine("work").unwrap();
    let mon = c.machine("mon").unwrap();
    let (cpid, buf) = collector(&c, 4000);
    let worker = work.spawn_fn("worker", U, None, false, |p| {
        for i in 0..10 {
            p.compute_ms(3 + i)?;
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let _ = s;
        }
        Ok(())
    });
    let setup = work.spawn_fn("setup", U, None, true, move |p| {
        meter(&p, worker, MeterFlags::SOCKET | MeterFlags::TERMPROC, 4000)?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    work.wait_exit(setup);
    work.wait_exit(worker);
    mon.wait_exit(cpid);
    let msgs = MeterMsg::decode_all(&buf.lock()).unwrap();
    c.shutdown();
    assert!(!msgs.is_empty());
    let mut last_cpu = 0;
    let mut last_proc = 0;
    for m in &msgs {
        assert_eq!(m.header.proc_time % 10, 0, "10 ms granularity");
        assert!(m.header.cpu_time >= last_cpu, "local stamps monotone");
        assert!(m.header.proc_time >= last_proc, "cpu accounting monotone");
        last_cpu = m.header.cpu_time;
        last_proc = m.header.proc_time;
    }
    // The worker burned 3+4+…+12 = 75 ms; the final record's procTime
    // must reflect it (quantized down).
    assert!(msgs.last().unwrap().header.proc_time >= 70);
}

/// Closing the filter's end of the meter connection makes subsequent
/// flushes vanish without disturbing the metered process.
#[test]
fn filter_death_does_not_disturb_the_metered_process() {
    let c = cluster(1);
    let work = c.machine("work").unwrap();
    let mon = c.machine("mon").unwrap();
    // A collector that reads one frame and hangs up.
    let quit = Arc::new(Mutex::new(0usize));
    let q = quit.clone();
    let cpid = c
        .spawn_user("mon", "rude-collector", U, move |p| {
            let s = p.socket(Domain::Inet, SockType::Stream)?;
            p.bind(s, BindTo::Port(4000))?;
            p.listen(s, 8)?;
            let (conn, _) = p.accept(s)?;
            let d = p.read(conn, 8192)?;
            *q.lock() = d.len();
            p.close(conn)?; // hang up mid-session
            Ok(())
        })
        .unwrap();
    let worker = work.spawn_fn("worker", U, None, false, |p| {
        for _ in 0..50 {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let _ = s;
            p.compute_ms(1)?;
        }
        Ok(())
    });
    let setup = work.spawn_fn("setup", U, None, true, move |p| {
        meter(&p, worker, MeterFlags::ALL | MeterFlags::IMMEDIATE, 4000)?;
        p.kill(worker, Sig::Cont)?;
        Ok(())
    });
    work.wait_exit(setup);
    assert_eq!(
        work.wait_exit(worker),
        Some(TermReason::Normal),
        "worker unaffected by the filter hanging up"
    );
    mon.wait_exit(cpid);
    assert!(
        *quit.lock() > 0,
        "at least one frame arrived before the hangup"
    );
    c.shutdown();
}

/// `getmeter` honors the same ownership rule as `setmeter`.
#[test]
fn getmeter_permissions() {
    let c = cluster(8);
    let work = c.machine("work").unwrap();
    let victim = work.spawn_fn("victim", Uid(200), None, false, |p| {
        p.compute_ms(1)?;
        Ok(())
    });
    let other = work.spawn_fn("other", Uid(100), None, true, move |p| {
        assert_eq!(
            p.getmeter(PidSel::Pid(victim)),
            Err(dpm_simos::SysError::Eperm)
        );
        assert_eq!(p.getmeter(PidSel::Current), Ok(MeterFlags::NONE));
        Ok(())
    });
    work.wait_exit(other);
    work.signal(None, victim, Sig::Kill).unwrap();
    work.wait_exit(victim);
    c.shutdown();
}

/// Changing the meter connection mid-run: records before the switch go
/// to the first filter, records after go to the second, and nothing is
/// lost at the boundary (the switch-time flush).
#[test]
fn switching_meter_sockets_loses_nothing() {
    let c = cluster(4);
    let work = c.machine("work").unwrap();
    let mon = c.machine("mon").unwrap();
    let (c1, buf1) = collector(&c, 4001);
    let (c2, buf2) = collector(&c, 4002);
    let gate = Arc::new(Mutex::new(false));
    let g = gate.clone();
    let worker = work.spawn_fn("worker", U, None, false, move |p| {
        for _ in 0..5 {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let _ = s;
        }
        // Wait for the switch.
        while !*g.lock() {
            p.sleep_ms(1)?;
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        for _ in 0..7 {
            let s = p.socket(Domain::Inet, SockType::Datagram)?;
            let _ = s;
        }
        Ok(())
    });
    let gate2 = gate.clone();
    let setup = work.spawn_fn("setup", Uid::ROOT, None, true, move |p| {
        meter(&p, worker, MeterFlags::SOCKET, 4001)?;
        p.kill(worker, Sig::Cont)?;
        // Let the first phase run.
        while work_events(&p, worker) < 5 {
            p.sleep_ms(1)?;
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        meter(&p, worker, MeterFlags::SOCKET, 4002)?;
        *gate2.lock() = true;
        Ok(())
    });
    fn work_events(p: &Proc, pid: Pid) -> u32 {
        // Syscall count proxy: CPU charged grows with each event.
        p.machine().proc_cpu_us(pid).unwrap_or(0) as u32 / 150
    }
    work.wait_exit(setup);
    work.wait_exit(worker);
    mon.wait_exit(c1);
    mon.wait_exit(c2);
    let m1 = MeterMsg::decode_all(&buf1.lock()).unwrap();
    let m2 = MeterMsg::decode_all(&buf2.lock()).unwrap();
    c.shutdown();
    let socks1 = m1
        .iter()
        .filter(|m| m.header.trace_type == trace_type::SOCKET)
        .count();
    let socks2 = m2
        .iter()
        .filter(|m| m.header.trace_type == trace_type::SOCKET)
        .count();
    assert_eq!(
        socks1 + socks2,
        12,
        "all 12 socket events captured: {socks1}+{socks2}"
    );
    assert!(socks1 >= 5, "first filter got the first phase");
    assert!(socks2 >= 1, "second filter got the tail");
}
