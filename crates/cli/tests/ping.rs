//! Regression: `tdo ping --count N --run …` against a shedding server.
//!
//! A 503 shed is not a round trip — it must be reported distinctly
//! (`shed=… of … posts`) and kept out of the RTT min/avg/max, which cover
//! only the OK responses. Before the fix, a shed either aborted the loop
//! or polluted the latency stats.

use std::net::SocketAddr;
use std::process::Command;

use tdo_fault::{arm, FaultPlan, Site};
use tdo_server::{Server, ServerConfig};

const TDO: &str = env!("CARGO_BIN_EXE_tdo");

#[test]
fn count_reports_sheds_separately_from_rtt() {
    // One deterministic shed: the queue-saturate site fires on its second
    // firing only, so posts 1 and 3 are served and post 2 sheds with 503.
    let _guard = arm(FaultPlan::new(7).with_at(Site::ServerQueueSaturate, 2));

    // `cache: 0` matters: a daemon that keeps finished results answers
    // repeat cells inline before admission, and the saturate site would
    // never see post 2.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 4,
        no_store: true,
        cache: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr: SocketAddr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let t = std::thread::spawn(move || server.run().expect("server run"));

    let out = Command::new(TDO)
        .args(["ping", &addr.to_string(), "--run", "mcf", "--insts", "2000", "--count", "3"])
        .output()
        .expect("spawn tdo ping");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert!(
        out.status.success(),
        "ping must succeed when any post got through\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("(2 ok of 3 posts)"),
        "RTT stats must cover exactly the OK posts\nstdout: {stdout}"
    );
    assert!(
        stdout.contains("shed=1 of 3 posts (HTTP 503)"),
        "the shed must be reported distinctly\nstdout: {stdout}"
    );
    assert!(
        stdout.contains("\"workload\":\"mcf\""),
        "the last OK result body is still printed\nstdout: {stdout}"
    );

    handle.shutdown();
    t.join().expect("clean shutdown");
}
