//! Per-call timings of the public functions each layer is built from.
//!
//! The simulator-side set follows `crates/bench/benches/micro.rs` (ISA
//! decode, L1 hit, streaming load, DLT observe, trace formation and
//! optimization) and adds one streaming `Hierarchy::load` per hardware
//! arm; the serving-side set times the calls a `/run` request makes
//! (body parse, LRU, disarmed fault check, flight-recorder span, result
//! codec, store put and get).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdo_core::{Dlt, DltConfig};
use tdo_isa::{decode, encode, AluOp, Cond, Inst, Reg};
use tdo_mem::{Cache, CacheConfig, Hierarchy, MemConfig};
use tdo_obs::span::{self, FlightKind};
use tdo_obs::TraceCtx;
use tdo_server::lru::Lru;
use tdo_sim::{decode_result, encode_result, PrefetchSetup, SimConfig, SimResult};
use tdo_store::ShardedStore;
use tdo_trident::{form_trace, opt, TraceId};
use tdo_workloads::{build, Scale};

use crate::report::Outcome;
use crate::stats::median;

/// Sampling plan: `samples` windows of at least `window` each.
#[derive(Clone, Copy)]
struct Plan {
    samples: usize,
    window: Duration,
}

impl Plan {
    fn new(quick: bool) -> Plan {
        if quick {
            Plan { samples: 3, window: Duration::from_millis(2) }
        } else {
            Plan { samples: 5, window: Duration::from_millis(20) }
        }
    }

    /// Median ns per operation of `f`, one call of which performs `ops`
    /// operations.
    fn ns_per_op(self, ops: u64, mut f: impl FnMut()) -> f64 {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            if t0.elapsed() >= self.window || iters >= 1 << 30 {
                break;
            }
            iters *= 2;
        }
        let per_op: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_secs_f64() * 1e9 / (iters * ops) as f64
            })
            .collect();
        median(&per_op).expect("samples taken")
    }
}

/// Streaming loads through a hierarchy built from `cfg`: one call issues
/// 1024 loads to fresh, consecutive words, continuing where the previous
/// call stopped.
fn load_stream_ns(plan: Plan, cfg: MemConfig) -> f64 {
    let mut h = Hierarchy::new(cfg);
    let (mut now, mut addr) = (0u64, 0x10_0000u64);
    plan.ns_per_op(1024, || {
        for _ in 0..1024 {
            let r = h.load(now, 0x400, addr);
            now += r.latency / 4;
            addr += 8;
        }
        black_box(h.stats.loads());
    })
}

fn sim_side(plan: Plan, out: &mut Outcome) {
    let insts = [
        Inst::Op { op: AluOp::Add, ra: Reg::int(1), rb: Reg::int(2), rc: Reg::int(3) },
        Inst::Load { ra: Reg::int(4), rb: Reg::int(5), off: 128, kind: tdo_isa::LoadKind::Int },
        Inst::Prefetch { base: Reg::int(6), off: 8, stride: 64, dist: 17 },
        Inst::Bcond { cond: Cond::Ne, ra: Reg::int(7), disp: -12 },
    ];
    let words: Vec<u64> = insts.iter().map(|i| encode(i).expect("encodable")).collect();
    let decode_ns = plan.ns_per_op(words.len() as u64, || {
        for w in &words {
            black_box(decode(black_box(*w)).expect("decodable"));
        }
    });
    out.push("isa.decode_ns", decode_ns, "ns");

    let mut cache =
        Cache::new(CacheConfig { size_bytes: 64 << 10, assoc: 2, line_bytes: 64, latency: 3 });
    for i in 0..1024u64 {
        cache.insert(i * 64, false);
    }
    let hit_ns = plan.ns_per_op(1024, || {
        for i in 0..1024u64 {
            black_box(cache.lookup(black_box(i * 64)));
        }
    });
    out.push("mem.l1_hit_ns", hit_ns, "ns");
    out.push("mem.load_stream_ns", load_stream_ns(plan, PrefetchSetup::NoPrefetch.mem()), "ns");
    for (name, setup) in [
        ("arms.load_stream_ns", PrefetchSetup::Hw8x8),
        ("arms.load_nl_ns", PrefetchSetup::HwNextLine),
        ("arms.load_adanl_ns", PrefetchSetup::HwAdaptiveNextLine),
        ("arms.load_delta_ns", PrefetchSetup::HwDelta),
    ] {
        out.push(name, load_stream_ns(plan, setup.mem()), "ns");
    }

    let mut dlt = Dlt::new(DltConfig::paper_baseline());
    let dlt_ns = plan.ns_per_op(4096, || {
        for i in 0..4096u64 {
            black_box(dlt.observe(0x1000 + (i % 64) * 8, i * 64, i % 8 == 0, 350));
        }
    });
    out.push("core.dlt_observe_ns", dlt_ns, "ns");

    // A 32-instruction loop body to form and optimize.
    let mut a = tdo_isa::Asm::new(0x1000);
    a.label("head");
    for i in 0..28u8 {
        a.op_imm(AluOp::Add, Reg::int(1 + i % 8), 1, Reg::int(1 + i % 8));
    }
    a.ldq(Reg::int(9), Reg::int(10), 0);
    a.lda(Reg::int(10), Reg::int(10), 8);
    a.op_imm(AluOp::Sub, Reg::int(11), 1, Reg::int(11));
    a.bcond_to(Cond::Ne, Reg::int(11), "head");
    let words = a.assemble().expect("loop assembles");
    let map: std::collections::HashMap<u64, Inst> = words
        .iter()
        .enumerate()
        .map(|(i, w)| (0x1000 + i as u64 * 8, decode(*w).expect("decodable")))
        .collect();
    let src = move |pc: u64| map.get(&pc).copied();
    let form_ns = plan.ns_per_op(1, || {
        black_box(form_trace(&src, TraceId(0), 0x1000, 0b1, 1).expect("trace forms"));
    });
    out.push("trident.form_trace_us", form_ns / 1e3, "us");
    let (trace, _) = form_trace(&src, TraceId(0), 0x1000, 0b1, 1).expect("trace forms");
    let opt_ns = plan.ns_per_op(1, || {
        let mut insts = trace.insts.clone();
        opt::optimize(&mut insts);
        black_box(&insts);
    });
    out.push("trident.optimize_trace_us", opt_ns / 1e3, "us");
}

/// A small result to push through the codec and the store.
fn sample_result() -> SimResult {
    let w = build("mcf", Scale::Test).expect("mcf builds");
    let mut cfg = SimConfig::test(PrefetchSetup::SwSelfRepair);
    cfg.measure_insts = 20_000;
    tdo_sim::run(&w, &cfg)
}

/// Records written to and read back from the temporary store.
const STORE_RECORDS: u64 = 64;

fn serve_side(plan: Plan, out: &mut Outcome, tmp: &Path) {
    let body = "{\"workload\":\"mcf\",\"arm\":\"sr\",\"scale\":\"test\",\"insts\":2000}";
    let parse_ns = plan.ns_per_op(1, || {
        black_box(tdo_server::json::parse_run_body(black_box(body)).expect("valid body"));
    });
    out.push("server.parse_run_body_ns", parse_ns, "ns");

    let result = Arc::new(sample_result());
    let key = |i: u64| format!("cell/mcf/sr/test/{i:08}");
    let mut lru: Lru<String, Arc<SimResult>> = Lru::new(256);
    for i in 0..256 {
        lru.put(key(i), Arc::clone(&result));
    }
    let keys: Vec<String> = (0..256).map(key).collect();
    let get_ns = plan.ns_per_op(keys.len() as u64, || {
        for k in &keys {
            black_box(lru.get(k));
        }
    });
    out.push("server.lru_get_ns", get_ns, "ns");
    // Puts of fresh keys into the full cache, each evicting the oldest.
    let fresh: Vec<String> = (1_000..1_256).map(key).collect();
    let put_ns = plan.ns_per_op(fresh.len() as u64, || {
        for k in &fresh {
            black_box(lru.put(k.clone(), Arc::clone(&result)));
        }
    });
    out.push("server.lru_put_ns", put_ns, "ns");

    let fire_ns = plan.ns_per_op(1024, || {
        for _ in 0..1024 {
            black_box(tdo_fault::fire(tdo_fault::Site::ServerReadFail));
        }
    });
    out.push("fault.fire_disarmed_ns", fire_ns, "ns");

    let _ctx = span::resume(TraceCtx::fresh(0x5eed));
    let span_ns = plan.ns_per_op(1, || {
        span::begin(FlightKind::Mark, 0).end(0);
    });
    out.push("obs.span_ns", span_ns, "ns");

    let words = encode_result(&result);
    let encode_ns = plan.ns_per_op(1, || {
        black_box(encode_result(black_box(&result)));
    });
    out.push("sim.encode_result_ns", encode_ns, "ns");
    let decode_ns = plan.ns_per_op(1, || {
        black_box(decode_result(black_box(&words)).expect("round-trips"));
    });
    out.push("sim.decode_result_ns", decode_ns, "ns");

    // Store calls on a temporary 4-shard store: one fsync'd put and one
    // get per record.
    let dir = tmp.join(format!("micro-store-{}", std::process::id()));
    let store = ShardedStore::open(&dir, 4).expect("temporary store opens");
    let version = tdo_sim::SCHEMA_VERSION;
    let t0 = Instant::now();
    for k in 0..STORE_RECORDS {
        store.put(k, version, &words).expect("store put");
    }
    let put_us = t0.elapsed().as_secs_f64() * 1e6 / STORE_RECORDS as f64;
    let t0 = Instant::now();
    for k in 0..STORE_RECORDS {
        black_box(store.get(k, version).expect("record reads back"));
    }
    let get_us = t0.elapsed().as_secs_f64() * 1e6 / STORE_RECORDS as f64;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    out.push("store.put_call_us", put_us, "us");
    out.push("store.get_call_us", get_us, "us");
}

/// Reports every per-call timing.
pub fn report(out: &mut Outcome, quick: bool, tmp: &Path) {
    let plan = Plan::new(quick);
    sim_side(plan, out);
    serve_side(plan, out, tmp);
}
