//! Chrome-trace (`chrome://tracing` / Perfetto) export of a run.
//!
//! Writes the resolved virtual-time schedule and the runtime's telemetry
//! stream as one Trace Event Format JSON object — one duration event per
//! operation, one row per simulated host thread — so a run can be
//! inspected visually the way rocprof timelines are. The writer is
//! hand-rolled (no serde) and escapes through the telemetry sinks' one
//! [`json_escape`].

use hsa_rocr::HsaApiKind;
use omp_offload::telemetry::{json_escape, resolve, TelemetryReport};
use sim_des::{Schedule, Tag};
use std::fmt::Write as _;

fn event_name(tag: Tag) -> String {
    match HsaApiKind::from_tag(tag) {
        Some(kind) => kind.symbol().to_string(),
        None if tag == Tag::UNTAGGED => "host".to_string(),
        None => format!("tag{}", tag.0),
    }
}

/// Append one schedule record as a Trace Event object under `pid`: the
/// one schedule-row writer. Timestamps are microseconds of virtual time
/// and `tid` is the simulated host-thread index; zero-length operations
/// are skipped (the viewer cannot display them).
fn push_schedule_event(out: &mut String, r: &sim_des::OpRecord, pid: u32, first: &mut bool) {
    let dur_us = r.latency().as_nanos() as f64 / 1000.0;
    if dur_us <= 0.0 {
        return;
    }
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let ts_us = r.start.as_nanos() as f64 / 1000.0;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
        json_escape(&event_name(r.tag)),
        pid,
        r.thread,
        ts_us,
        dur_us
    );
}

/// Render the schedule and the telemetry stream as one merged Chrome/Perfetto
/// trace on a single virtual clock: the HSA schedule's per-thread op rows
/// under process 1, the runtime's attributed spans (maps, copies, prefaults,
/// kernels, recovery episodes) under process 2. Telemetry anchors are
/// resolved against the same schedule that produced the HSA rows
/// ([`omp_offload::telemetry::resolve`]), so a runtime span visually covers
/// exactly the HSA operations it charged for.
///
/// The output is the Trace Event Format *object* form; `otherData` is the
/// sink header and always carries `dropped_events` — a nonzero value means
/// the ring overflowed and the span set is a suffix of the run.
pub fn merged_chrome_trace(schedule: &Schedule, telemetry: &TelemetryReport) -> String {
    let mut out = String::from("{\n\"traceEvents\":[\n");
    let mut first = true;
    for name in ["HSA schedule", "runtime telemetry"] {
        let pid = if name.starts_with("HSA") { 1 } else { 2 };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}",
        );
    }
    for r in schedule.records() {
        push_schedule_event(&mut out, r, 1, &mut first);
    }
    for t in resolve(telemetry, schedule) {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let name = json_escape(t.event.kind.name());
        let ts_us = t.start.as_nanos() as f64 / 1000.0;
        let dur_us = (t.end - t.start).as_nanos() as f64 / 1000.0;
        if dur_us > 0.0 {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":2,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{",
                name, t.event.thread, ts_us, dur_us
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":2,\"tid\":{},\"ts\":{:.3},\"s\":\"t\",\"args\":{{",
                name, t.event.thread, ts_us
            );
        }
        let mut sep = "";
        for (key, val) in t.event.kind.fields() {
            let _ = write!(out, "{sep}\"{key}\":");
            val.write_json(&mut out);
            sep = ",";
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "\n],\n\"otherData\":{{\"telemetry_events\":{},\"dropped_events\":{},\"capacity\":{}}}\n}}\n",
        telemetry.events.len(),
        telemetry.dropped_events,
        telemetry.capacity
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_des::{schedule, Machine, Op, OpStreams, RunOptions, VirtDuration};

    fn sample_schedule() -> Schedule {
        let mut m = Machine::new();
        let r = m.add_resource("gpu", 1);
        let mut s = OpStreams::new(2);
        s.push(
            0,
            Op::service(
                HsaApiKind::KernelDispatch.tag(),
                r,
                VirtDuration::from_micros(5),
            ),
        );
        s.push(1, Op::local(Tag::UNTAGGED, VirtDuration::from_micros(3)));
        s.push(0, Op::local(Tag::UNTAGGED, VirtDuration::ZERO)); // skipped
        schedule(m, s, &RunOptions::noiseless())
    }

    fn empty_schedule() -> Schedule {
        schedule(Machine::new(), OpStreams::new(1), &RunOptions::noiseless())
    }

    fn empty_report(capacity: usize) -> TelemetryReport {
        TelemetryReport {
            events: Vec::new(),
            dropped_events: 0,
            capacity,
        }
    }

    #[test]
    fn trace_is_valid_shape_and_skips_zero_length() {
        let json = merged_chrome_trace(&sample_schedule(), &empty_report(16));
        assert!(json.starts_with("{\n\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with('}'));
        // Two nonzero schedule rows; the zero-length op is skipped.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("hsa_queue_dispatch"));
        assert!(json.contains("\"name\":\"host\""));
        assert!(json.contains("\"pid\":1,\"tid\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
    }

    #[test]
    fn chrome_trace_of_empty_schedule_is_a_valid_empty_array() {
        // An empty schedule writes a `traceEvents` array holding only the
        // two process_name metadata records, byte for byte.
        let json = merged_chrome_trace(&empty_schedule(), &empty_report(16));
        assert_eq!(
            json,
            "{\n\"traceEvents\":[\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"HSA schedule\"}},\n\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"runtime telemetry\"}}\n\
             ],\n\"otherData\":{\"telemetry_events\":0,\"dropped_events\":0,\"capacity\":16}\n}\n"
        );
    }

    #[test]
    fn merged_trace_on_empty_schedule_and_stream_is_header_only() {
        let json = merged_chrome_trace(&empty_schedule(), &empty_report(16));
        assert!(json.contains("\"traceEvents\""));
        // Only the two process_name metadata records, no spans.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert!(!json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dropped_events\":0"));
        assert!(json.contains("\"capacity\":16"));
    }

    #[test]
    fn merged_trace_covers_a_zero_kernel_run() {
        use apu_mem::{AddrRange, CostModel};
        use hsa_rocr::Topology;
        use omp_offload::{MapEntry, OmpRuntime, RuntimeConfig, TelemetryMode};

        // Map traffic but no kernel launches: the merged trace must still
        // carry the runtime rows and never emit a kernel event.
        let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap();
        let a = rt.host_alloc(0, 1 << 16).unwrap();
        let e = MapEntry::tofrom(AddrRange::new(a, 1 << 16));
        rt.target_enter_data(0, &[e]).unwrap();
        rt.target_exit_data(0, &[e], false).unwrap();
        let report = rt.finish();
        let telemetry = report.telemetry.as_ref().unwrap();
        let json = merged_chrome_trace(&report.schedule, telemetry);
        assert!(json.contains("\"name\":\"map_begin\""));
        assert!(json.contains("\"name\":\"copy\""));
        assert!(json.contains("\"pid\":2"));
        assert!(!json.contains("kernel_launch"));
        assert!(!json.contains("kernel_complete"));
        assert!(json.contains("\"dropped_events\":0"));
    }

    #[test]
    fn merged_trace_interleaves_schedule_and_telemetry_processes() {
        use apu_mem::{AddrRange, CostModel};
        use hsa_rocr::Topology;
        use omp_offload::{MapEntry, OmpRuntime, RuntimeConfig, TargetRegion, TelemetryMode};

        let mut rt = OmpRuntime::builder(CostModel::mi300a(), Topology::default())
            .config(RuntimeConfig::LegacyCopy)
            .telemetry(TelemetryMode::ring())
            .build()
            .unwrap();
        let a = rt.host_alloc(0, 1 << 16).unwrap();
        rt.target(
            0,
            TargetRegion::new("saxpy", VirtDuration::from_micros(50))
                .map(MapEntry::tofrom(AddrRange::new(a, 1 << 16))),
        )
        .unwrap();
        let report = rt.finish();
        let json = merged_chrome_trace(&report.schedule, report.telemetry.as_ref().unwrap());
        // Both processes present and named.
        assert!(json.contains("\"name\":\"HSA schedule\""));
        assert!(json.contains("\"name\":\"runtime telemetry\""));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("\"pid\":2"));
        // The kernel appears on both clocks: the HSA dispatch op and the
        // runtime's attributed completion span.
        assert!(json.contains("hsa_queue_dispatch"));
        assert!(json.contains("\"name\":\"kernel_complete\""));
        assert!(json.contains("\"name\":\"saxpy\""));
    }
}
