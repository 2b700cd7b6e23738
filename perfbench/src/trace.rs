//! Wall-clock spans recorded by the benchmark around each call into a
//! layer. Off by default: a disabled [`span`] costs one relaxed load. When
//! on, spans are kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are wall nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Request identifier shared by the spans of one query (query id), or
    /// 0 for spans that belong to no query.
    pub trace_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Tracer {
    on: AtomicBool,
    next_id: AtomicU64,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        on: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    tracer().on.store(on, Ordering::Relaxed);
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, u64, u64)>,
}

impl Guard {
    /// This span's id (0 when tracing is off), to parent child spans.
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, trace_id, start_ns)) = self.open.take() {
            let t = tracer();
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            if let Ok(mut spans) = t.spans.lock() {
                spans.push(Span {
                    id,
                    parent,
                    name,
                    trace_id,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
}

/// Open a span named `name` under `parent` (0 = root).
pub fn span(name: &'static str, trace_id: u64, parent: u64) -> Guard {
    let t = tracer();
    if !t.on.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = t.epoch.elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, parent, name, trace_id, start_ns)),
    }
}

/// Take every recorded span out of the tracer.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span buffer poisoned"))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may overlap
/// when they ran on parallel vthreads). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: (count, total ns, self ns), sorted by name.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += self_ns;
    }
    out
}

/// Durations (ns) of every span named `name` recorded so far.
pub fn durations(name: &str) -> Vec<f64> {
    tracer()
        .spans
        .lock()
        .expect("span buffer poisoned")
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
        .collect()
}

/// Write `spans` (with self times) as one JSON document.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut s = String::with_capacity(spans.len() * 96 + 64);
    s.push_str("{\"spans\":[\n");
    for (i, (sp, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"trace_id\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            sp.id, sp.parent, sp.name, sp.trace_id, sp.start_ns, sp.end_ns, self_ns
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            trace_id: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 40),
            sp(3, 1, 30, 60),  // overlaps 2: union 10..60
            sp(4, 1, 90, 120), // clipped to the parent: 90..100
            sp(5, 2, 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 5, 30, 30, 5]);
    }
}
