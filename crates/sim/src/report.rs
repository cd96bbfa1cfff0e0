//! Plain-text rendering of tables and figures.

use crate::experiment::{Fig10, Fig11, Fig9};
use ede_isa::ArchConfig;
use std::fmt::Write as _;

/// Renders Table I (architectural parameters) from the live configuration.
pub fn table1(sim: &crate::SimConfig) -> String {
    let c = &sim.cpu;
    let m = &sim.mem;
    let mut s = String::new();
    let _ = writeln!(s, "Table I: Architectural parameters");
    let _ = writeln!(s, "  ISA                 AArch64 + EDE extension");
    let _ = writeln!(
        s,
        "  Processor           OoO core, {}-instr decode width, 3GHz",
        c.decode_width
    );
    let _ = writeln!(s, "  Ld-St queue         {} entries each", c.lq_entries);
    let _ = writeln!(s, "  Write buffer        {} entries", c.wb_entries);
    let _ = writeln!(
        s,
        "  L1 D-cache          {}KB, {}-way, {}-cycle",
        m.l1d.capacity / 1024,
        m.l1d.ways,
        m.l1d.latency
    );
    let _ = writeln!(
        s,
        "  L2 cache            {}KB, {}-way, {}-cycle",
        m.l2.capacity / 1024,
        m.l2.ways,
        m.l2.latency
    );
    let _ = writeln!(
        s,
        "  L3 cache            {}MB, {}-way, {}-cycle",
        m.l3.capacity / (1024 * 1024),
        m.l3.ways,
        m.l3.latency
    );
    let _ = writeln!(
        s,
        "  NVM latency         {}ns read; {}ns write",
        m.nvm_read_latency / 3,
        m.nvm_write_latency / 3
    );
    let _ = writeln!(s, "  NVM line size       {}B", m.nvm_line_bytes);
    let _ = writeln!(s, "  NVM on-DIMM buffer  {} slots", m.persist_slots);
    s
}

/// Renders Table II (applications).
pub fn table2() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table II: Applications evaluated");
    for w in ede_workloads::standard_suite() {
        let _ = writeln!(s, "  {:8} {}", w.name(), w.description());
    }
    s
}

/// Renders Table III (architecture configurations).
pub fn table3() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table III: Architecture configurations");
    for arch in ArchConfig::ALL {
        let _ = writeln!(s, "  {:3} {}", arch.label(), arch.description());
    }
    s
}

/// Renders Figure 9 as a table of normalized execution times.
pub fn fig9(f: &Fig9) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 9: Application execution time (normalized to B)");
    let _ = write!(s, "  {:8}", "app");
    for arch in ArchConfig::ALL {
        let _ = write!(s, " {:>7}", arch.label());
    }
    let _ = writeln!(s);
    for row in &f.rows {
        let _ = write!(s, "  {:8}", row.app);
        for v in row.normalized {
            let _ = write!(s, " {v:>7.3}");
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "  {:8}", "geomean");
    for v in f.geomean {
        let _ = write!(s, " {v:>7.3}");
    }
    let _ = writeln!(s);
    let red = f.reduction_pct();
    let spd = f.speedup_pct();
    let _ = writeln!(
        s,
        "  reductions vs B: SU {:.0}%, IQ {:.0}%, WB {:.0}%, U {:.0}%  (paper: 5/15/20/38%)",
        red[1], red[2], red[3], red[4]
    );
    let _ = writeln!(
        s,
        "  speedups  vs B: IQ {:.0}%, WB {:.0}%             (paper: 18/26%)",
        spd[2], spd[3]
    );
    s
}

/// Renders Figure 10 as mean buffer occupancy per app × configuration,
/// plus a coarse distribution (quartile buckets of the 128 slots).
pub fn fig10(f: &Fig10) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 10: Pending NVM writes in the 128-slot on-DIMM buffer"
    );
    let _ = writeln!(s, "  mean occupancy (samples at each media write):");
    let _ = write!(s, "  {:8}", "app");
    for arch in ArchConfig::ALL {
        let _ = write!(s, " {:>7}", arch.label());
    }
    let _ = writeln!(s);
    let mut apps: Vec<&str> = f.cells.iter().map(|c| c.app.as_str()).collect();
    apps.dedup();
    for app in apps {
        let _ = write!(s, "  {app:8}");
        for arch in ArchConfig::ALL {
            let m = f.cell(app, arch).map(|c| c.mean_occupancy()).unwrap_or(0.0);
            let _ = write!(s, " {m:>7.1}");
        }
        let _ = writeln!(s);
    }
    s
}

/// Renders Figure 11 as the issue-width distribution plus IPC line.
pub fn fig11(f: &Fig11) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 11: Distribution of the number of instructions issued each cycle"
    );
    let _ = write!(s, "  {:4}", "cfg");
    let width = f.rows.first().map_or(0, |r| r.issue_fractions.len());
    for n in 0..width {
        let _ = write!(s, " {n:>6}");
    }
    let _ = writeln!(s, " {:>6}", "IPC");
    for row in &f.rows {
        let _ = write!(s, "  {:4}", row.arch.label());
        for frac in &row.issue_fractions {
            let _ = write!(s, " {:>5.1}%", frac * 100.0);
        }
        let _ = writeln!(s, " {:>6.2}", row.ipc);
    }
    let _ = writeln!(
        s,
        "  (paper IPC: B 0.40, SU 0.42, IQ 0.46, WB 0.49, U 0.64)"
    );
    s
}

fn json_f64_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", items.join(","))
}

fn json_u64_array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Renders Figure 9 as machine-readable JSON (configurations in Table III
/// order) for plotting pipelines.
///
/// # Example
///
/// ```
/// # use ede_sim::experiment::{Fig9, Fig9Row};
/// let f = Fig9 {
///     rows: vec![Fig9Row { app: "update".into(), cycles: [10, 9, 8, 7, 6],
///                          normalized: [1.0, 0.9, 0.8, 0.7, 0.6] }],
///     geomean: [1.0, 0.9, 0.8, 0.7, 0.6],
/// };
/// let json = ede_sim::report::fig9_json(&f);
/// assert!(json.contains("\"app\":\"update\""));
/// assert!(json.starts_with('{') && json.ends_with('}'));
/// ```
pub fn fig9_json(f: &Fig9) -> String {
    let rows: Vec<String> = f
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"app\":\"{}\",\"cycles\":{},\"normalized\":{}}}",
                r.app,
                json_u64_array(&r.cycles),
                json_f64_array(&r.normalized)
            )
        })
        .collect();
    format!(
        "{{\"configs\":[\"B\",\"SU\",\"IQ\",\"WB\",\"U\"],\"rows\":[{}],\"geomean\":{}}}",
        rows.join(","),
        json_f64_array(&f.geomean)
    )
}

/// Renders Figure 10 as JSON: per app × configuration occupancy
/// histograms.
pub fn fig10_json(f: &Fig10) -> String {
    let cells: Vec<String> = f
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"app\":\"{}\",\"config\":\"{}\",\"histogram\":{}}}",
                c.app,
                c.arch.label(),
                json_u64_array(&c.histogram)
            )
        })
        .collect();
    format!("{{\"cells\":[{}]}}", cells.join(","))
}

/// Renders Figure 11 as JSON: issue-width fractions and IPC per
/// configuration.
pub fn fig11_json(f: &Fig11) -> String {
    let rows: Vec<String> = f
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"config\":\"{}\",\"issue_fractions\":{},\"ipc\":{:.6}}}",
                r.arch.label(),
                json_f64_array(&r.issue_fractions),
                r.ipc
            )
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Fig10Cell, Fig11Row, Fig9Row};

    #[test]
    fn tables_render() {
        let t1 = table1(&crate::SimConfig::a72());
        assert!(t1.contains("NVM on-DIMM buffer  128 slots"));
        assert!(t1.contains("150ns read; 500ns write"));
        assert!(table2().contains("rbtree"));
        assert!(table3().contains("DMB st"));
    }

    #[test]
    fn fig9_renders_geomean() {
        let f = Fig9 {
            rows: vec![Fig9Row {
                app: "update".into(),
                cycles: [100, 95, 85, 80, 62],
                normalized: [1.0, 0.95, 0.85, 0.80, 0.62],
            }],
            geomean: [1.0, 0.95, 0.85, 0.80, 0.62],
        };
        let s = fig9(&f);
        assert!(s.contains("geomean"));
        assert!(s.contains("paper: 5/15/20/38%"));
        // Reductions derived correctly.
        assert!((f.reduction_pct()[4] - 38.0).abs() < 1e-9);
        assert!((f.speedup_pct()[3] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn json_outputs_are_wellformed() {
        let f9 = Fig9 {
            rows: vec![Fig9Row {
                app: "swap".into(),
                cycles: [5, 4, 3, 2, 1],
                normalized: [1.0, 0.8, 0.6, 0.4, 0.2],
            }],
            geomean: [1.0, 0.8, 0.6, 0.4, 0.2],
        };
        let j = fig9_json(&f9);
        assert!(j.contains("\"geomean\":[1.000000,0.800000,0.600000,0.400000,0.200000]"));
        // Braces/brackets balance.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                j.matches(open).count(),
                j.matches(close).count(),
                "unbalanced {open}{close} in {j}"
            );
        }
        let f10 = Fig10 {
            cells: vec![Fig10Cell {
                app: "update".into(),
                arch: ArchConfig::Unsafe,
                histogram: vec![0, 2, 1],
            }],
        };
        assert!(fig10_json(&f10).contains("\"config\":\"U\""));
        let f11 = Fig11 {
            rows: vec![Fig11Row {
                arch: ArchConfig::Baseline,
                issue_fractions: vec![1.0],
                ipc: 0.5,
            }],
        };
        assert!(fig11_json(&f11).contains("\"ipc\":0.500000"));
    }

    #[test]
    fn fig10_and_fig11_render() {
        let f10 = Fig10 {
            cells: vec![Fig10Cell {
                app: "update".into(),
                arch: ArchConfig::Baseline,
                histogram: vec![1, 2, 3],
            }],
        };
        assert!(fig10(&f10).contains("update"));
        let f11 = Fig11 {
            rows: vec![Fig11Row {
                arch: ArchConfig::Baseline,
                issue_fractions: vec![0.5, 0.25, 0.25],
                ipc: 0.4,
            }],
        };
        let s = fig11(&f11);
        assert!(s.contains("IPC"));
        assert!(s.contains("0.40"));
    }
}
