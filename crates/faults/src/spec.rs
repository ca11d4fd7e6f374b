//! The compact `--inject` command-line grammar.

use crate::plan::{DaemonFaultKind, FaultKind, FaultPlan, FaultTrigger, ScheduledFault};
use vs_types::{ChipId, CoreId, DomainId, Millivolts, SimTime};

/// A parsed `--inject` specification.
///
/// The grammar is a comma-separated list of directives:
///
/// | directive | meaning |
/// |---|---|
/// | `seeded:SEED` | a seeded population-wide plan (`FaultPlan::seeded`) |
/// | `panic:chipN` | chip `N`'s worker job panics once (`xM` suffix: `M` times) |
/// | `hang:chipN` | chip `N`'s worker job hangs once until the watchdog cancels it (`xM` suffix: `M` times) |
/// | `io-error:N` | the first `N` checkpoint save attempts of the fleet runner fail with an injected I/O error (the start-of-run journal fold is not one) |
/// | `daemon:KIND:N` | budget `N` daemon-tier faults of `KIND` (`torn`, `stall`, `disconnect`, `enospc`, `short-write`, `fsync`, `overload`) |
/// | `due@TIME:dD` | a DUE on domain `D` at `TIME` |
/// | `crash@TIME:cC` | core `C` crashes at `TIME` |
/// | `crash<MVmv:dD:cC` | core `C` crashes when domain `D` drops below `MV` mV |
/// | `droop@TIME:dD:DEPTHmv:DUR` | droop domain `D` by `DEPTH` mV for `DUR` |
/// | `stuck@TIME:dD:RATE:DUR` | stick domain `D`'s monitor at `RATE` for `DUR` |
///
/// Timed directives accept a trailing `:chipN` to scope them to one chip
/// (they apply to every chip otherwise). Times are `<n>us`, `<n>ms`, or
/// `<n>s`.
///
/// Seeded plans depend on the fleet size, so parsing yields a `FaultSpec`
/// that is turned into a concrete plan with [`FaultSpec::materialize`].
///
/// # Examples
///
/// ```
/// use vs_faults::FaultSpec;
///
/// let spec = FaultSpec::parse("due@500ms:d0,panic:chip3x2,crash@1s:c1:chip2").unwrap();
/// let plan = spec.materialize(8);
/// assert_eq!(plan.events().len(), 2);
/// assert_eq!(plan.panic_attempts(vs_types::ChipId(3)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    seeded: Option<u64>,
    explicit: FaultPlan,
}

impl FaultSpec {
    /// Parses a specification string. Returns a human-readable message
    /// naming the offending directive on failure.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::default();
        for raw in s.split(',') {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            spec.parse_directive(item)
                .map_err(|e| format!("bad --inject directive {item:?}: {e}"))?;
        }
        Ok(spec)
    }

    /// Turns the spec into a concrete plan for a fleet of `num_chips`
    /// chips (pass 1 for single-system runs).
    pub fn materialize(&self, num_chips: u64) -> FaultPlan {
        let mut plan = match self.seeded {
            Some(seed) => FaultPlan::seeded(seed, num_chips),
            None => FaultPlan::new(),
        };
        for f in self.explicit.events() {
            plan.push(*f);
        }
        for &(chip, attempts) in self.explicit.worker_panics() {
            plan = plan.worker_panic(chip, attempts);
        }
        for &(chip, attempts) in self.explicit.worker_hangs() {
            plan = plan.worker_hang(chip, attempts);
        }
        for &(kind, n) in self.explicit.daemon_faults() {
            plan = plan.daemon_fault(kind, n);
        }
        plan.checkpoint_io_error(self.explicit.checkpoint_io_errors())
    }

    fn parse_directive(&mut self, item: &str) -> Result<(), String> {
        if let Some(rest) = item.strip_prefix("seeded:") {
            let seed = rest.parse::<u64>().map_err(|_| "seed must be a u64")?;
            self.seeded = Some(seed);
            return Ok(());
        }
        if let Some(rest) = item.strip_prefix("panic:") {
            let (chip_part, attempts) = match rest.split_once('x') {
                Some((c, n)) => (
                    c,
                    n.parse::<u32>().map_err(|_| "panic count must be a u32")?,
                ),
                None => (rest, 1),
            };
            let chip = parse_chip(chip_part)?;
            self.explicit = std::mem::take(&mut self.explicit).worker_panic(chip, attempts);
            return Ok(());
        }
        if let Some(rest) = item.strip_prefix("hang:") {
            let (chip_part, attempts) = match rest.split_once('x') {
                Some((c, n)) => (c, n.parse::<u32>().map_err(|_| "hang count must be a u32")?),
                None => (rest, 1),
            };
            let chip = parse_chip(chip_part)?;
            self.explicit = std::mem::take(&mut self.explicit).worker_hang(chip, attempts);
            return Ok(());
        }
        if let Some(rest) = item.strip_prefix("io-error:") {
            let n = rest
                .parse::<u32>()
                .map_err(|_| "io-error count must be a u32")?;
            self.explicit = std::mem::take(&mut self.explicit).checkpoint_io_error(n);
            return Ok(());
        }
        if let Some(rest) = item.strip_prefix("daemon:") {
            let (kind_part, count_part) = rest
                .split_once(':')
                .ok_or("daemon faults are `daemon:KIND:N`")?;
            let kind = DaemonFaultKind::parse(kind_part).ok_or_else(|| {
                format!(
                    "unknown daemon fault kind {kind_part:?} (expected one of {})",
                    DaemonFaultKind::ALL.map(|k| k.label()).join(", ")
                )
            })?;
            let n = count_part
                .parse::<u32>()
                .map_err(|_| "daemon fault count must be a u32")?;
            self.explicit = std::mem::take(&mut self.explicit).daemon_fault(kind, n);
            return Ok(());
        }

        let (head, fields) = match item.split_once(':') {
            Some((h, f)) => (h, f),
            None => return Err("expected `kind@time:fields` or `kind<mv:fields`".into()),
        };
        let mut parts: Vec<&str> = fields.split(':').collect();
        // A trailing `chipN` scopes any timed directive to one chip.
        let chip = match parts.last() {
            Some(last) if last.starts_with("chip") => {
                let c = parse_chip(last)?;
                parts.pop();
                Some(c)
            }
            _ => None,
        };

        let (trigger, kind) = if let Some((kind_name, time)) = head.split_once('@') {
            let at = parse_time(time)?;
            let kind = match (kind_name, parts.as_slice()) {
                ("due", [d]) => FaultKind::Due {
                    domain: parse_domain(d)?,
                },
                ("crash", [c]) => FaultKind::CoreCrash {
                    core: parse_core(c)?,
                },
                ("droop", [d, depth, dur]) => FaultKind::Droop {
                    domain: parse_domain(d)?,
                    depth: parse_millivolts(depth)?,
                    duration: parse_time(dur)?,
                },
                ("stuck", [d, rate, dur]) => FaultKind::MonitorStuck {
                    domain: parse_domain(d)?,
                    rate: rate
                        .parse::<f64>()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or("rate must be a number in [0, 1]")?,
                    duration: parse_time(dur)?,
                },
                _ => {
                    return Err(format!(
                        "unknown directive or wrong fields for `{kind_name}@`"
                    ))
                }
            };
            (FaultTrigger::At(at), kind)
        } else if let Some((kind_name, mv)) = head.split_once('<') {
            if kind_name != "crash" {
                return Err(format!(
                    "only `crash<` takes a voltage trigger, got `{kind_name}<`"
                ));
            }
            let [d, c] = parts.as_slice() else {
                return Err("crash< needs `:dD:cC` fields".into());
            };
            (
                FaultTrigger::BelowVoltage {
                    domain: parse_domain(d)?,
                    threshold: parse_millivolts(mv)?,
                },
                FaultKind::CoreCrash {
                    core: parse_core(c)?,
                },
            )
        } else {
            return Err("expected `kind@time` or `crash<mv`".into());
        };

        self.explicit.push(ScheduledFault {
            chip,
            trigger,
            kind,
        });
        Ok(())
    }
}

fn parse_chip(s: &str) -> Result<ChipId, String> {
    s.strip_prefix("chip")
        .and_then(|n| n.parse::<u64>().ok())
        .map(ChipId)
        .ok_or_else(|| format!("expected `chipN`, got {s:?}"))
}

fn parse_domain(s: &str) -> Result<DomainId, String> {
    s.strip_prefix('d')
        .and_then(|n| n.parse::<usize>().ok())
        .map(DomainId)
        .ok_or_else(|| format!("expected `dN`, got {s:?}"))
}

fn parse_core(s: &str) -> Result<CoreId, String> {
    s.strip_prefix('c')
        .and_then(|n| n.parse::<usize>().ok())
        .map(CoreId)
        .ok_or_else(|| format!("expected `cN`, got {s:?}"))
}

fn parse_millivolts(s: &str) -> Result<Millivolts, String> {
    s.strip_suffix("mv")
        .and_then(|n| n.parse::<i32>().ok())
        .map(Millivolts)
        .ok_or_else(|| format!("expected `<n>mv`, got {s:?}"))
}

fn parse_time(s: &str) -> Result<SimTime, String> {
    let (digits, scale) = if let Some(n) = s.strip_suffix("us") {
        (n, 1)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        return Err(format!("expected a time like `500ms`, got {s:?}"));
    };
    digits
        .parse::<u64>()
        .map(|n| SimTime::from_micros(n * scale))
        .map_err(|_| format!("expected a time like `500ms`, got {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_round_trip() {
        let spec = FaultSpec::parse(
            "due@500ms:d0,crash@1s:c1:chip2,crash<650mv:d1:c3,\
             droop@200ms:d0:80mv:50ms,stuck@100ms:d1:0.0:200ms:chip4,panic:chip3x2",
        )
        .unwrap();
        let plan = spec.materialize(8);
        assert_eq!(plan.events().len(), 5);
        assert_eq!(plan.panic_attempts(ChipId(3)), 2);
        assert_eq!(
            plan.events()[0],
            ScheduledFault {
                chip: None,
                trigger: FaultTrigger::At(SimTime::from_millis(500)),
                kind: FaultKind::Due {
                    domain: DomainId(0)
                },
            }
        );
        assert_eq!(plan.events()[1].chip, Some(ChipId(2)));
        assert_eq!(
            plan.events()[2].trigger,
            FaultTrigger::BelowVoltage {
                domain: DomainId(1),
                threshold: Millivolts(650),
            }
        );
        assert_eq!(plan.events()[4].chip, Some(ChipId(4)));
    }

    #[test]
    fn seeded_spec_scales_with_fleet_size() {
        let spec = FaultSpec::parse("seeded:42").unwrap();
        assert_eq!(spec.materialize(16), FaultPlan::seeded(42, 16),);
        assert_ne!(spec.materialize(16), spec.materialize(32));
        // Explicit directives stack on top of the seeded population.
        let combo = FaultSpec::parse("seeded:42,panic:chip0x9").unwrap();
        assert_eq!(combo.materialize(16).panic_attempts(ChipId(0)), 9);
    }

    #[test]
    fn errors_name_the_directive() {
        let err = FaultSpec::parse("due@500ms").unwrap_err();
        assert!(err.contains("due@500ms"), "{err}");
        assert!(FaultSpec::parse("wat@1ms:d0").is_err());
        assert!(FaultSpec::parse("stuck@1ms:d0:1.5:2ms").is_err());
        assert!(FaultSpec::parse("panic:3").is_err());
        assert!(FaultSpec::parse("crash<650:d0:c0").is_err());
        assert!(FaultSpec::parse("hang:3").is_err());
        assert!(FaultSpec::parse("hang:chip1xZ").is_err());
        assert!(FaultSpec::parse("io-error:many").is_err());
        assert!(FaultSpec::parse("daemon:torn").is_err());
        assert!(FaultSpec::parse("daemon:meteor:1").is_err());
        assert!(FaultSpec::parse("daemon:torn:lots").is_err());
    }

    #[test]
    fn daemon_directives_parse_and_merge() {
        let spec = FaultSpec::parse("daemon:torn:2,daemon:enospc:1,daemon:torn:1").unwrap();
        let plan = spec.materialize(4);
        assert_eq!(plan.daemon_fault_count(DaemonFaultKind::TornFrame), 2);
        assert_eq!(plan.daemon_fault_count(DaemonFaultKind::Enospc), 1);
        assert_eq!(plan.daemon_fault_count(DaemonFaultKind::Overload), 0);
        assert!(plan.events().is_empty());
    }

    #[test]
    fn hang_and_io_error_directives_parse() {
        let spec = FaultSpec::parse("hang:chip2,hang:chip5x3,io-error:2").unwrap();
        let plan = spec.materialize(8);
        assert_eq!(plan.hang_attempts(ChipId(2)), 1);
        assert_eq!(plan.hang_attempts(ChipId(5)), 3);
        assert_eq!(plan.hang_attempts(ChipId(0)), 0);
        assert_eq!(plan.checkpoint_io_errors(), 2);
        assert!(plan.worker_panics().is_empty());
    }

    #[test]
    fn empty_and_whitespace_specs_are_empty_plans() {
        assert!(FaultSpec::parse("").unwrap().materialize(4).is_empty());
        assert!(FaultSpec::parse(" , ").unwrap().materialize(4).is_empty());
    }
}
