//! Deterministic alerting: declarative threshold rules evaluated on the
//! simulated clock against the metrics registry.
//!
//! A rule is `name:metric>value` — a named comparison of one registry
//! metric (gauge first, counter fallback) against a constant. The engine
//! evaluates every rule at caller-chosen instants (the serving scheduler
//! does it at each batch retirement and at shutdown), tracks firing state
//! with fire/resolve hysteresis, and bumps `engine.alert.*` counters on
//! every transition. No wall clock and no RNG anywhere: the same workload
//! fires the same alerts at the same simulated times, every run.
//!
//! Burn-rate alerting composes for free: the SLO tracker publishes
//! `engine.slo.burn_rate` as a gauge, so
//! `burn:engine.slo.burn_rate>2` is an ordinary rule.

use crate::metrics::MetricsRegistry;
use std::fmt;

/// Comparison operator of an [`AlertRule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
        })
    }
}

/// One declarative threshold rule: fire while `metric cmp value` holds.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name — labels the `engine.alert.fired.<name>` counter, the
    /// recorder dump trigger, and the CLI output line.
    pub name: String,
    /// Registry metric the rule watches. Gauges win over counters on a
    /// name collision; a metric that does not exist yet reads as `0`.
    pub metric: String,
    pub cmp: Cmp,
    pub value: f64,
}

impl fmt::Display for AlertRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}{}{}", self.name, self.metric, self.cmp, self.value)
    }
}

impl AlertRule {
    /// Parse one `name:metric>value` rule. The comparator may be `>`,
    /// `>=`, `<`, or `<=`; the metric name may contain dots (everything
    /// between the first `:` and the comparator). Errors quote `spec`
    /// verbatim — exactly as the caller wrote it, whitespace and all — so
    /// the offending rule in a comma list is findable by eye.
    pub fn parse(spec: &str) -> Result<AlertRule, String> {
        let body = spec.trim();
        let (name, rest) = body
            .split_once(':')
            .ok_or_else(|| format!("alert rule '{spec}': expected name:metric>value"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("alert rule '{spec}': empty rule name"));
        }
        let idx = rest
            .find(['>', '<'])
            .ok_or_else(|| format!("alert rule '{spec}': no comparator (>, >=, <, <=)"))?;
        let metric = rest[..idx].trim();
        if metric.is_empty() {
            return Err(format!("alert rule '{spec}': empty metric name"));
        }
        let tail = &rest[idx..];
        let (cmp, value_str) = if let Some(v) = tail.strip_prefix(">=") {
            (Cmp::Ge, v)
        } else if let Some(v) = tail.strip_prefix("<=") {
            (Cmp::Le, v)
        } else if let Some(v) = tail.strip_prefix('>') {
            (Cmp::Gt, v)
        } else {
            (Cmp::Lt, tail.strip_prefix('<').expect("found '<' above"))
        };
        let value: f64 = value_str
            .trim()
            .parse()
            .map_err(|_| format!("alert rule '{spec}': bad threshold '{}'", value_str.trim()))?;
        if !value.is_finite() {
            return Err(format!("alert rule '{spec}': threshold must be finite"));
        }
        Ok(AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            cmp,
            value,
        })
    }

    /// Parse a comma-separated rule list; empty/whitespace input is an
    /// empty rule set. Rule names must be unique (they label counters and
    /// dump files).
    pub fn parse_rules(spec: &str) -> Result<Vec<AlertRule>, String> {
        let mut rules = Vec::new();
        for part in spec.split(',') {
            if part.trim().is_empty() {
                continue;
            }
            let rule = AlertRule::parse(part)?;
            if rules.iter().any(|r: &AlertRule| r.name == rule.name) {
                return Err(format!("duplicate alert rule name '{}'", rule.name));
            }
            rules.push(rule);
        }
        Ok(rules)
    }

    fn holds(&self, v: f64) -> bool {
        match self.cmp {
            Cmp::Gt => v > self.value,
            Cmp::Ge => v >= self.value,
            Cmp::Lt => v < self.value,
            Cmp::Le => v <= self.value,
        }
    }
}

/// One fire/resolve edge returned by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    pub rule: String,
    /// `true` on fire, `false` on resolve.
    pub firing: bool,
    /// Simulated time of the evaluation that produced the edge, ms.
    pub at_ms: f64,
    /// Metric value that produced the edge.
    pub value: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    firing: bool,
    fired: u64,
    resolved: u64,
}

/// Evaluates a rule set against a registry with fire/resolve hysteresis.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
}

impl AlertEngine {
    pub fn new(rules: Vec<AlertRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        AlertEngine { rules, states }
    }

    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Fire edges across all rules since construction.
    pub fn fired_total(&self) -> u64 {
        self.states.iter().map(|s| s.fired).sum()
    }

    /// Resolve edges across all rules since construction.
    pub fn resolved_total(&self) -> u64 {
        self.states.iter().map(|s| s.resolved).sum()
    }

    /// Names of the rules that have fired at least once, in rule order.
    pub fn fired_rules(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.fired > 0)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Evaluate every rule at simulated time `now_ms` and return the
    /// fire/resolve edges. Each edge bumps `engine.alert.fired` /
    /// `engine.alert.resolved` (plus the per-rule
    /// `engine.alert.fired.<name>`) and flips the
    /// `engine.alert.active.<name>` gauge on the same registry the rules
    /// read from.
    pub fn evaluate(&mut self, metrics: &MetricsRegistry, now_ms: f64) -> Vec<AlertTransition> {
        let mut edges = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let value = metrics
                .gauge(&rule.metric)
                .unwrap_or_else(|| metrics.counter(&rule.metric) as f64);
            let holds = rule.holds(value);
            if holds == state.firing {
                continue;
            }
            state.firing = holds;
            if holds {
                state.fired += 1;
                metrics.inc("engine.alert.fired");
                metrics.inc(&format!("engine.alert.fired.{}", rule.name));
            } else {
                state.resolved += 1;
                metrics.inc("engine.alert.resolved");
            }
            metrics.set_gauge(
                &format!("engine.alert.active.{}", rule.name),
                if holds { 1.0 } else { 0.0 },
            );
            edges.push(AlertTransition {
                rule: rule.name.clone(),
                firing: holds,
                at_ms: now_ms,
                value,
            });
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_comparator() {
        let r = AlertRule::parse("p99:engine.latency_ms>250").expect("gt");
        assert_eq!(r.name, "p99");
        assert_eq!(r.metric, "engine.latency_ms");
        assert_eq!(r.cmp, Cmp::Gt);
        assert_eq!(r.value, 250.0);
        assert_eq!(AlertRule::parse("a:m>=1.5").unwrap().cmp, Cmp::Ge);
        assert_eq!(AlertRule::parse("a:m<0.5").unwrap().cmp, Cmp::Lt);
        assert_eq!(AlertRule::parse("a:m<=0").unwrap().cmp, Cmp::Le);
        // display round-trips through parse
        let r2 = AlertRule::parse(&r.to_string()).unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in [
            "no-colon>1",
            ":m>1",
            "a:>1",
            "a:m",
            "a:m>",
            "a:m>abc",
            "a:m>inf",
        ] {
            assert!(AlertRule::parse(bad).is_err(), "must reject {bad:?}");
        }
        assert!(AlertRule::parse_rules("a:m>1,a:m>2").is_err(), "dup names");
    }

    #[test]
    fn parse_rules_handles_lists_and_empties() {
        assert!(AlertRule::parse_rules("").unwrap().is_empty());
        assert!(AlertRule::parse_rules("  , ,").unwrap().is_empty());
        let rules =
            AlertRule::parse_rules("burn:engine.slo.burn_rate>2, shed:engine.shed>=10").unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[1].name, "shed");
        assert_eq!(rules[1].cmp, Cmp::Ge);
    }

    #[test]
    fn whitespace_around_every_token_parses() {
        let r = AlertRule::parse("  p99 : engine.latency_ms >= 250  ").unwrap();
        assert_eq!(r.name, "p99");
        assert_eq!(r.metric, "engine.latency_ms");
        assert_eq!(r.cmp, Cmp::Ge);
        assert_eq!(r.value, 250.0);
    }

    #[test]
    fn errors_name_the_offending_rule_verbatim() {
        // the error quotes the spec exactly as the caller wrote it —
        // untrimmed — so the bad rule is findable by eye in a comma list
        let spec = "  p99 : engine.latency_ms >  ";
        let err = AlertRule::parse(spec).unwrap_err();
        assert!(
            err.contains("'  p99 : engine.latency_ms >  '"),
            "got: {err}"
        );
        // through parse_rules, the quoted text is the verbatim list segment
        let err = AlertRule::parse_rules("ok:m>1,  bad : x > abc ").unwrap_err();
        assert!(err.contains("'  bad : x > abc '"), "got: {err}");
        // every error family quotes the full spec
        for bad in ["no-colon>1", " :m>1", "a: >1", "a:m>inf"] {
            let err = AlertRule::parse(bad).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "got: {err}");
        }
    }

    #[test]
    fn fire_resolve_hysteresis_counts_edges_not_evaluations() {
        let m = MetricsRegistry::new();
        let mut e = AlertEngine::new(AlertRule::parse_rules("hot:temp>50").unwrap());
        assert!(e.evaluate(&m, 0.0).is_empty(), "missing metric reads as 0");

        m.set_gauge("temp", 80.0);
        let edges = e.evaluate(&m, 1.0);
        assert_eq!(edges.len(), 1);
        assert!(edges[0].firing);
        assert_eq!(edges[0].value, 80.0);
        // still hot: no new edge, no double-count
        assert!(e.evaluate(&m, 2.0).is_empty());
        assert_eq!(e.fired_total(), 1);
        assert_eq!(m.counter("engine.alert.fired"), 1);
        assert_eq!(m.counter("engine.alert.fired.hot"), 1);
        assert_eq!(m.gauge("engine.alert.active.hot"), Some(1.0));

        m.set_gauge("temp", 20.0);
        let edges = e.evaluate(&m, 3.0);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].firing);
        assert_eq!(e.resolved_total(), 1);
        assert_eq!(m.counter("engine.alert.resolved"), 1);
        assert_eq!(m.gauge("engine.alert.active.hot"), Some(0.0));
        assert_eq!(e.fired_rules(), vec!["hot"]);
    }

    #[test]
    fn counters_back_gauges_as_fallback() {
        let m = MetricsRegistry::new();
        let mut e = AlertEngine::new(AlertRule::parse_rules("shed:engine.shed>=3").unwrap());
        m.add("engine.shed", 2);
        assert!(e.evaluate(&m, 0.0).is_empty());
        m.inc("engine.shed");
        assert_eq!(e.evaluate(&m, 1.0).len(), 1);
        // a gauge with the same name shadows the counter
        m.set_gauge("engine.shed", 0.0);
        assert_eq!(e.evaluate(&m, 2.0).len(), 1, "resolves via the gauge");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let run = || {
            let m = MetricsRegistry::new();
            let mut e =
                AlertEngine::new(AlertRule::parse_rules("a:x>1,b:y<5,c:engine.z>=2").unwrap());
            let mut log = Vec::new();
            for step in 0..10u32 {
                m.set_gauge("x", f64::from(step));
                m.set_gauge("y", 10.0 - f64::from(step));
                m.add("engine.z", 1);
                log.extend(e.evaluate(&m, f64::from(step)));
            }
            (log, e.fired_total(), e.resolved_total())
        };
        assert_eq!(run(), run());
    }
}
