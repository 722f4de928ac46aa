//! The reference oracle: every answer a workload gets is checked against
//! a stored reference, in untraced and traced runs alike.
//!
//! * A probability fails when `|P − P_ref| > E + E_ref`, where `E` is
//!   the error bound the program reports at that state and `E_ref` the
//!   reference's own bound plus the rounding of its printed digits.
//!   Rows marked relative (Table 5.8) must instead match to that
//!   relative tolerance.
//! * Verdicts must match exactly, `unknown`s included: the digest of the
//!   satisfied and unknown sets is compared with the recorded one.
//!
//! Paper rows take `P_ref`/`E_ref` from EXPERIMENTS.md; every other query
//! takes them from `references.tsv`, recorded with `--record`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use mrmc::CheckOutcome;
use mrmc_obs::json::Value;

use crate::inputs::{Query, RefPoint, RefSource};
use crate::util::Fnv;

/// What the oracle sees of one answer, however it arrived.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub sat: Vec<bool>,
    pub unknown: Vec<bool>,
    pub probabilities: Option<Vec<f64>>,
    pub error_bounds: Option<Vec<f64>>,
    /// Totals of the six-component error budgets.
    pub budget_totals: Option<Vec<f64>>,
}

impl Answer {
    pub fn from_outcome(outcome: &CheckOutcome) -> Answer {
        Answer {
            sat: outcome.sat().to_vec(),
            unknown: outcome.unknown().to_vec(),
            probabilities: outcome.probabilities().map(<[f64]>::to_vec),
            error_bounds: outcome.error_bounds().map(<[f64]>::to_vec),
            budget_totals: outcome
                .budgets()
                .map(|b| b.iter().map(mrmc::ErrorBudget::total).collect()),
        }
    }

    /// Read a server `check` reply (the CLI `--json` object).
    pub fn from_reply(reply: &Value, states: usize) -> Result<Answer, String> {
        if let Some(e) = reply.get("error") {
            return Err(format!("error reply: {}", e.render()));
        }
        let set = |name: &str| -> Result<Vec<bool>, String> {
            let Some(Value::Arr(items)) = reply.get(name) else {
                return Err(format!("reply has no `{name}` array"));
            };
            let mut v = vec![false; states];
            for item in items {
                let s = item
                    .as_u64()
                    .and_then(|s| usize::try_from(s).ok())
                    .filter(|s| (1..=states).contains(s))
                    .ok_or_else(|| format!("bad state in `{name}`"))?;
                v[s - 1] = true;
            }
            Ok(v)
        };
        let (sat, unknown) = (set("satisfied")?, set("unknown")?);
        let (mut probabilities, mut error_bounds, mut budget_totals) = (None, None, None);
        if let Some(Value::Arr(rows)) = reply.get("states") {
            let mut p = vec![f64::NAN; states];
            let mut e = vec![0.0; states];
            let mut b = vec![0.0; states];
            let (mut any_bound, mut any_budget) = (false, false);
            for row in rows {
                let s = row
                    .get("state")
                    .and_then(Value::as_u64)
                    .and_then(|s| usize::try_from(s).ok())
                    .filter(|s| (1..=states).contains(s))
                    .ok_or("bad `state` in `states`")?;
                p[s - 1] = row
                    .get("probability")
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                if let Some(b) = row.get("error_bound").and_then(Value::as_f64) {
                    e[s - 1] = b;
                    any_bound = true;
                }
                if let Some(total) = row
                    .get("budget")
                    .and_then(|budget| budget.get("total"))
                    .and_then(Value::as_f64)
                {
                    b[s - 1] = total;
                    any_budget = true;
                }
            }
            probabilities = Some(p);
            error_bounds = any_bound.then_some(e);
            budget_totals = any_budget.then_some(b);
        }
        Ok(Answer {
            sat,
            unknown,
            probabilities,
            error_bounds,
            budget_totals,
        })
    }

    /// Digest of the three-valued verdict vector.
    pub fn verdict_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for (&s, &u) in self.sat.iter().zip(&self.unknown) {
            h.write(&[u8::from(s) | (u8::from(u) << 1)]);
        }
        h.finish()
    }

    /// The reported error bound at `state`: the larger of the engine's
    /// error bound and its budget total (`0` when neither is reported).
    pub fn bound_at(&self, state: usize) -> f64 {
        let at = |v: &Option<Vec<f64>>| {
            v.as_ref()
                .and_then(|v| v.get(state).copied())
                .unwrap_or(0.0)
        };
        at(&self.error_bounds).max(at(&self.budget_totals))
    }

    /// The state a recorded reference is taken at: the one whose
    /// probability is nearest 1/2, preferring `preferred` on ties, so the
    /// check lands where the answer is least trivial.
    fn informative_state(&self, preferred: usize) -> usize {
        let Some(p) = &self.probabilities else {
            return preferred;
        };
        let spread = |s: usize| p[s].min(1.0 - p[s]);
        let mut best = preferred.min(p.len().saturating_sub(1));
        for s in 0..p.len() {
            if spread(s) > spread(best) {
                best = s;
            }
        }
        best
    }

    /// Bitwise equality of verdicts, probabilities and bounds.
    pub fn bitwise_eq(&self, other: &Answer) -> bool {
        let bits = |v: &Option<Vec<f64>>| {
            v.as_ref()
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
        };
        self.sat == other.sat
            && self.unknown == other.unknown
            && bits(&self.probabilities) == bits(&other.probabilities)
            && bits(&self.error_bounds) == bits(&other.error_bounds)
            && bits(&self.budget_totals) == bits(&other.budget_totals)
    }
}

/// One recorded reference: the verdict digest and the probability and
/// bound at the reference state.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorded {
    pub verdict_digest: u64,
    pub point: Option<RefPoint>,
}

/// The recorded references, keyed by [`Query::key`].
#[derive(Debug, Clone, Default)]
pub struct References(pub BTreeMap<String, Recorded>);

impl References {
    /// The references compiled into the benchmark.
    pub fn builtin() -> References {
        References::parse(include_str!("../references.tsv")).expect("references.tsv is well-formed")
    }

    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let cols: Vec<&str> = line.split('\t').collect();
            let [key, digest, state, p, e] = cols[..] else {
                return Err(format!("references.tsv:{}: expected 5 columns", i + 1));
            };
            let bad = |what: &str| format!("references.tsv:{}: bad {what}", i + 1);
            let verdict_digest = u64::from_str_radix(digest, 16).map_err(|_| bad("digest"))?;
            let point = if state == "-" {
                None
            } else {
                Some(RefPoint {
                    state: state.parse().map_err(|_| bad("state"))?,
                    p: p.to_string(),
                    e: e.parse().map_err(|_| bad("bound"))?,
                    relative: None,
                })
            };
            map.insert(
                key.to_string(),
                Recorded {
                    verdict_digest,
                    point,
                },
            );
        }
        Ok(References(map))
    }

    /// Record `answer` as the reference for `query`.
    pub fn record(&mut self, query: &Query, answer: &Answer) {
        let state = answer.informative_state(query.model.reference_state());
        let point = answer.probabilities.as_ref().map(|p| RefPoint {
            state,
            p: format!("{:e}", p[state]),
            e: answer.bound_at(state),
            relative: None,
        });
        self.0.insert(
            query.key.clone(),
            Recorded {
                verdict_digest: answer.verdict_digest(),
                point,
            },
        );
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# key\tverdict_digest\treference_state\tP_ref\tE_ref — written by `--record`\n",
        );
        for (key, r) in &self.0 {
            match &r.point {
                Some(p) => writeln!(
                    out,
                    "{key}\t{:016x}\t{}\t{}\t{:e}",
                    r.verdict_digest, p.state, p.p, p.e
                ),
                None => writeln!(out, "{key}\t{:016x}\t-\t-\t-", r.verdict_digest),
            }
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// The points `query` is checked at.
    pub fn points(&self, query: &Query) -> Vec<RefPoint> {
        match &query.refs {
            RefSource::Paper(points) => points.clone(),
            RefSource::Recorded => self
                .0
                .get(&query.key)
                .and_then(|r| r.point.clone())
                .into_iter()
                .collect(),
        }
    }

    /// Check `answer` to `query` against its references.
    pub fn check(&self, query: &Query, answer: &Answer) -> Result<(), String> {
        let recorded = self
            .0
            .get(&query.key)
            .ok_or_else(|| format!("no reference for `{}`", query.key))?;
        if answer.verdict_digest() != recorded.verdict_digest {
            return Err(format!(
                "`{}`: verdicts differ from the reference",
                query.key
            ));
        }
        for point in &self.points(query) {
            check_point(query, answer, point)?;
        }
        Ok(())
    }
}

/// Half a unit in the last printed digit of a plain decimal (`0` for
/// exponent notation, which is written with every digit).
fn print_rounding(p: &str) -> f64 {
    if p.contains(['e', 'E']) {
        return 0.0;
    }
    let decimals = p.split_once('.').map_or(0, |(_, frac)| frac.len());
    0.5 * 10f64.powi(-(decimals as i32))
}

fn check_point(query: &Query, answer: &Answer, point: &RefPoint) -> Result<(), String> {
    let p_ref: f64 = point
        .p
        .parse()
        .map_err(|_| format!("`{}`: bad reference {}", query.key, point.p))?;
    let p = answer
        .probabilities
        .as_ref()
        .and_then(|p| p.get(point.state).copied())
        .ok_or_else(|| format!("`{}`: no probability at state {}", query.key, point.state))?;
    let diff = (p - p_ref).abs();
    let (ok, allowed) = match point.relative {
        Some(rel) => (diff <= rel * p_ref.abs(), rel * p_ref.abs()),
        None => {
            let allowed = answer.bound_at(point.state) + point.e + print_rounding(&point.p);
            (diff <= allowed, allowed)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "`{}` state {}: P = {p:e}, reference {} (|diff| {diff:e} > {allowed:e})",
            query.key, point.state, point.p
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{paper_queries, ModelId};

    fn answer(p: f64, e: f64) -> Answer {
        Answer {
            sat: vec![false, true],
            unknown: vec![false, false],
            probabilities: Some(vec![p, 1.0]),
            error_bounds: Some(vec![e, 0.0]),
            budget_totals: None,
        }
    }

    fn recorded_query() -> (Query, References) {
        let mut q = Query::new(ModelId::Tmr3, "P(> 0.5) [a U b]", None, RefSource::Recorded);
        q.key = "test".into();
        let mut refs = References::default();
        refs.record(&q, &answer(0.25, 1e-6));
        assert_eq!(refs.0["test"].point.as_ref().unwrap().state, 0);
        (q, refs)
    }

    #[test]
    fn a_perturbed_reference_is_caught() {
        let (q, refs) = recorded_query();
        assert!(refs.check(&q, &answer(0.25, 1e-6)).is_ok());
        // Within the summed bounds (1e-6 reported + 1e-6 reference).
        assert!(refs.check(&q, &answer(0.25 + 1.5e-6, 1e-6)).is_ok());
        // Beyond them.
        let mut moved = refs.clone();
        moved.0.get_mut("test").unwrap().point.as_mut().unwrap().p = "0.2500031".into();
        assert!(moved.check(&q, &answer(0.25, 1e-6)).is_err());
    }

    #[test]
    fn a_flipped_verdict_is_caught() {
        let (q, refs) = recorded_query();
        let mut a = answer(0.25, 1e-6);
        a.unknown[0] = true;
        assert!(refs.check(&q, &a).is_err());
    }

    #[test]
    fn relative_rows_ignore_the_reported_bound() {
        let q = &paper_queries()
            .into_iter()
            .find(|q| q.engine.as_deref() == Some("d=0.25"))
            .unwrap();
        let RefSource::Paper(points) = &q.refs else {
            unreachable!()
        };
        let p_ref: f64 = points[0].p.parse().unwrap();
        let state = points[0].state;
        let with = |p: f64| {
            let mut probs = vec![0.0; 5];
            probs[state] = p;
            Answer {
                sat: vec![false; 5],
                unknown: vec![false; 5],
                probabilities: Some(probs),
                error_bounds: Some(vec![1.0; 5]),
                budget_totals: None,
            }
        };
        assert!(check_point(q, &with(p_ref * (1.0 + 5e-13)), &points[0]).is_ok());
        assert!(check_point(q, &with(p_ref * (1.0 + 5e-12)), &points[0]).is_err());
    }

    #[test]
    fn printed_digits_widen_the_tolerance() {
        assert_eq!(print_rounding("0.25"), 0.005);
        assert_eq!(print_rounding("2.5e-1"), 0.0);
    }

    #[test]
    fn replies_parse_into_answers() {
        let reply = mrmc_obs::json::parse(
            r#"{"formula":"f","satisfied":[2],"unknown":[],"states":[{"state":1,"probability":2.5e-1,"verdict":"false","error_bound":1e-6},{"state":2,"probability":1e0,"verdict":"true","error_bound":0e0}]}"#,
        )
        .unwrap();
        let a = Answer::from_reply(&reply, 2).unwrap();
        assert!(a.bitwise_eq(&Answer {
            sat: vec![false, true],
            unknown: vec![false, false],
            probabilities: Some(vec![0.25, 1.0]),
            error_bounds: Some(vec![1e-6, 0.0]),
            budget_totals: None,
        }));
        let refused = mrmc_obs::json::parse(r#"{"error":"nope","error_kind":"request"}"#).unwrap();
        assert!(Answer::from_reply(&refused, 2).is_err());
    }
}
