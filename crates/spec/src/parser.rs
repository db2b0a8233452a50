//! Parser for PASDL problem and schedule documents.
//!
//! Grammar (statements in any order inside the block):
//!
//! ```text
//! problem ::= "problem" name "{" problem-stmt* "}"
//! problem-stmt ::=
//!     "pmax" watts | "pmin" watts | "background" watts | "deadline" seconds
//!   | "resource" name kind?            (kind: compute|mechanical|thermal|other)
//!   | "task" name "on" name "delay" seconds "power" watts
//!   | "min" name "->" name seconds     (start-to-start min separation)
//!   | "max" name "->" name seconds     (start-to-start max separation)
//!   | "precedence" name "->" name      (after completion)
//!
//! schedule ::= "schedule" name "{" ("start" name seconds)* "}"
//! ```
//!
//! `name` is an identifier or a quoted string.

use crate::lexer::{Lexer, Token, TokenKind, Unit};
use pas_core::power_model::PowerRange;
use pas_core::{PowerConstraints, Problem, Schedule};
use pas_graph::units::{Power, Time, TimeSpan};
use pas_graph::{ConstraintGraph, Resource, ResourceId, ResourceKind, Task, TaskId};
use pas_lint::{Span, SpanTable};
use std::collections::HashMap;

/// A parsed problem together with its optional §4.1 power corners
/// (`corners <min> <max>` on `task` statements; tasks without the
/// clause get an exact range at their typical power).
#[derive(Debug, Clone)]
pub struct ParsedProblem {
    /// The scheduling problem (typical powers).
    pub problem: Problem,
    /// Per-task corners, indexed by [`TaskId`].
    pub ranges: Vec<PowerRange>,
}

/// A parsed problem that additionally maps every graph entity back to
/// the byte extent of the statement that declared it, so `pas-lint`
/// diagnostics can point into the source.
#[derive(Debug, Clone)]
pub struct SpannedProblem {
    /// The scheduling problem (typical powers).
    pub problem: Problem,
    /// Per-task corners, indexed by [`TaskId`].
    pub ranges: Vec<PowerRange>,
    /// Statement spans of tasks, resources, edges and the power /
    /// deadline headers.
    pub spans: SpanTable,
}

/// A parse failure with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number (0 for end-of-input errors).
    pub line: usize,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A recursive-descent parser over the lexer with one token of
/// look-ahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token, already lexed.
    peeked: Option<Token<'a>>,
    /// Whether the lexer failed: its error is then the parse's result.
    lex_failed: bool,
    /// Byte extent of the most recently consumed token, for statement
    /// span recording.
    last: (usize, usize),
}

impl<'a> Parser<'a> {
    fn new(source: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(source);
        let peeked = lexer.next_token()?;
        Ok(Parser {
            lexer,
            peeked,
            lex_failed: false,
            last: (0, 0),
        })
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.peeked.as_ref()
    }

    fn next(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        let Some(t) = self.peeked else {
            return Ok(None);
        };
        self.peeked = match self.lexer.next_token() {
            Ok(next) => next,
            Err(e) => {
                self.lex_failed = true;
                return Err(e);
            }
        };
        self.last = (t.start, t.end);
        Ok(Some(t))
    }

    /// Settles a parse's result as if the whole input had been lexed
    /// before parsing: the first lex error anywhere in it wins over a
    /// parse error and over success.
    fn finish<T>(mut self, result: Result<T, ParseError>) -> Result<T, ParseError> {
        if !self.lex_failed {
            while self.lexer.next_token()?.is_some() {}
        }
        result
    }

    /// Span of the last consumed token.
    fn last_span(&self) -> Span {
        Span::new(self.last.0, self.last.1)
    }

    /// Span from a statement keyword's start byte through the last
    /// consumed token.
    fn stmt_span(&self, start: usize) -> Span {
        Span::new(start, self.last.1.max(start))
    }

    fn line(&self) -> usize {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::Ident(s),
                ..
            }) if s == kw => Ok(()),
            other => Err(ParseError {
                message: format!("expected keyword {kw:?}, found {other:?}"),
                line: other.map(|t| t.line).unwrap_or(0),
            }),
        }
    }

    fn expect_name(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::Ident(s) | TokenKind::Str(s),
                ..
            }) => Ok(s),
            other => Err(ParseError {
                message: format!("expected a name, found {other:?}"),
                line: other.map(|t| t.line).unwrap_or(0),
            }),
        }
    }

    fn expect_lbrace(&mut self) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::LBrace,
                ..
            }) => Ok(()),
            other => Err(ParseError {
                message: format!("expected '{{', found {other:?}"),
                line: other.map(|t| t.line).unwrap_or(0),
            }),
        }
    }

    fn expect_arrow(&mut self) -> Result<(), ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::Arrow,
                ..
            }) => Ok(()),
            other => Err(ParseError {
                message: format!("expected '->', found {other:?}"),
                line: other.map(|t| t.line).unwrap_or(0),
            }),
        }
    }

    fn expect_value(&mut self, unit: Unit) -> Result<i64, ParseError> {
        match self.next()? {
            Some(Token {
                kind: TokenKind::Value { scaled, unit: u },
                line,
                ..
            }) => {
                if u == unit {
                    Ok(scaled)
                } else {
                    Err(ParseError {
                        message: format!("expected a value in {unit}, found {u}"),
                        line,
                    })
                }
            }
            other => Err(ParseError {
                message: format!("expected a value in {unit}, found {other:?}"),
                line: other.map(|t| t.line).unwrap_or(0),
            }),
        }
    }
}

/// Parses a PASDL `problem` document.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line for syntax
/// errors, duplicate or unknown names, and missing `pmax`.
///
/// # Examples
/// ```
/// let src = r#"
/// problem "demo" {
///   pmax 16W
///   pmin 14W
///   resource A compute
///   task a on A delay 5s power 6W
///   task b on A delay 10s power 6W
///   precedence a -> b
/// }
/// "#;
/// let problem = pas_spec::parse_problem(src)?;
/// assert_eq!(problem.graph().num_tasks(), 2);
/// # Ok::<(), pas_spec::ParseError>(())
/// ```
pub fn parse_problem(source: &str) -> Result<Problem, ParseError> {
    parse_problem_full(source).map(|parsed| parsed.problem)
}

/// Parses a PASDL `problem` document keeping the per-task power
/// corners (see [`ParsedProblem`]).
///
/// # Errors
/// Same conditions as [`parse_problem`], plus invalid corners
/// (`min > power` or `power > max`).
pub fn parse_problem_full(source: &str) -> Result<ParsedProblem, ParseError> {
    parse_problem_spanned(source).map(|s| ParsedProblem {
        problem: s.problem,
        ranges: s.ranges,
    })
}

/// Parses a PASDL `problem` document keeping the per-task power
/// corners *and* a [`SpanTable`] mapping every declared entity to the
/// byte extent of its statement (see [`SpannedProblem`]), for
/// span-carrying `pas-lint` diagnostics.
///
/// # Errors
/// Same conditions as [`parse_problem_full`].
pub fn parse_problem_spanned(source: &str) -> Result<SpannedProblem, ParseError> {
    let mut p = Parser::new(source)?;
    let result = problem_body(&mut p);
    p.finish(result)
}

fn problem_body(p: &mut Parser<'_>) -> Result<SpannedProblem, ParseError> {
    p.expect_keyword("problem")?;
    let name = p.expect_name()?;
    let mut spans = SpanTable::empty();
    spans.problem = Some(p.last_span());
    p.expect_lbrace()?;

    let mut graph = ConstraintGraph::new();
    let mut resources: HashMap<&str, ResourceId> = HashMap::new();
    let mut tasks: HashMap<&str, TaskId> = HashMap::new();
    let mut ranges: Vec<PowerRange> = Vec::new();
    let mut p_max: Option<Power> = None;
    let mut p_min = Power::ZERO;
    let mut background = Power::ZERO;
    let mut deadline: Option<Time> = None;

    loop {
        let tok = match p.next()? {
            None => return p.err("unexpected end of input: missing '}'"),
            Some(t) => t,
        };
        let stmt_start = tok.start;
        let stmt = match tok.kind {
            TokenKind::RBrace => break,
            TokenKind::Ident(s) => s,
            other => {
                return Err(ParseError {
                    message: format!("expected a statement, found {other:?}"),
                    line: tok.line,
                })
            }
        };
        match stmt {
            "pmax" => {
                p_max = Some(Power::from_watts_milli(p.expect_value(Unit::Watts)?));
                spans.pmax = Some(p.stmt_span(stmt_start));
            }
            "pmin" => {
                let watts = p.expect_value(Unit::Watts)?;
                if watts < 0 {
                    return Err(ParseError {
                        message: "pmin must be non-negative".into(),
                        line: tok.line,
                    });
                }
                p_min = Power::from_watts_milli(watts);
                spans.pmin = Some(p.stmt_span(stmt_start));
            }
            "background" => {
                let watts = p.expect_value(Unit::Watts)?;
                if watts < 0 {
                    return Err(ParseError {
                        message: "background must be non-negative".into(),
                        line: tok.line,
                    });
                }
                background = Power::from_watts_milli(watts);
                spans.background = Some(p.stmt_span(stmt_start));
            }
            "deadline" => {
                let secs = p.expect_value(Unit::Seconds)?;
                if secs < 0 {
                    return Err(ParseError {
                        message: "deadline must be non-negative".into(),
                        line: tok.line,
                    });
                }
                deadline = Some(Time::from_secs(secs));
                spans.deadline = Some(p.stmt_span(stmt_start));
            }
            "resource" => {
                let rname = p.expect_name()?;
                let kind = match p.peek() {
                    Some(Token {
                        kind: TokenKind::Ident(k),
                        ..
                    }) if ["compute", "mechanical", "thermal", "other"].contains(k) => {
                        let k = *k;
                        p.next()?;
                        match k {
                            "compute" => ResourceKind::Compute,
                            "mechanical" => ResourceKind::Mechanical,
                            "thermal" => ResourceKind::Thermal,
                            _ => ResourceKind::Other,
                        }
                    }
                    _ => ResourceKind::Other,
                };
                if resources.contains_key(rname) {
                    return Err(ParseError {
                        message: format!("duplicate resource {rname:?}"),
                        line: tok.line,
                    });
                }
                let id = graph.add_resource(Resource::new(rname, kind));
                spans.set_resource(id, p.stmt_span(stmt_start));
                resources.insert(rname, id);
            }
            "task" => {
                let tname = p.expect_name()?;
                p.expect_keyword("on")?;
                let rname = p.expect_name()?;
                p.expect_keyword("delay")?;
                let delay = p.expect_value(Unit::Seconds)?;
                p.expect_keyword("power")?;
                let power = p.expect_value(Unit::Watts)?;
                let &rid = resources.get(rname).ok_or_else(|| ParseError {
                    message: format!("unknown resource {rname:?}"),
                    line: tok.line,
                })?;
                if tasks.contains_key(tname) {
                    return Err(ParseError {
                        message: format!("duplicate task {tname:?}"),
                        line: tok.line,
                    });
                }
                if delay <= 0 {
                    return Err(ParseError {
                        message: format!("task {tname:?} needs a positive delay"),
                        line: tok.line,
                    });
                }
                if power < 0 {
                    return Err(ParseError {
                        message: format!("task {tname:?} needs non-negative power"),
                        line: tok.line,
                    });
                }
                // Optional §4.1 corners: `corners <minW> <maxW>`.
                let range = match p.peek() {
                    Some(Token {
                        kind: TokenKind::Ident(k),
                        ..
                    }) if *k == "corners" => {
                        p.next()?;
                        let min = p.expect_value(Unit::Watts)?;
                        let max = p.expect_value(Unit::Watts)?;
                        if min < 0 || min > power || power > max {
                            return Err(ParseError {
                                message: format!(
                                    "task {tname:?} corners must satisfy 0 <= min <= power <= max"
                                ),
                                line: tok.line,
                            });
                        }
                        PowerRange::new(
                            Power::from_watts_milli(min),
                            Power::from_watts_milli(power),
                            Power::from_watts_milli(max),
                        )
                    }
                    _ => PowerRange::exact(Power::from_watts_milli(power)),
                };
                let id = graph.add_task(Task::new(
                    tname,
                    rid,
                    TimeSpan::from_secs(delay),
                    Power::from_watts_milli(power),
                ));
                debug_assert_eq!(id.index(), ranges.len());
                spans.set_task(id, p.stmt_span(stmt_start));
                ranges.push(range);
                tasks.insert(tname, id);
            }
            "min" | "max" | "precedence" => {
                let from = p.expect_name()?;
                p.expect_arrow()?;
                let to = p.expect_name()?;
                let lookup = |n: &str| {
                    tasks.get(n).copied().ok_or_else(|| ParseError {
                        message: format!("unknown task {n:?}"),
                        line: tok.line,
                    })
                };
                let (u, v) = (lookup(from)?, lookup(to)?);
                let edge = match stmt {
                    "min" => {
                        let sep = p.expect_value(Unit::Seconds)?;
                        graph.min_separation(u, v, TimeSpan::from_secs(sep))
                    }
                    "max" => {
                        let sep = p.expect_value(Unit::Seconds)?;
                        if sep < 0 {
                            return Err(ParseError {
                                message: "max separation must be non-negative".into(),
                                line: tok.line,
                            });
                        }
                        graph.max_separation(u, v, TimeSpan::from_secs(sep))
                    }
                    _ => graph.precedence(u, v),
                };
                spans.set_edge(edge, p.stmt_span(stmt_start));
            }
            other => {
                return Err(ParseError {
                    message: format!("unknown statement {other:?}"),
                    line: tok.line,
                })
            }
        }
    }

    if p.peek().is_some() {
        return p.err("trailing input after the problem block");
    }
    let Some(p_max) = p_max else {
        return Err(ParseError {
            message: "missing required 'pmax' statement".into(),
            line: 0,
        });
    };
    if p_min > p_max {
        return Err(ParseError {
            message: "pmin must not exceed pmax".into(),
            line: 0,
        });
    }
    let mut problem =
        Problem::with_background(name, graph, PowerConstraints::new(p_max, p_min), background);
    problem.set_deadline(deadline);
    Ok(SpannedProblem {
        problem,
        ranges,
        spans,
    })
}

/// Parses a PASDL `schedule` document against the problem whose tasks
/// it names. Every task of `problem` must receive exactly one start.
///
/// # Errors
/// Returns a [`ParseError`] for syntax errors, unknown task names,
/// duplicates, or missing tasks.
pub fn parse_schedule(source: &str, problem: &Problem) -> Result<(String, Schedule), ParseError> {
    let mut p = Parser::new(source)?;
    let result = schedule_body(&mut p, problem);
    p.finish(result)
}

fn schedule_body(p: &mut Parser<'_>, problem: &Problem) -> Result<(String, Schedule), ParseError> {
    p.expect_keyword("schedule")?;
    let name = p.expect_name()?;
    p.expect_lbrace()?;

    let graph = problem.graph();
    let mut starts: Vec<Option<Time>> = vec![None; graph.num_tasks()];
    loop {
        let tok = match p.next()? {
            None => return p.err("unexpected end of input: missing '}'"),
            Some(t) => t,
        };
        match tok.kind {
            TokenKind::RBrace => break,
            TokenKind::Ident("start") => {
                let tname = p.expect_name()?;
                let secs = p.expect_value(Unit::Seconds)?;
                let id = graph.task_by_name(tname).ok_or_else(|| ParseError {
                    message: format!("unknown task {tname:?}"),
                    line: tok.line,
                })?;
                if starts[id.index()].is_some() {
                    return Err(ParseError {
                        message: format!("duplicate start for task {tname:?}"),
                        line: tok.line,
                    });
                }
                starts[id.index()] = Some(Time::from_secs(secs));
            }
            other => {
                return Err(ParseError {
                    message: format!("expected 'start' statement, found {other:?}"),
                    line: tok.line,
                })
            }
        }
    }

    if p.peek().is_some() {
        return p.err("trailing input after the schedule block");
    }
    let mut resolved = Vec::with_capacity(starts.len());
    for (i, s) in starts.into_iter().enumerate() {
        match s {
            Some(t) => resolved.push(t),
            None => {
                return Err(ParseError {
                    message: format!(
                        "task {:?} has no start time",
                        graph.task(TaskId::from_index(i)).name()
                    ),
                    line: 0,
                })
            }
        }
    }
    Ok((name.to_string(), Schedule::from_starts(resolved)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
# A small two-resource problem.
problem "demo" {
  pmax 16W
  pmin 14W
  background 2.5W
  resource A compute
  resource B mechanical
  task a on A delay 5s power 6W
  task b on A delay 10s power 6W
  task c on B delay 10s power 8W
  precedence a -> b
  min a -> c 5s
  max a -> c 50s
}
"#;

    #[test]
    fn parses_the_demo_problem() {
        let p = parse_problem(DEMO).unwrap();
        assert_eq!(p.name(), "demo");
        assert_eq!(p.graph().num_tasks(), 3);
        assert_eq!(p.graph().num_resources(), 2);
        assert_eq!(p.constraints().p_max(), Power::from_watts(16));
        assert_eq!(p.background_power(), Power::from_watts_milli(2_500));
        let a = p.graph().task_by_name("a").unwrap();
        assert_eq!(p.graph().task(a).delay(), TimeSpan::from_secs(5));
        // precedence + min + max = 3 non-release edges.
        let user_edges = p
            .graph()
            .edges()
            .filter(|(_, e)| e.kind() != pas_graph::EdgeKind::Release)
            .count();
        assert_eq!(user_edges, 3);
    }

    #[test]
    fn schedule_round_trip() {
        let p = parse_problem(DEMO).unwrap();
        let src = r#"schedule "hand" { start a 0s start b 5s start c 5s }"#;
        let (name, s) = parse_schedule(src, &p).unwrap();
        assert_eq!(name, "hand");
        assert_eq!(
            s.start(p.graph().task_by_name("c").unwrap()),
            Time::from_secs(5)
        );
        assert!(pas_core::is_time_valid(p.graph(), &s));
    }

    #[test]
    fn spanned_parse_maps_statements_to_bytes() {
        let parsed = parse_problem_spanned(DEMO).unwrap();
        let spans = &parsed.spans;
        let slice = |s: Span| &DEMO[s.start..s.end];
        assert_eq!(slice(spans.problem.unwrap()), "\"demo\"");
        assert_eq!(slice(spans.pmax.unwrap()), "pmax 16W");
        assert_eq!(slice(spans.pmin.unwrap()), "pmin 14W");
        assert_eq!(slice(spans.background.unwrap()), "background 2.5W");
        assert_eq!(spans.deadline, None);
        let g = parsed.problem.graph();
        let a = g.task_by_name("a").unwrap();
        assert_eq!(
            slice(spans.task(a).unwrap()),
            "task a on A delay 5s power 6W"
        );
        let (rid, _) = g.resources().nth(1).unwrap();
        assert_eq!(slice(spans.resource(rid).unwrap()), "resource B mechanical");
        // Every user-declared edge has a span covering its statement.
        for (id, e) in g.edges() {
            if e.kind() == pas_graph::EdgeKind::Release {
                assert_eq!(spans.edge(id), None);
            } else {
                let text = slice(spans.edge(id).unwrap());
                assert!(
                    text.starts_with("min")
                        || text.starts_with("max")
                        || text.starts_with("precedence"),
                    "{text:?}"
                );
            }
        }
    }

    #[test]
    fn deadline_statement_parses_and_rejects_negative() {
        let src =
            r#"problem "d" { pmax 5W deadline 30s resource A task t on A delay 1s power 1W }"#;
        let parsed = parse_problem_spanned(src).unwrap();
        assert_eq!(parsed.problem.deadline(), Some(Time::from_secs(30)));
        assert_eq!(
            &src[parsed.spans.deadline.unwrap().start..parsed.spans.deadline.unwrap().end],
            "deadline 30s"
        );
        let err = parse_problem(r#"problem "d" { pmax 5W deadline -3s }"#).unwrap_err();
        assert!(err.message.contains("non-negative"), "{err}");
    }

    #[test]
    fn the_first_lex_error_anywhere_wins_over_a_parse_error() {
        // The unknown task on line 3 is a parse error, but the open
        // string on line 4 is a lex error, and lex errors win as if
        // the whole input had been tokenized first.
        let src = "problem p { pmax 5W\nresource A task a on A delay 1s power 1W\n\
                   precedence a -> zz\n\"open";
        assert_eq!(
            parse_problem(src).unwrap_err().to_string(),
            "line 4: unterminated string"
        );
        let err = parse_schedule("schedule s { start a 0s } $", &parse_problem(DEMO).unwrap());
        assert_eq!(
            err.unwrap_err().to_string(),
            "line 1: unexpected character '$'"
        );
        // Messages that name a token print its `Debug` form.
        let src = "problem p { pmax 5W resource A task a at A }";
        assert_eq!(
            parse_problem(src).unwrap_err().to_string(),
            "line 1: expected keyword \"on\", found \
             Some(Token { kind: Ident(\"at\"), line: 1, start: 38, end: 40 })"
        );
    }

    #[test]
    fn negative_pmin_and_background_are_errors_not_panics() {
        for (src, message) in [
            (
                "problem p { pmax 5W pmin -1W resource A task a on A delay 1s power 1W }",
                "line 1: pmin must be non-negative",
            ),
            (
                "problem p {\n  pmax 5W\n  background -1W\n}",
                "line 3: background must be non-negative",
            ),
        ] {
            assert_eq!(parse_problem(src).unwrap_err().to_string(), message);
        }
    }

    #[test]
    fn error_cases_have_useful_lines() {
        for (src, needle) in [
            ("problem \"x\" { pmin 5W }", "pmax"),
            ("problem \"x\" { pmax 5W pmin 6W }", "pmin must not exceed"),
            (
                "problem \"x\" { task a on Z delay 1s power 0W pmax 1W }",
                "unknown resource",
            ),
            ("problem \"x\" { pmax 1W min a -> b 1s }", "unknown task"),
            ("problem \"x\" { pmax 1W frobnicate }", "unknown statement"),
            ("problem \"x\" { pmax 1s }", "expected a value in W"),
            ("problem \"x\" {", "missing '}'"),
            ("problem \"x\" { pmax 1W } extra", "trailing input"),
        ] {
            let err = parse_problem(src).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{src:?} → {err} (wanted {needle:?})"
            );
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let src = r#"problem "x" { pmax 1W resource A resource A }"#;
        assert!(parse_problem(src)
            .unwrap_err()
            .message
            .contains("duplicate"));
        let src = r#"problem "x" {
          pmax 9W resource A
          task a on A delay 1s power 1W
          task a on A delay 1s power 1W }"#;
        assert!(parse_problem(src)
            .unwrap_err()
            .message
            .contains("duplicate"));
    }

    #[test]
    fn schedule_requires_every_task() {
        let p = parse_problem(DEMO).unwrap();
        let err = parse_schedule(r#"schedule "s" { start a 0s }"#, &p).unwrap_err();
        assert!(err.message.contains("no start time"));
        let err = parse_schedule(r#"schedule "s" { start a 0s start a 1s }"#, &p).unwrap_err();
        assert!(err.message.contains("duplicate start"));
    }

    #[test]
    fn schedule_rejects_trailing_input() {
        let p = parse_problem(DEMO).unwrap();
        let starts = p
            .graph()
            .tasks()
            .map(|(_, task)| format!("start {} 0s", task.name()))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!("schedule \"s\" {{ {starts} }}");
        assert!(parse_schedule(&src, &p).is_ok());
        let err = parse_schedule(&format!("{src}\ntrailing junk here"), &p).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2: trailing input after the schedule block"
        );
    }

    #[test]
    fn corners_parse_and_default_to_exact() {
        let src = r#"problem "c" {
          pmax 20W
          resource A
          task hot on A delay 2s power 6W corners 5W 8W
          task flat on A delay 2s power 3W
        }"#;
        let parsed = crate::parser::parse_problem_full(src).unwrap();
        use pas_core::power_model::Corner;
        assert_eq!(parsed.ranges.len(), 2);
        assert_eq!(parsed.ranges[0].at(Corner::Min), Power::from_watts(5));
        assert_eq!(parsed.ranges[0].at(Corner::Max), Power::from_watts(8));
        assert_eq!(parsed.ranges[1].at(Corner::Min), Power::from_watts(3));
        assert_eq!(parsed.ranges[1].at(Corner::Max), Power::from_watts(3));
    }

    #[test]
    fn invalid_corners_rejected() {
        let src = r#"problem "c" {
          pmax 20W
          resource A
          task bad on A delay 2s power 6W corners 7W 8W
        }"#;
        let err = crate::parser::parse_problem_full(src).unwrap_err();
        assert!(err.message.contains("corners"));
    }

    #[test]
    fn quoted_task_names_supported() {
        let src = r#"problem "q" {
          pmax 5W
          resource "heater #1" thermal
          task "warm up" on "heater #1" delay 3s power 2W
        }"#;
        let p = parse_problem(src).unwrap();
        assert!(p.graph().task_by_name("warm up").is_some());
    }
}
