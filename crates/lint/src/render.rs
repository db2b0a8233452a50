//! Rendering a [`LintReport`] for humans (rustc-style, with source
//! excerpts) and for tools (single-object JSON, dependency-free).

use crate::diag::{Diagnostic, LintReport};
use core::fmt::Write as _;
use pas_core::json;

/// A named piece of spec source, used to resolve byte spans to
/// line/column excerpts.
#[derive(Debug, Clone, Copy)]
pub struct SourceFile<'a> {
    /// Display name (usually the file path).
    pub name: &'a str,
    /// Full source text the spans index into.
    pub text: &'a str,
}

/// Renders the report the way rustc renders compiler diagnostics:
///
/// ```text
/// error[PAS001]: task "drill" draws 20 W against a 16 W budget
///   --> rover.pasdl:5:3
///    |
///  5 |   task drill on arm delay 10s power 20W
///    |   ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^ declared here
///    = help: lower p(drill) or raise pmax
/// ```
///
/// Without a [`SourceFile`] the span blocks are omitted and only the
/// headline and help lines are printed.
pub fn render_human(report: &LintReport, source: Option<SourceFile<'_>>) -> String {
    let mut out = String::new();
    for d in report.diagnostics() {
        render_one(&mut out, d, source);
    }
    if !report.is_empty() {
        let _ = writeln!(out, "{}", report.summary());
    }
    out
}

fn render_one(out: &mut String, d: &Diagnostic, source: Option<SourceFile<'_>>) {
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if let Some(src) = source {
        for labeled in &d.spans {
            let (line, col) = labeled.span.line_col(src.text);
            let _ = writeln!(out, "  --> {}:{line}:{col}", src.name);
            let text = line_text(src.text, line);
            let gutter = line.to_string().len();
            let _ = writeln!(out, "{:gutter$} |", "");
            let _ = writeln!(out, "{line} | {text}");
            let caret_len = caret_len(labeled.span, src.text, text, col);
            let _ = writeln!(
                out,
                "{:gutter$} | {:col_pad$}{} {}",
                "",
                "",
                "^".repeat(caret_len),
                labeled.label,
                col_pad = col - 1,
            );
        }
    } else {
        for labeled in &d.spans {
            let _ = writeln!(
                out,
                "  --> bytes {}..{} {}",
                labeled.span.start, labeled.span.end, labeled.label
            );
        }
    }
    if let Some(help) = &d.suggestion {
        let _ = writeln!(out, "  = help: {help}");
    }
    if let Some(fix) = &d.fix {
        if fix.replacement.is_empty() {
            let _ = writeln!(
                out,
                "  = fix ({}): delete the statement",
                fix.applicability.as_str()
            );
        } else {
            let _ = writeln!(
                out,
                "  = fix ({}): replace with `{}`",
                fix.applicability.as_str(),
                fix.replacement
            );
        }
    }
    if let Some(cert) = &d.certificate {
        let _ = writeln!(
            out,
            "  = certificate: {} proof attached (machine-checkable; emitted in JSON output)",
            cert.kind()
        );
    }
}

/// The 1-based `line`-th line of `text`, without its newline.
fn line_text(text: &str, line: usize) -> &str {
    text.lines().nth(line - 1).unwrap_or("")
}

/// How many caret characters to draw: the span's extent within its
/// first line, at least one.
fn caret_len(span: crate::Span, text: &str, line: &str, col: usize) -> usize {
    let line_chars = line.chars().count();
    let span_chars = text
        .get(span.start..span.end.min(text.len()))
        .map_or(1, |s| s.split('\n').next().unwrap_or("").chars().count());
    span_chars.clamp(1, line_chars.saturating_sub(col - 1).max(1))
}

/// Renders the report as one JSON object:
///
/// ```json
/// {"file":"rover.pasdl","errors":1,"warnings":0,"diagnostics":[
///   {"code":"PAS001","severity":"error","message":"...",
///    "spans":[{"start":57,"end":98,"line":5,"col":3,"label":"declared here"}],
///    "suggestion":"..."}]}
/// ```
///
/// `file`, `line`/`col` and `suggestion` are omitted when unknown.
/// The encoder is self-contained (no serde) and escapes strings per
/// RFC 8259.
pub fn render_json(report: &LintReport, source: Option<SourceFile<'_>>) -> String {
    let mut out = String::from("{");
    if let Some(src) = source {
        out.push_str("\"file\":\"");
        json::push_escaped(&mut out, src.name);
        out.push_str("\",");
    }
    let _ = write!(
        out,
        "\"errors\":{},\"warnings\":{},\"diagnostics\":[",
        report.error_count(),
        report.warning_count()
    );
    for (i, d) in report.diagnostics().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"",
            d.code, d.severity,
        );
        json::push_escaped(&mut out, &d.message);
        out.push_str("\",\"spans\":[");
        for (j, labeled) in d.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start\":{},\"end\":{}",
                labeled.span.start, labeled.span.end
            );
            if let Some(src) = source {
                let (line, col) = labeled.span.line_col(src.text);
                let _ = write!(out, ",\"line\":{line},\"col\":{col}");
            }
            out.push_str(",\"label\":\"");
            json::push_escaped(&mut out, &labeled.label);
            out.push_str("\"}");
        }
        out.push(']');
        if let Some(s) = &d.suggestion {
            out.push_str(",\"suggestion\":\"");
            json::push_escaped(&mut out, s);
            out.push('"');
        }
        if let Some(fix) = &d.fix {
            let _ = write!(
                out,
                ",\"fix\":{{\"start\":{},\"end\":{},\"replacement\":\"",
                fix.span.start, fix.span.end,
            );
            json::push_escaped(&mut out, &fix.replacement);
            let _ = write!(
                out,
                "\",\"applicability\":\"{}\"}}",
                fix.applicability.as_str()
            );
        }
        if let Some(cert) = &d.certificate {
            let _ = write!(out, ",\"certificate\":{}", cert.to_json());
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Diagnostic, LintCode, LintReport};
    use crate::span::Span;

    fn sample() -> (LintReport, &'static str) {
        let src = "problem \"x\" {\n  task a on cpu delay 5s power 2W\n}\n";
        let mut r = LintReport::new();
        let start = src.find("task").unwrap();
        r.push(
            Diagnostic::new(LintCode::TaskOverBudget, "task \"a\" over budget")
                .with_span(Some(Span::new(start, start + 31)), "declared here")
                .with_suggestion("raise pmax"),
        );
        (r, src)
    }

    #[test]
    fn human_rendering_points_at_the_statement() {
        let (r, src) = sample();
        let text = render_human(
            &r,
            Some(SourceFile {
                name: "x.pasdl",
                text: src,
            }),
        );
        assert!(text.contains("error[PAS001]: task \"a\" over budget"));
        assert!(text.contains("--> x.pasdl:2:3"));
        assert!(text.contains("task a on cpu delay 5s power 2W"));
        assert!(text.contains("^^^^"));
        assert!(text.contains("= help: raise pmax"));
        assert!(text.contains("1 error, 0 warnings"));
    }

    #[test]
    fn human_rendering_without_source_is_still_useful() {
        let (r, _) = sample();
        let text = render_human(&r, None);
        assert!(text.contains("error[PAS001]"));
        assert!(text.contains("bytes"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = LintReport::new();
        r.push(Diagnostic::new(
            LintCode::SelfLoop,
            "weird \"name\"\nwith newline",
        ));
        let json = render_json(&r, None);
        let doc = json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""code":"PAS002""#));
        let message = doc
            .get("diagnostics")
            .and_then(|d| d.as_array()?[0].get("message"));
        assert_eq!(
            message.and_then(json::Value::as_str),
            Some("weird \"name\"\nwith newline")
        );
        assert!(json.contains(r#"weird \"name\"\nwith newline"#));
        assert!(!json.contains("file"));
    }

    #[test]
    fn json_carries_line_and_col_with_source() {
        let (r, src) = sample();
        let json = render_json(
            &r,
            Some(SourceFile {
                name: "x.pasdl",
                text: src,
            }),
        );
        assert!(json.contains(r#""file":"x.pasdl""#));
        assert!(json.contains(r#""line":2,"col":3"#));
        assert!(json.contains(r#""errors":1"#));
    }

    #[test]
    fn hostile_names_are_escaped_everywhere_in_json() {
        use crate::certificate::{Certificate, WindowClaim};
        use pas_graph::units::Time;
        use pas_graph::{ResourceId, TaskId};
        // Names with quotes, backslashes, newlines and control bytes
        // must survive both the message and the embedded certificate.
        let hostile = "evil\"name\\\n\u{1}";
        let cert = Certificate::ResourcePacking {
            deadline: Time::from_secs(9),
            resource: ResourceId::from_index(0),
            resource_name: hostile.to_string(),
            window: (Time::ZERO, Time::from_secs(9)),
            claims: vec![WindowClaim {
                task: TaskId::from_index(0),
                task_name: hostile.to_string(),
                asap: Time::ZERO,
                alap: Time::from_secs(4),
                asap_path: Vec::new(),
                alap_path: vec![TaskId::from_index(0).node()],
            }],
            demand_secs: 10,
            capacity_secs: 9,
        };
        let mut r = LintReport::new();
        r.push(
            Diagnostic::new(
                LintCode::DemandOverCapacity,
                format!("resource \"{hostile}\" is packed"),
            )
            .with_certificate(cert),
        );
        let json = render_json(&r, None);
        assert!(json::parse(&json).is_ok(), "{json}");
        assert!(json.contains(r#"evil\"name\\\n"#), "{json}");
        // No raw control bytes or unescaped quotes-in-strings leak out.
        assert!(!json.contains('\u{1}'), "{json}");
        assert!(json.contains(r#""certificate":{"kind":"resource-packing""#));
    }

    #[test]
    fn fix_and_certificate_render_in_both_formats() {
        use crate::diag::Applicability;
        let mut r = LintReport::new();
        r.push(
            Diagnostic::new(LintCode::DeadlineUnreachable, "deadline 10s unreachable").with_fix(
                Some(Span::new(5, 17)),
                "deadline 16s",
                Applicability::MaybeIncorrect,
            ),
        );
        let human = render_human(&r, None);
        assert!(
            human.contains("= fix (maybe-incorrect): replace with `deadline 16s`"),
            "{human}"
        );
        let json = render_json(&r, None);
        assert!(
            json.contains(
                r#""fix":{"start":5,"end":17,"replacement":"deadline 16s","applicability":"maybe-incorrect"}"#
            ),
            "{json}"
        );
    }

    #[test]
    fn empty_report_renders_empty() {
        let r = LintReport::new();
        assert_eq!(render_human(&r, None), "");
        assert_eq!(
            render_json(&r, None),
            r#"{"errors":0,"warnings":0,"diagnostics":[]}"#
        );
    }
}
