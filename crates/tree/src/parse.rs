//! Bracket notation parsing and serialization.
//!
//! The notation is the one used by the reference RTED/APTED implementations:
//! a tree is `{label c1 c2 ...}` where each `ci` is itself a bracketed tree.
//! Example: `{a{b}{c{d}}}` is a root `a` with children `b` and `c`, where `c`
//! has a single child `d`. Labels may contain any character except `{` and
//! `}`, which can be escaped as `\{`, `\}` (and `\\` for a backslash).

use crate::{Tree, TreeBuilder};

/// Error produced when parsing bracket notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(position: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        position,
        message: message.into(),
    })
}

/// Parses a tree in bracket notation, e.g. `{a{b}{c}}`.
pub fn parse_bracket(input: &str) -> Result<Tree<String>, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = skip_whitespace(bytes, 0);
    // Iterative parse to support very deep trees.
    let mut builder = TreeBuilder::new();
    loop {
        if pos >= bytes.len() {
            return err(pos, "unexpected end of input");
        }
        if bytes[pos] != b'{' {
            return err(
                pos,
                format!("expected '{{', found {:?}", char_at(input, pos)),
            );
        }
        let (label, end) = read_label(input, pos + 1);
        builder.open(label);
        pos = end;
        // Close any finished nodes.
        loop {
            if pos >= bytes.len() {
                return err(pos, "unexpected end of input (unclosed '{')");
            }
            match bytes[pos] {
                b'{' => break, // next child of the top node
                b'}' => {
                    pos += 1;
                    builder.up();
                    if builder.open_label().is_none() {
                        // Allow trailing whitespace only.
                        pos = skip_whitespace(bytes, pos);
                        if pos != bytes.len() {
                            return err(pos, "trailing input after root");
                        }
                        return Ok(builder.finish().expect("the root has just closed"));
                    }
                }
                _ => {
                    return err(
                        pos,
                        format!("expected '{{' or '}}', found {:?}", char_at(input, pos)),
                    );
                }
            }
        }
    }
}

fn skip_whitespace(bytes: &[u8], mut pos: usize) -> usize {
    while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
        pos += 1;
    }
    pos
}

/// The character starting at byte `pos`, which lies on a char boundary:
/// the parser only steps over ASCII delimiters and whole labels.
fn char_at(input: &str, pos: usize) -> char {
    input[pos..]
        .chars()
        .next()
        .expect("pos lies inside the input")
}

/// Reads the label starting at byte `pos` up to the next unescaped `{` or
/// `}` (or the end of input); returns it and the offset just past it.
///
/// The delimiters are ASCII, so every slice taken here ends on a char
/// boundary; an escape copies the whole character that follows it.
fn read_label(input: &str, mut pos: usize) -> (String, usize) {
    let bytes = input.as_bytes();
    let mut label = String::new();
    let mut run = pos;
    while pos < bytes.len() {
        match bytes[pos] {
            b'{' | b'}' => break,
            b'\\' if pos + 1 < bytes.len() => {
                label.push_str(&input[run..pos]);
                let escaped = char_at(input, pos + 1);
                label.push(escaped);
                pos += 1 + escaped.len_utf8();
                run = pos;
            }
            _ => pos += 1,
        }
    }
    label.push_str(&input[run..pos]);
    (label, pos)
}

/// Serializes a tree to bracket notation (inverse of [`parse_bracket`]).
pub fn to_bracket<L: std::fmt::Display>(tree: &Tree<L>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    // Iterative preorder with explicit close markers.
    enum Step {
        Open(crate::NodeId),
        Close,
    }
    let mut stack = vec![Step::Open(tree.root())];
    while let Some(step) = stack.pop() {
        match step {
            Step::Open(v) => {
                out.push('{');
                write!(Escaped(&mut out), "{}", tree.label(v))
                    .expect("writing to a String cannot fail");
                stack.push(Step::Close);
                stack.extend(tree.children(v).rev().map(Step::Open));
            }
            Step::Close => out.push('}'),
        }
    }
    out
}

/// Writes a label into bracket text, escaping `{`, `}` and `\` as it goes.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for ch in s.chars() {
            if ch == '{' || ch == '}' || ch == '\\' {
                self.0.push('\\');
            }
            self.0.push(ch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        for s in ["{a}", "{a{b}{c}}", "{a{b{d}{e}}{c}}", "{x{y{z{w}}}}"] {
            let t = parse_bracket(s).unwrap();
            assert_eq!(to_bracket(&t), s);
        }
    }

    #[test]
    fn labels_with_spaces_and_escapes() {
        let t = parse_bracket("{hello world{sub \\{tree\\}}}").unwrap();
        assert_eq!(t.label(t.root()), "hello world");
        assert_eq!(t.label(crate::NodeId(0)), "sub {tree}");
        let s = to_bracket(&t);
        let t2 = parse_bracket(&s).unwrap();
        assert_eq!(t2.label(crate::NodeId(0)), "sub {tree}");
    }

    #[test]
    fn utf8_labels_roundtrip() {
        for s in ["{é{ü}}", "{日本{語}}", "{a\\{é}"] {
            let t = parse_bracket(s).unwrap();
            assert_eq!(to_bracket(&t), s);
        }
        let t = parse_bracket("{a\\{é}").unwrap();
        assert_eq!(t.label(t.root()), "a{é");
        // An escape takes the whole multi-byte character after it.
        let t = parse_bracket("{\\é{x}}").unwrap();
        assert_eq!(t.label(t.root()), "é");
    }

    #[test]
    fn empty_labels_allowed() {
        let t = parse_bracket("{{}{}}").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.label(t.root()), "");
    }

    #[test]
    fn error_cases() {
        assert!(parse_bracket("").is_err());
        assert!(parse_bracket("a").is_err());
        assert!(parse_bracket("{a").is_err());
        assert!(parse_bracket("{a}}").is_err());
        assert!(parse_bracket("{a}{b}").is_err());
    }

    #[test]
    fn deep_parse_no_overflow() {
        let mut s = String::new();
        for _ in 0..100_000 {
            s.push_str("{x");
        }
        s.push_str(&"}".repeat(100_000));
        let t = parse_bracket(&s).unwrap();
        assert_eq!(t.len(), 100_000);
    }

    #[test]
    fn whitespace_tolerated_at_ends() {
        let t = parse_bracket("  {a{b}}\n").unwrap();
        assert_eq!(t.len(), 2);
    }
}
