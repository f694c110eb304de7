//! A minimal XML element-tree parser.
//!
//! Parses just enough XML to turn documents into ordered labeled trees for
//! edit distance comparison (the paper's motivating application): element
//! nesting and tag names, with text content becoming leaf nodes. No
//! namespaces, DTDs or entities — this is a workload adapter, not an XML
//! library.

use rted_tree::{Tree, TreeBuilder};

/// Error from [`parse_xml`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xml error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XmlError {}

fn err<T>(position: usize, message: impl Into<String>) -> Result<T, XmlError> {
    Err(XmlError {
        position,
        message: message.into(),
    })
}

/// Parses an XML document into a label tree: element nodes are labeled with
/// their tag name, non-whitespace text runs become leaf nodes labeled with
/// the trimmed text. Attributes are ignored.
pub fn parse_xml(input: &str) -> Result<Tree<String>, XmlError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut builder = TreeBuilder::new();

    // Text outside every element is dropped.
    let flush_text = |builder: &mut TreeBuilder<String>, text: &mut String| {
        let trimmed = text.trim();
        if !trimmed.is_empty() && builder.open_label().is_some() {
            builder.leaf(trimmed.to_string());
        }
        text.clear();
    };

    let mut text = String::new();
    while pos < bytes.len() {
        if bytes[pos] == b'<' {
            // Comments / processing instructions / declarations: skip.
            if input[pos..].starts_with("<!--") {
                match input[pos..].find("-->") {
                    Some(end) => {
                        pos += end + 3;
                        continue;
                    }
                    None => return err(pos, "unterminated comment"),
                }
            }
            if input[pos..].starts_with("<?") || input[pos..].starts_with("<!") {
                match input[pos..].find('>') {
                    Some(end) => {
                        pos += end + 1;
                        continue;
                    }
                    None => return err(pos, "unterminated declaration"),
                }
            }
            flush_text(&mut builder, &mut text);
            let close = bytes.get(pos + 1) == Some(&b'/');
            let end = match input[pos..].find('>') {
                Some(e) => pos + e,
                None => return err(pos, "unterminated tag"),
            };
            let self_closing = bytes[end - 1] == b'/';
            let inner_start = pos + if close { 2 } else { 1 };
            let inner_end = if self_closing && !close { end - 1 } else { end };
            let inner = input[inner_start..inner_end].trim();
            let name = inner.split_whitespace().next().unwrap_or("");
            if name.is_empty() {
                return err(pos, "empty tag name");
            }
            if close {
                match builder.open_label() {
                    None => return err(pos, format!("unmatched closing tag </{name}>")),
                    Some(open) if open != name => {
                        return err(pos, format!("expected </{open}>, found </{name}>"))
                    }
                    Some(_) => builder.up(),
                };
            } else if builder.is_complete() {
                return err(pos, "multiple root elements");
            } else if self_closing {
                builder.leaf(name.to_string());
            } else {
                builder.open(name.to_string());
            }
            pos = end + 1;
        } else {
            // A text run up to the next tag; '<' is ASCII, so the slice ends
            // on a char boundary.
            let run_end = input[pos..].find('<').map_or(bytes.len(), |i| pos + i);
            text.push_str(&input[pos..run_end]);
            pos = run_end;
        }
    }
    if let Some(open) = builder.open_label() {
        return err(pos, format!("unclosed element <{open}>"));
    }
    match builder.finish() {
        Some(tree) => Ok(tree),
        None => err(pos, "no root element"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_document() {
        let t = parse_xml("<a><b/><c>hello</c></a>").unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.label(t.root()), "a");
        // c's child is the text leaf.
        let c = t.children(t.root()).last().unwrap();
        assert_eq!(t.label(c), "c");
        assert_eq!(t.label(t.children(c).next().unwrap()), "hello");
    }

    #[test]
    fn attributes_ignored() {
        let t = parse_xml(r#"<a x="1"><b y="2"/></a>"#).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.label(t.root()), "a");
    }

    #[test]
    fn comments_and_decls_skipped() {
        let t = parse_xml("<?xml version=\"1.0\"?><!-- hi --><a><b/></a>").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mismatched_tags_error() {
        assert!(parse_xml("<a><b></a></b>").is_err());
        assert!(parse_xml("<a>").is_err());
        assert!(parse_xml("text only").is_err());
        assert!(parse_xml("<a/><b/>").is_err());
    }

    #[test]
    fn utf8_text_and_tags_match_bracket_labels() {
        let t = parse_xml("<café><p>naïve</p></café>").unwrap();
        let bracket = rted_tree::parse_bracket("{café{p{naïve}}}").unwrap();
        assert_eq!(rted_tree::to_bracket(&t), "{café{p{naïve}}}");
        assert_eq!(rted_tree::to_bracket(&t), rted_tree::to_bracket(&bracket));
    }

    #[test]
    fn whitespace_text_dropped() {
        let t = parse_xml("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(t.len(), 2);
    }
}
