//! A minimal XML-subset reader/writer for the ADL dialect of Fig. 4.
//!
//! Supports exactly what the dialect needs: nested elements, double-quoted
//! attributes, self-closing tags, comments and the five standard entities.
//! Deliberately hand-written — the ADL is the paper's artifact, and keeping
//! the parser in-tree avoids an external XML dependency.

use crate::json::MAX_DEPTH;
use crate::{ModelError, Result};

/// A parsed element: name, attributes and child elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlNode {
    /// Element (tag) name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements (text content is ignored by the dialect).
    pub children: Vec<XmlNode>,
}

impl XmlNode {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Adds a child element (builder style).
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Looks up an attribute value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up a required attribute.
    ///
    /// # Errors
    ///
    /// [`ModelError::Parse`] when absent.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.get(key).ok_or_else(|| ModelError::Parse {
            line: 0,
            detail: format!("element <{}> missing required attribute '{key}'", self.name),
        })
    }

    /// Child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// The first child with the given tag name.
    pub fn first_child(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(text: &str) -> String {
    text.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Serializes a node tree with two-space indentation.
pub fn write_node(node: &XmlNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    out.push('<');
    out.push_str(&node.name);
    for (k, v) in &node.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape(v));
        out.push('"');
    }
    if node.children.is_empty() {
        out.push_str(" />\n");
    } else {
        out.push_str(">\n");
        for child in &node.children {
            write_node(child, depth + 1, out);
        }
        out.push_str(&pad);
        out.push_str("</");
        out.push_str(&node.name);
        out.push_str(">\n");
    }
}

struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input: input.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, detail: impl Into<String>) -> ModelError {
        ModelError::Parse {
            line: self.line,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_ws_and_text(&mut self) {
        // The dialect has no meaningful text nodes; skip until '<' or EOF.
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.bump();
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn consume(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    fn skip_comment(&mut self) -> Result<()> {
        // Positioned right after "<!--".
        loop {
            if self.consume("-->") {
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err("unterminated comment"));
            }
        }
    }

    fn read_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b':' || c == b'.' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn skip_spaces(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn read_attr_value(&mut self) -> Result<String> {
        if self.bump() != Some(b'"') {
            return Err(self.err("expected '\"' to open attribute value"));
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'"' {
                let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.bump();
                return Ok(unescape(&raw));
            }
            self.bump();
        }
        Err(self.err("unterminated attribute value"))
    }

    /// Parses one element, positioned at its '<'; `depth` counts its
    /// enclosing elements, capped at [`MAX_DEPTH`] so a deeply nested
    /// document is refused instead of overflowing the stack.
    fn parse_element(&mut self, depth: usize) -> Result<XmlNode> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("element nesting exceeds {MAX_DEPTH} levels")));
        }
        if self.bump() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        let name = self.read_name()?;
        let mut node = XmlNode::new(name);
        loop {
            self.skip_spaces();
            match self.peek() {
                Some(b'/') => {
                    self.bump();
                    if self.bump() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    return Ok(node);
                }
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                    let key = self.read_name()?;
                    self.skip_spaces();
                    if self.bump() != Some(b'=') {
                        return Err(self.err(format!("expected '=' after attribute '{key}'")));
                    }
                    self.skip_spaces();
                    let value = self.read_attr_value()?;
                    node.attrs.push((key, value));
                }
                other => {
                    return Err(self.err(format!(
                        "unexpected character {:?} in tag <{}>",
                        other.map(|c| c as char),
                        node.name
                    )))
                }
            }
        }
        // Children until the matching close tag.
        loop {
            self.skip_ws_and_text();
            if self.peek().is_none() {
                return Err(self.err(format!("unexpected EOF inside <{}>", node.name)));
            }
            if self.starts_with("<!--") {
                self.consume("<!--");
                self.skip_comment()?;
                continue;
            }
            if self.starts_with("</") {
                self.consume("</");
                let close = self.read_name()?;
                self.skip_spaces();
                if self.bump() != Some(b'>') {
                    return Err(self.err("expected '>' in closing tag"));
                }
                if close != node.name {
                    return Err(self.err(format!(
                        "mismatched closing tag: expected </{}>, found </{close}>",
                        node.name
                    )));
                }
                return Ok(node);
            }
            node.children.push(self.parse_element(depth + 1)?);
        }
    }
}

/// Parses a document into its top-level elements (comments and whitespace
/// between them are skipped; an XML declaration is tolerated).
///
/// # Errors
///
/// [`ModelError::Parse`] with a line number on any syntax error.
pub fn parse_document(input: &str) -> Result<Vec<XmlNode>> {
    let mut lexer = Lexer::new(input);
    let mut nodes = Vec::new();
    loop {
        lexer.skip_ws_and_text();
        if lexer.peek().is_none() {
            return Ok(nodes);
        }
        if lexer.starts_with("<!--") {
            lexer.consume("<!--");
            lexer.skip_comment()?;
            continue;
        }
        if lexer.starts_with("<?") {
            // Skip processing instruction.
            while let Some(c) = lexer.bump() {
                if c == b'>' {
                    break;
                }
            }
            continue;
        }
        nodes.push(lexer.parse_element(0)?);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements_and_attributes() {
        let doc = r#"
            <!-- a comment -->
            <A name="outer">
              <B x="1" y="two" />
              <C><D deep="yes"/></C>
            </A>
        "#;
        let nodes = parse_document(doc).unwrap();
        assert_eq!(nodes.len(), 1);
        let a = &nodes[0];
        assert_eq!(a.name, "A");
        assert_eq!(a.get("name"), Some("outer"));
        assert_eq!(a.children.len(), 2);
        assert_eq!(a.first_child("B").unwrap().get("y"), Some("two"));
        assert_eq!(
            a.first_child("C")
                .unwrap()
                .first_child("D")
                .unwrap()
                .get("deep"),
            Some("yes")
        );
    }

    #[test]
    fn multiple_top_level_elements() {
        let nodes = parse_document(r#"<A/><B/><C a="b"/>"#).unwrap();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn entities_roundtrip() {
        let node = XmlNode::new("E").attr("v", "a<b&\"c\"");
        let mut out = String::new();
        write_node(&node, 0, &mut out);
        assert!(out.contains("&lt;"));
        let back = parse_document(&out).unwrap();
        assert_eq!(back[0].get("v"), Some("a<b&\"c\""));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let doc = "<A>\n<B>\n</A>";
        let err = parse_document(doc).unwrap_err();
        match err {
            ModelError::Parse { line, detail } => {
                assert_eq!(line, 3, "{detail}");
                assert!(detail.contains("mismatched"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let nested = |levels: usize| "<A>\n".repeat(levels) + &"</A>".repeat(levels);
        match parse_document(&nested(200_000)).unwrap_err() {
            ModelError::Parse { line, detail } => {
                assert_eq!(line, MAX_DEPTH + 1, "{detail}");
                assert!(detail.contains("nesting exceeds"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // One level under the cap still parses.
        let nodes = parse_document(&nested(MAX_DEPTH - 1)).unwrap();
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    fn unterminated_inputs_fail() {
        assert!(parse_document("<A").is_err());
        assert!(parse_document("<A attr=>").is_err());
        assert!(parse_document("<A attr=\"x>").is_err());
        assert!(parse_document("<!-- never closed").is_err());
        assert!(parse_document("<A><B></B>").is_err());
    }

    #[test]
    fn comments_inside_elements() {
        let doc = "<A><!-- note --><B/></A>";
        let nodes = parse_document(doc).unwrap();
        assert_eq!(nodes[0].children.len(), 1);
    }

    #[test]
    fn write_format_is_stable() {
        let node = XmlNode::new("Root")
            .attr("name", "n")
            .child(XmlNode::new("Leaf").attr("k", "v"));
        let mut out = String::new();
        write_node(&node, 0, &mut out);
        assert_eq!(out, "<Root name=\"n\">\n  <Leaf k=\"v\" />\n</Root>\n");
    }
}
