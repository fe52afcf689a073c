//! Self-contained HTML report assembly — the static stand-in for the
//! paper's interactive Jupyter-notebook visualizations (§4.3.2): every
//! chart and table of an analysis session in one file a browser can open.

/// Builder for a single-file HTML report with embedded SVGs and
/// preformatted tables.
#[derive(Debug, Clone)]
pub struct HtmlReport {
    title: String,
    sections: Vec<Section>,
}

#[derive(Debug, Clone)]
struct Section {
    heading: String,
    blocks: Vec<Block>,
}

#[derive(Debug, Clone)]
enum Block {
    Preformatted(String),
    Svg(String),
}

impl HtmlReport {
    /// New report with a page title.
    pub fn new(title: impl Into<String>) -> Self {
        HtmlReport {
            title: title.into(),
            sections: Vec::new(),
        }
    }

    /// Start a new section.
    pub fn section(&mut self, heading: impl Into<String>) -> &mut Self {
        self.sections.push(Section {
            heading: heading.into(),
            blocks: Vec::new(),
        });
        self
    }

    fn current(&mut self) -> &mut Section {
        if self.sections.is_empty() {
            self.sections.push(Section {
                heading: String::new(),
                blocks: Vec::new(),
            });
        }
        self.sections.last_mut().expect("non-empty")
    }

    /// Add a preformatted block (tables, trees) to the current section.
    pub fn pre(&mut self, text: impl Into<String>) -> &mut Self {
        let block = Block::Preformatted(text.into());
        self.current().blocks.push(block);
        self
    }

    /// Embed an SVG document (as produced by the chart constructors)
    /// inline in the current section.
    pub fn svg(&mut self, svg: impl Into<String>) -> &mut Self {
        let block = Block::Svg(svg.into());
        self.current().blocks.push(block);
        self
    }

    /// Number of sections so far.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// `true` when no section has been added.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Render the complete HTML document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        out.push_str(&format!("<title>{}</title>\n", escape(&self.title)));
        out.push_str(
            "<style>\n\
             body { font-family: sans-serif; margin: 2em auto; max-width: 70em; color: #222; }\n\
             h1 { border-bottom: 2px solid #0072B2; padding-bottom: .2em; }\n\
             h2 { color: #0072B2; margin-top: 2em; }\n\
             pre { background: #f6f8fa; padding: 1em; overflow-x: auto; font-size: 12px; }\n\
             figure { margin: 1em 0; }\n\
             </style>\n</head>\n<body>\n",
        );
        out.push_str(&format!("<h1>{}</h1>\n", escape(&self.title)));
        for s in &self.sections {
            if !s.heading.is_empty() {
                out.push_str(&format!("<h2>{}</h2>\n", escape(&s.heading)));
            }
            for b in &s.blocks {
                match b {
                    Block::Preformatted(t) => {
                        out.push_str(&format!("<pre>{}</pre>\n", escape(t)))
                    }
                    // SVG is structured markup we produced; embed as-is.
                    Block::Svg(svg) => out.push_str(&format!("<figure>\n{svg}</figure>\n")),
                }
            }
        }
        out.push_str("</body>\n</html>\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_sections_in_order() {
        let mut r = HtmlReport::new("Study <1>");
        r.section("Scaling").pre("a  b\n1  2");
        r.section("Models").svg("<svg xmlns=\"x\"></svg>");
        let html = r.render();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<title>Study &lt;1&gt;</title>"));
        let scaling = html.find("Scaling").unwrap();
        let models = html.find("Models").unwrap();
        assert!(scaling < models);
        assert!(html.contains("<pre>a  b\n1  2</pre>"));
        assert!(html.contains("<figure>\n<svg"));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn blocks_without_section_get_default() {
        let mut r = HtmlReport::new("t");
        r.pre("orphan");
        assert!(r.render().contains("<pre>orphan</pre>"));
        assert!(!r.is_empty());
    }

    #[test]
    fn text_is_escaped_but_svg_is_not() {
        let mut r = HtmlReport::new("t");
        r.section("s").pre("if a < b & c > d");
        r.svg("<svg><rect/></svg>");
        let html = r.render();
        assert!(html.contains("a &lt; b &amp; c &gt; d"));
        assert!(html.contains("<svg><rect/></svg>"));
    }
}
