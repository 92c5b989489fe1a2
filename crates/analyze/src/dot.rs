//! Shared GraphViz DOT emission.
//!
//! One builder behind every DOT export in the workspace — the repair
//! tool's dependency-graph renderings (`DepGraph::to_dot_styled`, used
//! by `TraceExplorer::to_dot`) and the static conflict-graph exporter
//! here — so the styling vocabulary (attack red, closure orange, pruned
//! dashed gray) is defined once and the outputs stay byte-compatible
//! with the formats the explorer tools and tests already consume.

use std::fmt::Write as _;

/// Fill color for attack-set nodes.
pub const FILL_ATTACK: &str = "indianred1";
/// Fill color for transitively damaged (closure) nodes.
pub const FILL_CLOSURE: &str = "orange";

/// Styling of one edge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeStyle {
    /// Draw dashed.
    pub dashed: bool,
    /// Stroke color.
    pub color: Option<&'static str>,
    /// Edge label.
    pub label: Option<String>,
}

impl EdgeStyle {
    /// The style of an edge dismissed by false-dependency rules: dashed,
    /// gray, labelled `pruned`.
    pub fn pruned() -> EdgeStyle {
        EdgeStyle {
            dashed: true,
            color: Some("gray"),
            label: Some("pruned".into()),
        }
    }

    /// A plain labelled edge.
    pub fn labelled(label: impl Into<String>) -> EdgeStyle {
        EdgeStyle {
            dashed: false,
            color: None,
            label: Some(label.into()),
        }
    }
}

/// Incremental DOT writer for directed graphs.
#[derive(Debug)]
pub struct DotBuilder {
    out: String,
}

impl DotBuilder {
    /// Opens `digraph <name>` with the house defaults (top-to-bottom
    /// ranking, ellipse nodes).
    pub fn new(name: &str) -> DotBuilder {
        DotBuilder {
            out: format!("digraph {name} {{\n  rankdir=TB;\n  node [shape=ellipse];\n"),
        }
    }

    /// Emits one node. `fill` of `Some(color)` renders it filled.
    pub fn node(&mut self, id: &str, label: &str, fill: Option<&str>) {
        let style = match fill {
            Some(color) => format!(", style=filled, fillcolor={color}"),
            None => String::new(),
        };
        let _ = writeln!(
            self.out,
            "  {id} [label=\"{}\"{style}];",
            escape_label(label)
        );
    }

    /// Emits one edge `from -> to`, with optional styling.
    pub fn edge(&mut self, from: &str, to: &str, style: Option<&EdgeStyle>) {
        let attrs = style.map(render_edge_attrs).unwrap_or_default();
        let _ = writeln!(self.out, "  {from} -> {to}{attrs};");
    }

    /// Closes the graph and returns the DOT text.
    pub fn finish(mut self) -> String {
        self.out.push_str("}\n");
        self.out
    }
}

fn render_edge_attrs(style: &EdgeStyle) -> String {
    let mut attrs: Vec<String> = Vec::new();
    if style.dashed {
        attrs.push("style=dashed".into());
    }
    if let Some(color) = style.color {
        attrs.push(format!("color={color}"));
    }
    if let Some(label) = &style.label {
        attrs.push(format!("label=\"{}\"", escape_label(label)));
    }
    if attrs.is_empty() {
        String::new()
    } else {
        format!(" [{}]", attrs.join(", "))
    }
}

/// Escapes a string for use inside a double-quoted DOT attribute.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_reproduces_repair_tool_format() {
        // Byte format the repair tool's tests and the trace explorer
        // consume: this must not drift.
        let mut dot = DotBuilder::new("trans_dep");
        dot.node("t1", "Order_0_3_0_4", Some(FILL_ATTACK));
        dot.node("t2", "Payment_0_3_0_5", None);
        dot.node("t3", "txn_3", Some(FILL_CLOSURE));
        dot.edge("t1", "t2", None);
        dot.edge("t1", "t3", Some(&EdgeStyle::pruned()));
        let out = dot.finish();
        assert_eq!(
            out,
            "digraph trans_dep {\n\
             \x20 rankdir=TB;\n\
             \x20 node [shape=ellipse];\n\
             \x20 t1 [label=\"Order_0_3_0_4\", style=filled, fillcolor=indianred1];\n\
             \x20 t2 [label=\"Payment_0_3_0_5\"];\n\
             \x20 t3 [label=\"txn_3\", style=filled, fillcolor=orange];\n\
             \x20 t1 -> t2;\n\
             \x20 t1 -> t3 [style=dashed, color=gray, label=\"pruned\"];\n\
             }\n"
        );
    }

    #[test]
    fn labels_are_escaped() {
        let mut dot = DotBuilder::new("g");
        dot.node("n1", "say \"hi\"", None);
        dot.edge("n1", "n1", Some(&EdgeStyle::labelled("a\\b")));
        let out = dot.finish();
        assert!(out.contains("label=\"say \\\"hi\\\"\""));
        assert!(out.contains("label=\"a\\\\b\""));
    }

    #[test]
    fn labelled_edge_without_dash_or_color() {
        let mut dot = DotBuilder::new("g");
        dot.edge("a", "b", Some(&EdgeStyle::labelled("customer")));
        assert!(dot.finish().contains("  a -> b [label=\"customer\"];\n"));
    }
}
