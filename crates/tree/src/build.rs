//! Incremental tree construction.

use crate::Tree;

/// Stack-based builder: push nodes depth-first, closing each with
/// [`TreeBuilder::up`].
///
/// Each closed node appends its label and child count to postorder arrays,
/// and [`finish`](TreeBuilder::finish) hands them to
/// [`Tree::from_postorder_degrees`]. Apart from the labels it is given, the
/// builder allocates nothing per node.
///
/// ```
/// use rted_tree::TreeBuilder;
/// let mut b = TreeBuilder::new();
/// b.open("a");
/// b.open("b");
/// b.up();
/// b.open("c");
/// b.up();
/// b.up();
/// let t = b.finish().unwrap();
/// assert_eq!(t.len(), 3);
/// assert_eq!(t.label(t.root()), &"a");
/// ```
#[derive(Debug)]
pub struct TreeBuilder<L> {
    /// Labels of the closed nodes, in postorder.
    labels: Vec<L>,
    /// Child counts of the closed nodes, in postorder.
    degrees: Vec<u32>,
    /// The open nodes, outermost first: label and children closed so far.
    open: Vec<(L, u32)>,
}

impl<L> Default for TreeBuilder<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L> TreeBuilder<L> {
    /// An empty builder.
    pub fn new() -> Self {
        TreeBuilder {
            labels: Vec::new(),
            degrees: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a new node as the next child of the currently open node (or as
    /// the root if no node is open).
    ///
    /// # Panics
    ///
    /// Panics if the root has already been closed.
    pub fn open(&mut self, label: L) -> &mut Self {
        assert!(!self.is_complete(), "root already closed");
        self.open.push((label, 0));
        self
    }

    /// Closes the currently open node.
    ///
    /// # Panics
    ///
    /// Panics if no node is open.
    pub fn up(&mut self) -> &mut Self {
        let (label, degree) = self.open.pop().expect("no open node to close");
        self.close(label, degree);
        self
    }

    /// Adds a leaf child to the currently open node (or a single-node tree
    /// if no node is open).
    ///
    /// # Panics
    ///
    /// Panics if the root has already been closed.
    pub fn leaf(&mut self, label: L) -> &mut Self {
        assert!(!self.is_complete(), "root already closed");
        self.close(label, 0);
        self
    }

    fn close(&mut self, label: L, degree: u32) {
        self.labels.push(label);
        self.degrees.push(degree);
        if let Some((_, d)) = self.open.last_mut() {
            *d += 1;
        }
    }

    /// Label of the innermost open node, or `None` if no node is open.
    pub fn open_label(&self) -> Option<&L> {
        self.open.last().map(|(label, _)| label)
    }

    /// `true` once the root has been closed.
    pub fn is_complete(&self) -> bool {
        self.open.is_empty() && !self.labels.is_empty()
    }

    /// Completes the build and resets the builder. Returns `None` if no root
    /// was closed or nodes remain open.
    pub fn finish(&mut self) -> Option<Tree<L>> {
        if !self.is_complete() {
            return None;
        }
        let labels = std::mem::take(&mut self.labels);
        let tree = Tree::from_postorder_degrees(labels, &self.degrees)
            .expect("every closed node was counted by its parent");
        self.degrees.clear();
        Some(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn build_node_nested() {
        let mut b = TreeBuilder::new();
        b.open("a").leaf("b").open("c").leaf("d").up().up();
        let t = b.finish().unwrap();
        // Postorder: b=0, d=1, c=2, a=3.
        assert_eq!(t.len(), 4);
        assert_eq!(t.label(NodeId(0)), &"b");
        assert_eq!(t.label(NodeId(1)), &"d");
        assert_eq!(t.label(NodeId(2)), &"c");
        assert_eq!(t.label(NodeId(3)), &"a");
        assert_eq!(t.degree(NodeId(3)), 2);
    }

    #[test]
    fn builder_unbalanced_is_error() {
        let mut b = TreeBuilder::new();
        b.open(1);
        assert!(b.finish().is_none());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 200k-node chain: must not recurse.
        let mut b = TreeBuilder::new();
        for i in (1..200_000u32).rev() {
            b.open(i);
        }
        b.leaf(0);
        for _ in 1..200_000 {
            b.up();
        }
        let t = b.finish().unwrap();
        assert_eq!(t.len(), 200_000);
        assert_eq!(t.max_depth(), 199_999);
    }
}
