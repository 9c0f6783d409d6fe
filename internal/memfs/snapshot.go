package memfs

import "repro/internal/vfs"

// nodeState is one node's captured contents.
type nodeState struct {
	attr     vfs.Attr
	data     []byte
	children map[string]*node // same node pointers; the map itself is copied
}

// FSState is a deep copy of the file system tree, captured for whole-kernel
// checkpoints. States are keyed by node identity and restored in place, so
// every live pointer into the tree — mapped segments' backing objects, open
// file handles, exec vnodes — remains valid across a restore. Nodes created
// after the capture simply become unreachable; nodes removed after it are
// re-linked by restoring their parent's child map, which still references
// them.
type FSState struct {
	nodes map[*node]*nodeState
}

// SaveState captures every node reachable from the root.
func (fs *FS) SaveState() *FSState {
	st := &FSState{nodes: map[*node]*nodeState{}}
	fs.root.save(st)
	return st
}

func (n *node) save(st *FSState) {
	n.mu.Lock()
	ns := &nodeState{attr: n.attr}
	if n.data != nil {
		ns.data = append([]byte(nil), n.data...)
	}
	if n.children != nil {
		ns.children = make(map[string]*node, len(n.children))
		for name, c := range n.children {
			ns.children[name] = c
		}
	}
	n.mu.Unlock()
	st.nodes[n] = ns
	for _, c := range ns.children {
		if _, done := st.nodes[c]; !done {
			c.save(st)
		}
	}
}

// RestoreState rewinds the tree in place to a state captured by SaveState.
// The state remains reusable. Every restored file's revision is bumped so
// frame-cached pages of mapped files revalidate against the restored
// contents.
func (fs *FS) RestoreState(st *FSState) {
	for n, ns := range st.nodes {
		n.mu.Lock()
		n.attr = ns.attr
		n.data = withSlack(int64(len(ns.data)))
		copy(n.data, ns.data)
		if ns.children == nil {
			n.children = nil
		} else {
			n.children = make(map[string]*node, len(ns.children))
			for name, c := range ns.children {
				n.children[name] = c
			}
		}
		n.rev.Add(1)
		n.mu.Unlock()
	}
}
